"""One quick-preset sweep in a fresh interpreter.

Prints ``ready`` once the runner and the experiment registry are
imported (the parent times spawn → ``ready`` as set-up), then, unless
``--setup-only``, runs every experiment of :func:`sweep_ids` with
``jobs=1`` in this process while sampling the host's speed
(``benchlib.hostspeed``), and prints one JSON line.

``--trace 0`` runs the sweep once: per experiment its status, wall
time, completion time since the sweep started and the host slowdown
over that stretch; the sweep's wall time and slowdown; this process's
peak RSS.  ``--trace 1`` runs every experiment twice back to back,
once with the engine layers traced and once without, alternating
which goes first, so host drift hits both sides of each pair alike;
it adds the pairs and the engine layers' totals.

    PYTHONPATH=src python3 perfbench/sweep_child.py --trace 0
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path
from typing import Any

from benchlib.hostspeed import HostSpeed

#: E15 alone takes ~30 s, half of the quick preset on a 2-vCPU host;
#: without it a full set of checking runs (22 per workload) stays
#: within an hour (perfbench/README.md, "What is not measured").
EXCLUDED = ("E15",)


def sweep_ids() -> list[str]:
    """The experiments the sweep runs, in registry order."""
    from repro.experiments import all_experiment_ids

    return [e for e in all_experiment_ids() if e not in EXCLUDED]


def _peak_rss_mb() -> float:
    status = Path("/proc/self/status").read_text()
    hwm = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
    return int(hwm.group(1)) / 1024 if hwm else 0.0


def _record(r: Any) -> dict[str, Any]:
    return {"id": r.experiment_id, "status": r.status, "wall_s": r.wall_s,
            "error": r.error}


def _sweep(ids: list[str], speed: HostSpeed) -> dict[str, Any]:
    from repro.runner import run_experiments

    done_s: dict[str, float] = {}
    t0 = time.perf_counter()
    manifest = run_experiments(
        ids, "quick", jobs=1,
        on_record=lambda r: done_s.setdefault(
            r.experiment_id, time.perf_counter() - t0
        ),
    )
    wall_s = time.perf_counter() - t0
    records = []
    for r in manifest.records:
        done = done_s[r.experiment_id]
        records.append({**_record(r), "done_s": done,
                        "done_slowdown": speed.slowdown(t0, t0 + done)})
    return {"wall_s": wall_s, "slowdown": speed.slowdown(t0, t0 + wall_s),
            "records": records}


def _paired(ids: list[str], speed: HostSpeed) -> dict[str, Any]:
    from benchlib.tracing import Tracer, install_engines
    from repro.runner import run_experiments

    tracer = Tracer()
    records, pairs = [], []
    for i, eid in enumerate(ids):
        pair: dict[str, Any] = {"id": eid}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            uninstall = install_engines(tracer) if traced else None
            t0 = time.perf_counter()
            try:
                (record,) = run_experiments([eid], "quick", jobs=1).records
            finally:
                if uninstall is not None:
                    uninstall()
            t1 = time.perf_counter()
            side = "traced" if traced else "untraced"
            pair[f"{side}_s"] = t1 - t0
            pair[f"{side}_slowdown"] = speed.slowdown(t0, t1)
            records.append(_record(record))
        pairs.append(pair)
    return {"records": records, "pairs": pairs, "layers": tracer.layers}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro.runner  # noqa: F401  (set-up: the runner and registry)

    ids = sweep_ids()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    with HostSpeed() as speed:
        out = (_paired if args.trace else _sweep)(ids, speed)
    print(json.dumps({"ids": ids, **out, "peak_rss_mb": _peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
