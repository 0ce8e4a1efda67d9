#!/usr/bin/env python3
"""End-to-end benchmark of ``repro serve`` and the quick reproduction sweep.

    python3 perfbench/run.py --workload miss-stream --seed 1 \\
        --seconds 15 --trace 0

Service workloads (``miss-stream``, ``engine-mix``, ``hot-cache``)
drive a real ``repro serve`` subprocess (default config, ephemeral
port, a fresh cache directory) from this one process with a closed
loop of two clients.  ``sweep`` runs the quick preset (without E15)
with ``jobs=1`` in a fresh interpreter.  Every answer is checked.
``BENCHMARK.json`` gates ``miss-stream``, ``engine-mix`` and ``sweep``;
``hot-cache`` runs by hand (README, "Workloads").

Timings are reported at the reference host speed: a thread samples
how fast the CPU runs while each figure is measured and the figure is
scaled by it (``benchlib/hostspeed.py``); the raw figures are printed
beside them.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced measurements and prints
the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the exit status is 1 when any output check
fails and 2 when the program under test is missing.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from benchlib import stats  # noqa: E402
from benchlib.client import Outcome, closed_loop, get_json  # noqa: E402
from benchlib.hostspeed import HostSpeed, at_reference  # noqa: E402
from benchlib.server import ServerProcess  # noqa: E402
from benchlib.tracing import (  # noqa: E402
    ENGINE_LAYERS,
    engine_metrics,
    service_metrics,
)
from benchlib.workloads import (  # noqa: E402
    KNOWN_DEFECT_ERROR,
    SERVICE_WORKLOADS,
    EngineMix,
)
from sweep_child import EXCLUDED, sweep_ids  # noqa: E402

WORKLOADS = (*SERVICE_WORKLOADS, "sweep")
CLIENTS = 2  # nproc on the reference host; see README "What is not measured"
SETUP_BOOTS = 3  # setup_s is the median of this many cold starts
WARMUP_S = 1.0
RECHECK_SAMPLE = 8  # fresh answers recomputed in-process per run
TRACE_PAIRS = 3  # alternating untraced/traced windows in a traced run
#: a request's latency is scaled by the host slowdown sampled from this
#: long before it was sent until this long after it was answered
LOCAL_S = 0.5
#: How much each workload's rate moves per unit of the host-speed
#: loop's (README, "Host speed"): the slope of log(raw rate) on
#: log(burst ratio) over 40 runs each on the reference host
#: (correlations 0.88-0.94).  hot-cache is not fitted.  Boots
#: (setup_s) follow the loop itself: slopes 0.93-1.01 over 120 boots.
ELASTICITY = {"miss-stream": 1.1, "engine-mix": 1.25, "hot-cache": 1.0,
              "sweep": 1.5}

END_TO_END = (
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
_SERVICE_LAYER_METRICS = (
    ("protocol.parse_ms_p50", "ms"),
    ("cache.get_ms_p50", "ms"),
    ("cache.get_ms_p90", "ms"),
    ("cache.hit_ratio", "fraction"),
    ("cache.put_ms_p50", "ms"),
    ("cache.put_ms_p90", "ms"),
    ("cache.entries_end", "count"),
    ("resilience.admission_shed", "count"),
    ("resilience.admission_pending_peak", "count"),
    ("batcher.wait_ms_p50", "ms"),
    ("batcher.occupancy_mean", "lanes"),
    ("batcher.solo_frac", "fraction"),
    ("batcher.flushes_window", "count"),
    ("batcher.flushes_size", "count"),
    ("batcher.flushes_deadline", "count"),
    ("shards.ipc_ms_p50", "ms"),
    ("shards.calls", "count"),
    ("shards.restarts", "count"),
    ("worker.compute_ms_p50", "ms"),
    ("worker.compute_ms_p90", "ms"),
    ("worker.lanes_per_call", "lanes"),
    ("app.self_ms_p50", "ms"),
)


def per_layer(experiment_ids: list[str]) -> tuple[tuple[str, str], ...]:
    """The per-layer metrics, with one ``runner.<id>_s`` per experiment
    the sweep runs (``sweep_child.sweep_ids``)."""
    return (
        *_SERVICE_LAYER_METRICS,
        *(
            (f"{layer}.{m}", unit)
            for layer, _, _ in ENGINE_LAYERS
            for m, unit in (("steps_per_s", "1/s"), ("busy_s", "s"))
        ),
        *((f"runner.{eid}_s", "s") for eid in experiment_ids),
        ("trace.qps_untraced", "1/s"),
        ("trace.qps_traced", "1/s"),
        ("trace.overhead_frac", "fraction"),
    )


def at_reference_units(
    values: dict[str, float], units: dict[str, str], slowdown: float
) -> dict[str, float]:
    """Per-layer timings (``ms``, ``s``, ``1/s``) at reference speed."""
    scale = {"ms": 1 / slowdown, "s": 1 / slowdown, "1/s": slowdown}
    return {k: v * scale.get(units.get(k, ""), 1.0)
            for k, v in values.items()}


# -- output checks ---------------------------------------------------------
class Checker:
    """Classifies every answer and records every check that fails.

    * each answer's ``cache_key`` equals the key of the query sent,
      except a degraded answer served from the nearest cached result,
      which carries that result's key;
    * a cache hit equals the first answer served for its key
      (``cached`` aside) — on the distinct-key workloads any hit fails;
    * a fixed sample of fresh answers equals an in-process
      :func:`repro.service.execute_query` recomputation
      (``compute_s`` aside), see :meth:`recompute_sample`;
    * ``pressure`` on a tree must answer the known-defect 422.
    """

    def __init__(self) -> None:
        from repro.service import ProvisionQuery

        self._parse = ProvisionQuery.from_dict
        self.errors: list[str] = []
        self.first: dict[str, dict[str, Any]] = {}
        self.fresh: list[Outcome] = []
        self._keys: dict[str, str] = {}

    def key(self, query: dict[str, Any]) -> str:
        text = json.dumps(query, sort_keys=True)
        if text not in self._keys:
            self._keys[text] = self._parse(query).cache_key()
        return self._keys[text]

    def classify(self, o: Outcome) -> str:
        """``ok``, ``degraded``, ``known_defect`` or ``failed``."""
        body = o.body()
        if (
            EngineMix.known_defect(o.query)
            and o.status == 422
            and KNOWN_DEFECT_ERROR in str(body.get("error"))
        ):
            return "known_defect"
        if o.status != 200:
            return "failed"
        key = self.key(o.query)
        # the analytic fallback measures nothing (max_height None) and
        # answers for this query; a nearest-cached one for another
        nearest = body.get("degraded") and body.get("max_height") is not None
        if body.get("cache_key") != key and not nearest:
            self.errors.append(
                f"request {o.index}: answer carries cache_key "
                f"{body.get('cache_key')!r}, query's key is {key!r}"
            )
            return "failed"
        if body.get("degraded"):
            return "degraded"
        if body.get("cached"):
            first = self.first.get(key)
            if first is None:
                self.errors.append(
                    f"request {o.index}: cache hit for a key this run "
                    "never stored"
                )
                return "failed"
            if _without(body, "cached") != _without(first, "cached"):
                self.errors.append(
                    f"request {o.index}: cache hit differs from the "
                    "first answer served for its key"
                )
                return "failed"
        else:
            self.first.setdefault(key, body)
            self.fresh.append(o)
        return "ok"

    def recompute_sample(self) -> int:
        """Recompute evenly spaced fresh answers in-process."""
        from repro.service import execute_query

        if not self.fresh:
            return 0
        step = max(1, len(self.fresh) // RECHECK_SAMPLE)
        sample = self.fresh[::step][:RECHECK_SAMPLE]
        for o in sample:
            want = execute_query(self._parse(o.query).to_worker_dict())
            got = _without(o.body(), "cached", "compute_s")
            if got != _without(want, "compute_s"):
                self.errors.append(
                    f"request {o.index}: served answer differs from an "
                    "in-process execute_query recomputation"
                )
        return len(sample)


def _without(doc: dict[str, Any], *keys: str) -> dict[str, Any]:
    return {k: v for k, v in doc.items() if k not in keys}


# -- service workloads -----------------------------------------------------
def _env(work: Path) -> dict[str, str]:
    """Child environment: the program on the path, temp files in ``work``."""
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": str(SRC) + (os.pathsep + path if path else ""),
        "TMPDIR": str(work),
    }


def _serve_argv(cache: Path, spans: Path | None = None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--cache-dir", str(cache)]
    return [sys.executable, str(HERE / "traced_serve.py"), "--port", "0",
            "--cache-dir", str(cache), "--spans", str(spans)]


def _boot(argv: list[str], work: Path) -> ServerProcess:
    return ServerProcess(argv, env=_env(work), cwd=str(work)).start()


def _populate(workload: Any, cache: Path, work: Path, checker: Checker) -> int:
    """Write the hot-cache working set through ``POST /provision``."""
    server = _boot(_serve_argv(cache), work)
    try:
        outcomes, _ = closed_loop(
            server.address, iter(workload.populate()), math.inf,
            clients=CLIENTS,
        )
    finally:
        server.stop()
    bad = [o for o in outcomes if checker.classify(o) != "ok"]
    if bad or len(outcomes) != workload.working_set:
        checker.errors.append(
            f"populate: {len(bad)} of {len(outcomes)} answers not ok"
        )
    return len(outcomes)


def _prepare_cache(
    workload: Any, cache: Path, work: Path, checker: Checker
) -> str:
    """An empty cache directory, or for ``hot-cache`` the working set
    written through ``POST /provision`` (the one interface every cache
    design keeps); then flush writeback so no run starts behind it."""
    note = "fresh cache directory"
    if workload.name == "hot-cache":
        n = _populate(workload, cache, work, checker)
        note = f"populated {n} working-set answers via POST /provision"
    os.sync()
    return note


class Measured:
    """One measured window of a service workload."""

    def __init__(
        self, outcomes: list[Outcome], window_s: float, since: float,
        checker: Checker, speed: HostSpeed, elasticity: float,
    ) -> None:
        self.outcomes = outcomes
        self.window_s = window_s
        self.since = since
        self.kinds = [checker.classify(o) for o in outcomes]
        self.elasticity = elasticity
        self.slowdown = speed.slowdown(since, since + window_s, elasticity)

    def count(self, kind: str) -> int:
        return self.kinds.count(kind)

    @property
    def qps_raw(self) -> float:
        return self.count("ok") / self.window_s

    @property
    def qps(self) -> float:
        """Answers per second at reference host speed."""
        return self.qps_raw * self.slowdown

    def latencies_s(self, speed: HostSpeed | None = None) -> list[float]:
        """Answered requests' latencies; failed ones rank worst (inf).

        With ``speed``, each latency is at reference speed, scaled by
        the slowdown around that request: the host's slow spells last
        seconds and land in the tail, which one factor for the whole
        window would leave there.
        """
        def scaled(o: Outcome) -> float:
            if speed is None:
                return o.latency_s
            t0, t1 = o.t_send - LOCAL_S, o.t_send + o.latency_s + LOCAL_S
            return at_reference(
                o.latency_s, speed.slowdown(t0, t1, self.elasticity)
            )

        return [
            scaled(o) if kind in ("ok", "degraded") else math.inf
            for o, kind in zip(self.outcomes, self.kinds)
        ]


class Target:
    """One server under test and the query stream it is sent."""

    def __init__(
        self, server: ServerProcess, stream: Iterator[Any], elasticity: float
    ) -> None:
        self.server = server
        self.stream = stream
        self.elasticity = elasticity
        self.sent = 0

    def load(self, seconds: float) -> tuple[list[Outcome], float, float]:
        since = time.perf_counter()
        outcomes, window = closed_loop(
            self.server.address, self.stream, seconds, clients=CLIENTS,
            first_index=self.sent,
        )
        self.sent += len(outcomes)
        return outcomes, window, since

    def warm_up(self, checker: Checker) -> None:
        for o in self.load(WARMUP_S)[0]:
            checker.classify(o)

    def measure(
        self, seconds: float, checker: Checker, speed: HostSpeed
    ) -> Measured:
        return Measured(*self.load(seconds), checker, speed, self.elasticity)


def _service_end_to_end(
    name: str, seed: int, seconds: float, work: Path, speed: HostSpeed
) -> tuple[dict[str, Any], list[str]]:
    workload = SERVICE_WORKLOADS[name](seed)
    checker = Checker()
    cache = work / "cache"
    notes = [f"{name}: closed loop, {CLIENTS} clients, {seconds:g}s "
             f"after {WARMUP_S:g}s warm-up",
             _prepare_cache(workload, cache, work, checker)]
    setups = []  # (raw seconds, slowdown over the boot)
    for boot in range(SETUP_BOOTS):
        t0 = time.perf_counter()
        server = _boot(_serve_argv(cache), work)
        setup_s = server.setup_s
        setups.append((setup_s, speed.slowdown(t0, t0 + setup_s)))
        if boot < SETUP_BOOTS - 1:
            server.stop()
    try:
        target = Target(server, workload.stream(), ELASTICITY[name])
        target.warm_up(checker)
        run = target.measure(seconds, checker, speed)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    rechecked = checker.recompute_sample()

    n = len(run.outcomes)
    lat, lat_ref = run.latencies_s(), run.latencies_s(speed)
    p50, p90 = stats.median(lat), stats.nearest_rank(lat, 90)
    p90_supported = stats.supported_percentile(n)
    cap = run.window_s  # a percentile on failures reads as the window
    setup_raw = statistics.median(s for s, _ in setups)
    metrics = {
        "qps": run.qps,
        "latency_p50_ms": min(stats.median(lat_ref), cap) * 1e3,
        "latency_p90_ms": min(stats.nearest_rank(lat_ref, 90), cap) * 1e3,
        "ok_frac": run.count("ok") / n,
        "setup_s": statistics.median(at_reference(*s) for s in setups),
        "peak_rss_mb": rss,
    }
    failed = run.count("failed")
    non_200 = sum(o.status != 200 for o in run.outcomes)
    notes += [
        f"attempted {n}, ok {run.count('ok')}, degraded "
        f"{run.count('degraded')}, known-defect 422 "
        f"{run.count('known_defect')}, other failures {failed}",
        f"failed_frac {non_200 / n:.4f} fraction (non-200 / attempted, "
        f"n={n}); degraded_frac {run.count('degraded') / n:.4f} fraction",
        f"latency samples n={n}; p90 has {n - math.ceil(0.9 * n)} beyond "
        + ("(meets the ten-beyond rule)" if p90_supported == 90 else
           f"(ten-beyond rule supports only p{p90_supported})"),
        f"host slowdown {run.slowdown:.3f} over the window; raw: qps "
        f"{run.qps_raw:.4f} 1/s, latency_p50 {min(p50, cap) * 1e3:.4f} ms, "
        f"latency_p90 {min(p90, cap) * 1e3:.4f} ms, setup {setup_raw:.4f} s",
        "setup_s boots (raw s / slowdown): " + ", ".join(
            f"{s:.3f}/{f:.2f}" for s, f in setups
        ),
        "peak_rss_mb is server_rss_mb: VmHWM of repro serve + shard "
        "workers",
        f"recomputed {rechecked} fresh answers in-process; "
        f"{len(checker.errors)} check failures",
    ]
    result = {
        "correct": not checker.errors,
        "attempted": n,
        "failed": failed + run.count("degraded"),
        "metrics": metrics,
    }
    return result, notes + checker.errors[:20]


def _service_per_layer(
    name: str, seed: int, seconds: float, work: Path, speed: HostSpeed
) -> tuple[dict[str, Any], list[str]]:
    """Untraced and traced servers side by side, measured in
    alternating windows; the traced one's spans give the layers."""
    workload = SERVICE_WORKLOADS[name](seed)
    checker = Checker()
    cache_untraced, cache_traced = work / "cache", work / "cache-traced"
    _prepare_cache(workload, cache_untraced, work, checker)
    if cache_untraced.exists():  # hot-cache: one populated working set
        shutil.copytree(cache_untraced, cache_traced)
    spans = work / "spans.json"
    # both replay the same query sequence
    untraced = Target(_boot(_serve_argv(cache_untraced), work),
                      workload.stream(), ELASTICITY[name])
    windows: dict[bool, list[Measured]] = {False: [], True: []}
    try:
        traced = Target(_boot(_serve_argv(cache_traced, spans), work),
                        workload.stream(), ELASTICITY[name])
        try:
            untraced.warm_up(checker)
            traced.warm_up(checker)
            for i in range(TRACE_PAIRS):
                for side in (False, True) if i % 2 == 0 else (True, False):
                    target = traced if side else untraced
                    windows[side].append(
                        target.measure(seconds / TRACE_PAIRS, checker, speed)
                    )
            _, server_stats = get_json(traced.server.address, "/stats")
        finally:
            traced.server.stop()
    finally:
        untraced.server.stop()
    trace = json.loads(spans.read_text())
    client = [
        (checker.key(o.query), o.t_send, o.latency_s)
        for w in windows[True]
        for o in w.outcomes
        if o.status
    ]
    slowdown = statistics.mean(w.slowdown for w in windows[True])
    overheads = [
        1.0 - t.qps / u.qps for u, t in zip(windows[False], windows[True])
    ]
    layer_values = {
        **service_metrics(trace, client, server_stats,
                          windows[True][0].since),
        **engine_metrics(trace["layers"]),
    }
    metrics = {
        **at_reference_units(layer_values, dict(per_layer([])), slowdown),
        "trace.qps_untraced": statistics.median(w.qps for w in windows[False]),
        "trace.qps_traced": statistics.median(w.qps for w in windows[True]),
        "trace.overhead_frac": statistics.median(overheads),
    }
    checker.recompute_sample()
    errors = checker.errors
    n = sum(len(w.outcomes) for w in windows[True])
    notes = [
        f"{name}: {TRACE_PAIRS} pairs of untraced/traced windows of "
        f"{seconds / TRACE_PAIRS:g}s, closed loop of {CLIENTS} clients",
        "tracing overhead per pair (qps at reference speed): " + ", ".join(
            f"{u.qps:.2f} vs {t.qps:.2f} ({o:+.1%})"
            for u, t, o in zip(windows[False], windows[True], overheads)
        ) + f"; median {metrics['trace.overhead_frac']:+.1%}"
        + _unresolved(metrics["trace.overhead_frac"], overheads),
        f"host slowdown over the traced windows {slowdown:.3f}; layer "
        "timings scaled by it",
        f"engine layers include the {WARMUP_S:g}s warm-up",
    ]
    result = {
        "correct": not errors,
        "attempted": n,
        "failed": sum(w.count("failed") + w.count("degraded")
                      for w in windows[True]),
        "metrics": metrics,
    }
    return result, notes + errors[:20]


def _unresolved(overhead: float, pairs: list[float]) -> str:
    """A note when ``overhead`` is within the spread of the pairs'."""
    q1, _, q3 = statistics.quantiles(pairs, n=4)
    if abs(overhead) < q3 - q1:
        return (f" (unresolved: smaller than the pairs' spread "
                f"{q3 - q1:.1%})")
    return ""


# -- the sweep ---------------------------------------------------------------
def _ok(records: list[dict[str, Any]]) -> int:
    return sum(r["status"] == "ok" for r in records)


def _sweep_child(
    work: Path, speed: HostSpeed, *args: str
) -> tuple[float, float, dict[str, Any]]:
    """Spawn ``sweep_child.py``; return the spawn → ready seconds, the
    host slowdown over them, and the child's result."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "sweep_child.py"), *args],
        cwd=str(work), env=_env(work), stdout=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout is not None
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out = proc.stdout.read()
    finally:
        code = proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"sweep child failed (exit {code})")
    lines = out.strip().splitlines()
    return (setup_s, speed.slowdown(t0, t0 + setup_s),
            json.loads(lines[-1]) if lines else {})


def _sweep_end_to_end(
    seed: int, seconds: float, work: Path, speed: HostSpeed
) -> tuple[dict[str, Any], list[str]]:
    setups = [_sweep_child(work, speed, "--setup-only")[:2]
              for _ in range(SETUP_BOOTS - 1)]
    *setup, sweep = _sweep_child(work, speed, "--trace", "0")
    setups.append(tuple(setup))
    records = sweep["records"]
    ok = _ok(records)
    e = ELASTICITY["sweep"]
    # the sweep is a batch of experiment requests issued at once, each
    # answered when its record lands: latency = completion time
    lat = [
        at_reference(r["done_s"], r["done_slowdown"] ** e)
        if r["status"] == "ok" else math.inf
        for r in records
    ]
    n = len(records)
    p90 = stats.nearest_rank(lat, 90)
    p90_supported = stats.supported_percentile(n)
    slowdown = sweep["slowdown"] ** e
    sweep_s = at_reference(sweep["wall_s"], slowdown)
    metrics = {
        "qps": ok / sweep_s,
        "latency_p50_ms": min(stats.median(lat), sweep_s) * 1e3,
        "latency_p90_ms": min(p90, sweep_s) * 1e3,
        "ok_frac": ok / n,
        "setup_s": statistics.median(at_reference(*s) for s in setups),
        "peak_rss_mb": sweep["peak_rss_mb"],
    }
    errors = [
        f"{r['id']}: status {r['status']} {r.get('error') or ''}".strip()
        for r in records if r["status"] != "ok"
    ]
    notes = [
        f"sweep: quick preset without {', '.join(EXCLUDED)}, {n} "
        "experiments, jobs=1, in-process",
        f"sweep_s {sweep_s:.3f} s at reference speed (raw "
        f"{sweep['wall_s']:.3f} s, host slowdown {slowdown:.3f}); "
        "qps is experiments per second",
        f"latency = time from sweep start until an experiment's record "
        f"lands, n={n}; p90 has {n - math.ceil(0.9 * n)} "
        "beyond (ten-beyond rule supports "
        + ("no percentile)" if p90_supported is None
           else f"p{p90_supported:g})"),
        "setup_s: spawn → runner and registry imported (raw s / "
        "slowdown): " + ", ".join(f"{s:.3f}/{f:.2f}" for s, f in setups),
        "per experiment (raw): " + " ".join(
            f"{r['id']}={r['wall_s']:.2f}s" for r in records
        ),
    ]
    seed_note = f"seed {seed} unused: the quick preset is fixed"
    result = {
        "correct": not errors,
        "attempted": n,
        "failed": n - ok,
        "metrics": metrics,
    }
    return result, [*notes, seed_note, *errors]


def _sweep_per_layer(
    seed: int, seconds: float, work: Path, speed: HostSpeed
) -> tuple[dict[str, Any], list[str]]:
    _, _, sweep = _sweep_child(work, speed, "--trace", "1")
    records, pairs = sweep["records"], sweep["pairs"]
    untraced_s = sum(p["untraced_s"] for p in pairs)
    traced_s = sum(p["traced_s"] for p in pairs)
    e = ELASTICITY["sweep"]
    untraced_ref = sum(
        at_reference(p["untraced_s"], p["untraced_slowdown"] ** e)
        for p in pairs
    )
    traced_ref = sum(
        at_reference(p["traced_s"], p["traced_slowdown"] ** e) for p in pairs
    )
    slowdown = traced_s / traced_ref
    layer_values = {
        **engine_metrics(sweep["layers"]),
        **{f"runner.{p['id']}_s": p["traced_s"] for p in pairs},
    }
    metrics = {
        **at_reference_units(layer_values, dict(per_layer(sweep["ids"])),
                             slowdown),
        "trace.qps_untraced": len(pairs) / untraced_ref,
        "trace.qps_traced": len(pairs) / traced_ref,
        "trace.overhead_frac": 1.0 - untraced_ref / traced_ref,
    }
    long_pairs = [  # experiments of 1 s and more time reliably
        1.0 - p["untraced_s"] / p["traced_s"]
        for p in pairs if p["untraced_s"] >= 1.0
    ]
    errors = [f"{r['id']}: status {r['status']}"
              for r in records if r["status"] != "ok"]
    notes = [
        f"sweep: each of {len(pairs)} experiments run untraced and traced "
        "back to back, alternating which goes first",
        f"at reference speed: untraced {untraced_ref:.2f}s, traced "
        f"{traced_ref:.2f}s ({metrics['trace.overhead_frac']:+.1%} "
        f"experiments/s); raw {untraced_s:.2f}s / {traced_s:.2f}s"
        + _unresolved(metrics["trace.overhead_frac"], long_pairs),
        f"host slowdown over the traced runs {slowdown:.3f}; layer "
        "timings scaled by it",
    ]
    result = {
        "correct": not errors,
        "attempted": len(records),
        "failed": len(records) - _ok(records),
        "metrics": metrics,
    }
    return result, notes + errors


# -- entry point -----------------------------------------------------------
def _with_units(
    values: dict[str, float], declared: tuple[tuple[str, str], ...]
) -> dict[str, dict[str, Any]]:
    """Every declared metric, in order; 0 for a layer never called."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0] if __doc__ else None
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with HostSpeed() as speed:
            if args.workload == "sweep":
                run = _sweep_per_layer if args.trace else _sweep_end_to_end
                result, notes = run(args.seed, args.seconds, work, speed)
            else:
                run = (_service_per_layer if args.trace
                       else _service_end_to_end)
                result, notes = run(args.workload, args.seed, args.seconds,
                                    work, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = per_layer(sweep_ids()) if args.trace else END_TO_END
    result["metrics"] = _with_units(result["metrics"], declared)
    for line in notes:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name:<36} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
