"""Shard worker bodies for the provisioning service.

:func:`execute_query` is the module-level (picklable) entry point a
shard process runs for one solo query; :func:`execute_batch` answers a
whole coalesced batch with **one** :class:`~repro.network.fleet_engine.
FleetEngine` call, returning one response per lane in order.  A solo
fault-free provision query is a fleet of one, so every fault-free
engine is built in one place, by the fleet, which routes each lane to
its fastest engine: a path batch of 3+ lanes (or a finite-buffer tree
batch of 4+) shares the height matrix, while a narrower batch, or a
tree batch TreeEngine's sparse loop can run, gets dedicated engines.
Only a query under a fault plan builds its own engine, because
``run_with_recovery`` steps it between snapshots.  Every body takes
the query's :class:`~repro.network.topology.Topology` from
:func:`~repro.service.protocol.resolve_topology`, which resolves each
spec once per process.

Neither body raises for in-simulation failures — those come back as
an ``{"error": ...}`` payload so the front end can distinguish "this
query is bad" (no retry, don't charge the shard's breaker) from "this
shard died/hung" (retry elsewhere, charge the breaker).  A batch adds
one more distinction: a single *poisoned lane* yields an ``error``
payload **for that lane alone** — its batchmates still get real
answers (fleet construction/run failures fall back to solo per-lane
execution, each isolated).  Crashes and hangs, of course, don't return
at all — that's the failure surface the pool's deadlines, breakers,
and healing exist for, and exactly what the chaos stubs
(:mod:`repro.runner.chaos`) inject when routed through the
``"experiment"`` query kind.

:func:`warm_worker` is the warm-up body ``ShardPool.warm_up()`` runs
in every freshly spawned worker: it pre-imports numpy and the engine
stack and answers a throwaway batch on each fleet route (a 3-lane
path batch on the matrix, a 1-lane tree batch on a TreeEngine), so
the first real batch never pays the import/allocation latency spike
inside its deadline.
"""

from __future__ import annotations

import os
import time
from typing import Any

from .protocol import (
    RESPONSE_SCHEMA,
    ProvisionQuery,
    analytic_bound,
    resolve_topology,
)

__all__ = ["execute_query", "execute_batch", "warm_worker"]


def _ensure_chaos_registered(experiment_id: str) -> None:
    """Self-install the chaos stubs in this worker process when opted in.

    The parent registers them via :func:`repro.runner.chaos.install`,
    but a spawned (rather than forked) worker would not inherit the
    in-memory registry — the environment variable is the cross-process
    opt-in either way.
    """
    from ..runner import chaos

    if (
        experiment_id in {cls.id for cls in chaos.CHAOS_EXPERIMENTS}
        and os.environ.get(chaos.ENV_CHAOS_DIR)
        and experiment_id not in chaos.EXPERIMENTS
    ):
        chaos.install(os.environ[chaos.ENV_CHAOS_DIR])


def _run_experiment(query: ProvisionQuery) -> dict[str, Any]:
    from ..experiments import get_experiment

    assert query.experiment is not None
    _ensure_chaos_registered(query.experiment)
    result = get_experiment(query.experiment).run(query.preset)
    return {
        "schema": RESPONSE_SCHEMA,
        "kind": "experiment",
        "query": query.canonical(),
        "cache_key": query.cache_key(),
        "experiment": query.experiment,
        "preset": query.preset,
        "passed": bool(result.passed),
        "headers": result.headers,
        "rows": result.rows,
        "degraded": False,
    }


def _steps(query: ProvisionQuery) -> int:
    from ..analysis.occupancy import default_step_budget

    return default_step_budget(query.n) if query.steps is None else query.steps


def _run_faulted(query: ProvisionQuery) -> dict[str, Any]:
    """A provision query under a fault plan, on its own engine.

    ``run_with_recovery`` steps the engine one round at a time between
    snapshots, which a fleet does not offer; every fault-free provision
    query goes through :func:`_run_fleet_lanes` instead.
    """
    from ..cli import _make_adversary
    from ..network.engine_fast import PathEngine
    from ..network.faults import FaultPlan, run_with_recovery
    from ..network.tree_engine import TreeEngine
    from ..policies import make_policy

    steps = _steps(query)
    topology, _ = resolve_topology(query.topology)
    policy = make_policy(query.policy)
    adversary = _make_adversary(query.adversary, query.seed)
    kwargs: dict[str, Any] = dict(
        decision_timing=query.decision_timing,
        buffer_capacity=query.buffer_capacity,
        overflow=query.overflow,
        faults=FaultPlan.from_dict(query.faults),
    )
    if topology.is_canonical_path:
        engine: Any = PathEngine(topology.n, policy, adversary, **kwargs)
    else:
        engine = TreeEngine(topology, policy, adversary, **kwargs)
    run_with_recovery(engine, steps, snapshot_every=max(1, steps // 8))
    return _provision_response(query, steps, engine.result())


def _parse_worker_dict(worker_dict: dict[str, Any]) -> ProvisionQuery:
    """Re-validate a worker dict into a query (None means 'omitted')."""
    return ProvisionQuery.from_dict(
        {
            k: v
            for k, v in worker_dict.items()
            if v is not None or k in ("steps", "buffer_capacity")
        }
    )


def execute_query(worker_dict: dict[str, Any]) -> dict[str, Any]:
    """Run one validated query to completion inside a shard process.

    Returns either a response document or ``{"error": message}``;
    deterministic failures never raise across the process boundary.
    """
    t0 = time.perf_counter()
    try:
        query = _parse_worker_dict(worker_dict)
        if query.kind == "experiment":
            response = _run_experiment(query)
        elif query.faults:
            response = _run_faulted(query)
        else:
            (response,) = _run_fleet_lanes([query])
    except BaseException as err:
        if isinstance(err, (KeyboardInterrupt, SystemExit)):
            raise
        return {"error": f"{type(err).__name__}: {err}"}
    response["compute_s"] = round(time.perf_counter() - t0, 4)
    return response


def _provision_response(
    query: ProvisionQuery, steps: int, result: Any
) -> dict[str, Any]:
    """A provision query's answer from its run's
    :class:`~repro.network.simulator.RunResult` (``compute_s`` is added
    by the caller — wall-clock is not part of the answer)."""
    return {
        "schema": RESPONSE_SCHEMA,
        "kind": "provision",
        "query": query.canonical(),
        "cache_key": query.cache_key(),
        "n": query.n,
        "steps": steps,
        # the provisioning answer: buffers of this size lose nothing
        "max_height": int(result.max_height),
        "argmax_node": int(result.argmax_node),
        "bound": analytic_bound(query),
        # ...and what a smaller buffer / faulty network actually lost
        "injected": int(result.injected),
        "delivered": int(result.delivered),
        "in_flight": int(result.in_flight),
        "dropped": int(result.dropped),
        "drops_by_cause": {
            str(c): int(k)
            for c, k in sorted(result.drops_by_cause.items())
        },
        "degraded": False,
    }


def _run_fleet_lanes(
    queries: list[ProvisionQuery],
) -> list[dict[str, Any]]:
    """Answer coalesced provision queries with one FleetEngine call.

    Every query must share the batch key's facts (topology, policy,
    adversary family, decision timing, overflow, buffer capacity);
    per-lane steps and seeds are heterogeneous and served through
    :meth:`~repro.network.fleet_engine.FleetEngine.run_horizons`.
    """
    from ..cli import _make_adversary
    from ..network.fleet_engine import FleetEngine
    from ..policies import make_policy
    from .protocol import ServiceError

    head = queries[0]
    for q in queries[1:]:
        if (
            q.topology_sha != head.topology_sha
            or q.policy != head.policy
            or q.adversary != head.adversary
            or q.decision_timing != head.decision_timing
            or q.overflow != head.overflow
            or q.buffer_capacity != head.buffer_capacity
        ):
            raise ServiceError(
                "batch mixes incompatible lanes (batch keys disagree)"
            )
    horizons = [_steps(q) for q in queries]
    adversaries = [_make_adversary(q.adversary, q.seed) for q in queries]
    topology, _ = resolve_topology(head.topology)
    fleet = FleetEngine(
        topology,
        make_policy(head.policy),
        adversaries,
        decision_timing=head.decision_timing,  # type: ignore[arg-type]
        buffer_capacity=head.buffer_capacity,
        overflow=head.overflow,
    )
    results = fleet.run_horizons(horizons)
    return [
        _provision_response(q, steps, res)
        for q, steps, res in zip(queries, horizons, results)
    ]


def execute_batch(
    worker_dicts: list[dict[str, Any]],
) -> list[dict[str, Any]]:
    """Run one coalesced batch inside a shard process.

    Returns exactly one response document (or ``{"error": message}``)
    per input lane, in order.  Failure isolation: a lane that cannot
    even be parsed errors alone; if the shared fleet construction or
    run fails, every lane is re-run solo so a poisoned lane's error is
    charged to that lane only and its batchmates still get real,
    bit-identical answers.
    """
    t0 = time.perf_counter()
    out: list[dict[str, Any] | None] = [None] * len(worker_dicts)
    lanes: list[tuple[int, ProvisionQuery]] = []
    solo: list[int] = []
    for i, wd in enumerate(worker_dicts):
        try:
            query = _parse_worker_dict(wd)
        except BaseException as err:
            if isinstance(err, (KeyboardInterrupt, SystemExit)):
                raise
            out[i] = {"error": f"{type(err).__name__}: {err}"}
            continue
        # defensive: the batcher never sends experiment/fault queries,
        # but a batch must answer whatever it was handed — solo path
        if query.kind != "provision" or query.faults is not None:
            solo.append(i)
        else:
            lanes.append((i, query))
    if lanes:
        try:
            responses = _run_fleet_lanes([q for _, q in lanes])
        except BaseException as err:
            if isinstance(err, (KeyboardInterrupt, SystemExit)):
                raise
            # poisoned-lane isolation: settle every lane individually
            solo.extend(i for i, _ in lanes)
            solo.sort()
        else:
            for (i, _), response in zip(lanes, responses):
                out[i] = response
    for i in solo:
        out[i] = execute_query(worker_dicts[i])
    compute_s = round(time.perf_counter() - t0, 4)
    done: list[dict[str, Any]] = []
    for response in out:
        assert response is not None  # every index settled above
        response.setdefault("compute_s", compute_s)
        done.append(response)
    return done


def warm_worker() -> int:
    """Pre-pay the import/JIT cost in a fresh shard worker.

    Answers two throwaway batches, one per fleet route: a 3-lane path
    batch (the height-matrix kernel) and a 1-lane tree batch (a
    dedicated TreeEngine), so the first real batch a worker serves
    starts hot whichever route it takes.  Returns the worker's PID
    (handy for tests asserting the warm-up actually ran in the worker
    process).
    """
    for spec, lanes in (("path:8", 3), ("binary:3", 1)):
        execute_batch(
            [
                ProvisionQuery.from_dict(
                    {"topology": spec, "steps": 4, "seed": seed}
                ).to_worker_dict()
                for seed in range(lanes)
            ]
        )
    return os.getpid()
