"""Cross-run parity: FleetEngine vs per-run PathEngine/TreeEngine.

The :class:`~repro.network.fleet_engine.FleetEngine` advances a whole
ensemble of runs as one ``(runs, n)`` height matrix.  The contract is
that the matrix is *nothing but* ``runs`` independent engines in
lockstep: every row must stay bit-identical to a dedicated
PathEngine/TreeEngine stepping the same configuration — across overflow
disciplines, finite buffers, fault plans, decision timings, and mixed
vectorised/fallback lanes (adaptive adversaries drop to per-run
stepping inside the same fleet).  ``run_fleet`` results must agree
field-for-field with ``engine.result()`` (excluding ``delay_summary``,
whose NaN sentinels break ``==``).
"""

from __future__ import annotations

import copy
import dataclasses

from hypothesis import given, settings, strategies as st

from repro.adversaries import ScheduleAdversary, SeesawAdversary
from repro.network.buffers import Overflow
from repro.network.engine_fast import PathEngine
from repro.network.faults import FaultEvent, FaultKind, FaultPlan
from repro.network.fleet_engine import MIN_MATRIX_LANES_TREE, FleetEngine
from repro.network.simulator import RunResult
from repro.network.topology import from_parent_array
from repro.network.tree_engine import TreeEngine
from repro.policies import GreedyPolicy, OddEvenPolicy, TreeOddEvenPolicy

TIMINGS = st.sampled_from(["pre_injection", "post_injection"])

# everything except delay_summary: the height-only engines publish a
# NaN-filled sentinel there, and NaN != NaN poisons whole-result ==
_FIELDS = [
    f.name for f in dataclasses.fields(RunResult)
    if f.name != "delay_summary"
]


def assert_results_match(fleet_result, engine_result):
    for name in _FIELDS:
        assert getattr(fleet_result, name) == getattr(engine_result, name), (
            name, fleet_result, engine_result
        )


def schedule_adversary(draw, n, steps, sink):
    sites = [v for v in range(n) if v != sink]
    sched = draw(
        st.lists(
            st.one_of(st.none(), st.sampled_from(sites)),
            min_size=steps, max_size=steps,
        )
    )
    return ScheduleAdversary(
        {i: (s,) for i, s in enumerate(sched) if s is not None}
    )


@st.composite
def fault_plan(draw, n, steps):
    """A small non-halting fault plan (same shape as the tree parity
    suite uses)."""
    events = draw(
        st.lists(
            st.builds(
                FaultEvent,
                kind=st.sampled_from(
                    [FaultKind.LINK_DOWN, FaultKind.CRASH, FaultKind.JITTER]
                ),
                start=st.integers(0, max(steps - 1, 0)),
                node=st.integers(0, n - 2),
                duration=st.integers(1, 4),
                wipe=st.booleans(),
                delay=st.integers(1, 3),
            ),
            max_size=3,
        )
    )
    return FaultPlan(events=tuple(events))


@st.composite
def path_fleet(draw, with_faults=False):
    n = draw(st.integers(3, 12))
    runs = draw(st.integers(1, 4))
    steps = draw(st.integers(1, 30))
    advs = [schedule_adversary(draw, n, steps, sink=n - 1)
            for _ in range(runs)]
    policy_cls = draw(st.sampled_from([OddEvenPolicy, GreedyPolicy]))
    timing = draw(TIMINGS)
    limits = draw(
        st.lists(st.integers(1, 3), min_size=runs, max_size=runs)
    )
    kw = {}
    if draw(st.booleans()):
        kw["buffer_capacity"] = draw(st.integers(1, 3))
        kw["overflow"] = draw(st.sampled_from(list(Overflow)))
    if with_faults:
        kw["faults"] = [draw(fault_plan(n, steps)) for _ in range(runs)]
    return n, runs, steps, advs, policy_cls, timing, limits, kw


def _lockstep_path(n, runs, steps, advs, policy_cls, timing, limits, kw):
    fleet = FleetEngine(
        n, policy_cls(), advs, injection_limit=limits,
        decision_timing=timing, validate=True, **kw,
    )
    faults = kw.pop("faults", None)
    engines = [
        PathEngine(
            n, policy_cls(), copy.deepcopy(advs[r]), injection_limit=limits[r],
            decision_timing=timing, validate=True,
            faults=faults[r] if faults is not None else None, **kw,
        )
        for r in range(runs)
    ]
    for _ in range(steps):
        fleet.run(1)
        for eng in engines:
            eng.step()
        for r, eng in enumerate(engines):
            assert (fleet.heights[r] == eng.heights).all(), (r, fleet.heights)
    fleet.assert_conservation()
    fleet.assert_capacity()
    for r, eng in enumerate(engines):
        assert_results_match(fleet.result(r), eng.result())


@given(path_fleet())
@settings(max_examples=50, deadline=None)
def test_fleet_matches_path_engines(cfg):
    """Vectorised path lanes == dedicated PathEngines, step by step,
    across finite buffers and all overflow disciplines."""
    _lockstep_path(*cfg)


@given(path_fleet(with_faults=True))
@settings(max_examples=40, deadline=None)
def test_fleet_matches_path_engines_under_faults(cfg):
    """Per-run fault overlays (outages, crashes, jitter) hit each fleet
    row exactly as they hit a dedicated engine."""
    _lockstep_path(*cfg)


@given(path_fleet())
@settings(max_examples=30, deadline=None)
def test_mixed_vectorised_and_fallback_lanes(cfg):
    """An adaptive adversary (no publishable schedule) drops its lane
    to per-run stepping without disturbing the vectorised rows."""
    n, runs, steps, advs, policy_cls, timing, limits, kw = cfg
    advs = list(advs) + [SeesawAdversary()]
    limits = list(limits) + [1]
    if "faults" in kw:
        kw["faults"] = list(kw["faults"]) + [None]
    fleet = FleetEngine(
        n, policy_cls(), advs, injection_limit=limits,
        decision_timing=timing, validate=True, **kw,
    )
    assert runs in fleet.fallback_runs
    _lockstep_path(n, runs + 1, steps, advs, policy_cls, timing, limits, kw)


@st.composite
def tree_fleet(draw):
    n = draw(st.integers(3, 12))
    parents = [-1] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    topo = from_parent_array(parents)
    runs = draw(st.integers(1, 6))
    steps = draw(st.integers(1, 25))
    advs = [schedule_adversary(draw, n, steps, sink=topo.sink)
            for _ in range(runs)]
    tie = draw(st.sampled_from(["min_id", "max_id", "round_robin"]))
    timing = draw(TIMINGS)
    kw = {}
    if draw(st.booleans()):
        kw["buffer_capacity"] = draw(st.integers(1, 3))
        kw["overflow"] = draw(st.sampled_from(list(Overflow)))
    return topo, runs, steps, advs, tie, timing, kw


@given(tree_fleet())
@settings(max_examples=50, deadline=None)
def test_fleet_matches_tree_engines(cfg):
    """Vectorised tree lanes (flattened-forest sibling arbitration) ==
    dedicated TreeEngines on arbitrary random in-trees."""
    topo, runs, steps, advs, tie, timing, kw = cfg
    fleet = FleetEngine(
        topo, TreeOddEvenPolicy(tie_rule=tie), advs,
        decision_timing=timing, validate=True, **kw,
    )
    # validate=True (which the sparse loop cannot honour) keeps tree
    # fleets at the crossover width on the dense tree kernel, so this
    # suite stays its oracle; narrower fleets route to TreeEngines
    assert fleet.vectorized_runs == (
        tuple(range(runs)) if runs >= MIN_MATRIX_LANES_TREE else ()
    )
    engines = [
        TreeEngine(
            topo, TreeOddEvenPolicy(tie_rule=tie), copy.deepcopy(advs[r]),
            decision_timing=timing, validate=True, **kw,
        )
        for r in range(runs)
    ]
    for _ in range(steps):
        fleet.run(1)
        for eng in engines:
            eng.step()
        for r, eng in enumerate(engines):
            assert (fleet.heights[r] == eng.heights).all()
    fleet.assert_conservation()
    for r, eng in enumerate(engines):
        assert_results_match(fleet.result(r), eng.result())


@given(path_fleet())
@settings(max_examples=30, deadline=None)
def test_run_fleet_returns_per_run_results(cfg):
    """``run_fleet`` == running each lane's engine to the horizon."""
    n, runs, steps, advs, policy_cls, timing, limits, kw = cfg
    fleet = FleetEngine(
        n, policy_cls(), advs, injection_limit=limits,
        decision_timing=timing, **kw,
    )
    faults = kw.pop("faults", None)
    results = fleet.run_fleet(steps)
    assert len(results) == runs
    for r in range(runs):
        eng = PathEngine(
            n, policy_cls(), copy.deepcopy(advs[r]), injection_limit=limits[r],
            decision_timing=timing,
            faults=faults[r] if faults is not None else None, **kw,
        )
        eng.run(steps)
        assert_results_match(results[r], eng.result())
