"""Unit coverage for the cross-run FleetEngine.

The statistical contract (bit-parity with per-run engines across
overflow × faults × adversaries) lives in
``tests/property/test_fleet_parity.py``; this module pins the API
surface: construction validation, per-run broadcasting, lane
classification, checkpoint/snapshot round trips, the ``run_fleet``
result shape, and the fleet-backed ``worst_case_over_suite``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.adversaries import (
    FarEndAdversary,
    FixedNodeAdversary,
    ScheduleAdversary,
    SeesawAdversary,
    UniformRandomAdversary,
)
from repro.analysis.occupancy import measure_path, worst_case_over_suite
from repro.errors import SimulationError
from repro.network.engine_fast import PathEngine
from repro.network.faults import FaultEvent, FaultKind, FaultPlan
from repro.network.fleet_engine import (
    MIN_MATRIX_LANES_PATH,
    MIN_MATRIX_LANES_TREE,
    FleetEngine,
)
from repro.network.simulator import RunResult
from repro.network.topology import balanced_tree
from repro.policies import GreedyPolicy, OddEvenPolicy, TreeOddEvenPolicy

_FIELDS = [
    f.name for f in dataclasses.fields(RunResult)
    if f.name != "delay_summary"
]


def suite(n):
    return [
        FarEndAdversary(),
        FixedNodeAdversary(0),
        ScheduleAdversary({0: (1,), 2: (n - 2,)}),
    ]


# ------------------------------------------------------------------
# construction and validation


def test_int_topology_is_canonical_path():
    fleet = FleetEngine(8, OddEvenPolicy(), suite(8))
    assert fleet.n == 8
    assert fleet.sink == 7
    assert fleet.runs == 3
    assert fleet.heights.shape == (3, 8)


def test_empty_fleet_rejected():
    with pytest.raises(SimulationError):
        FleetEngine(8, OddEvenPolicy(), [])


def test_unknown_decision_timing_rejected():
    with pytest.raises(SimulationError):
        FleetEngine(8, OddEvenPolicy(), suite(8), decision_timing="mid")


def test_per_run_sequence_length_must_match_runs():
    with pytest.raises(SimulationError, match="injection_limit"):
        FleetEngine(8, OddEvenPolicy(), suite(8), injection_limit=[1, 2])
    with pytest.raises(SimulationError, match="faults"):
        FleetEngine(8, OddEvenPolicy(), suite(8), faults=[None])


def test_injection_limit_broadcast_and_per_run():
    fleet = FleetEngine(8, OddEvenPolicy(), suite(8), injection_limit=2)
    assert fleet.injection_limits == [2, 2, 2]
    fleet = FleetEngine(8, OddEvenPolicy(), suite(8),
                        injection_limit=[1, 2, 3])
    assert fleet.injection_limits == [1, 2, 3]
    # None lanes default to the uniform rate (= capacity)
    fleet = FleetEngine(8, OddEvenPolicy(), suite(8),
                        injection_limit=[None, 4, None])
    assert fleet.injection_limits == [1, 4, 1]


# ------------------------------------------------------------------
# lane classification


def test_deterministic_and_stochastic_lanes_vectorise():
    advs = [FarEndAdversary(), UniformRandomAdversary(p=0.5, seed=7), None]
    fleet = FleetEngine(8, OddEvenPolicy(), advs)
    assert fleet.vectorized_runs == (0, 1, 2)
    assert fleet.fallback_runs == ()


def test_adaptive_adversary_falls_back():
    advs = [FarEndAdversary(), SeesawAdversary(), FixedNodeAdversary(0),
            FixedNodeAdversary(3)]
    fleet = FleetEngine(8, OddEvenPolicy(), advs)
    assert fleet.vectorized_runs == (0, 2, 3)
    assert fleet.fallback_runs == (1,)


# ------------------------------------------------------------------
# lane routing: a dedicated engine wherever it beats the matrix


def test_lone_batchable_lane_runs_on_a_dedicated_engine():
    fleet = FleetEngine(8, OddEvenPolicy(), [FarEndAdversary()])
    assert fleet.vectorized_runs == ()
    assert isinstance(fleet._engines[0], PathEngine)
    # one batchable lane beside an adaptive one is still alone
    fleet = FleetEngine(8, OddEvenPolicy(), [FarEndAdversary(),
                                             SeesawAdversary()])
    assert fleet.vectorized_runs == ()
    assert fleet.fallback_runs == (0, 1)


def test_path_matrix_starts_at_its_crossover():
    def lanes(k):
        return [FixedNodeAdversary(i) for i in range(k)]

    k = MIN_MATRIX_LANES_PATH
    below = FleetEngine(8, OddEvenPolicy(), lanes(k - 1) + [SeesawAdversary()])
    assert below.vectorized_runs == ()
    assert all(isinstance(e, PathEngine) for e in below._engines.values())
    at = FleetEngine(8, OddEvenPolicy(), lanes(k))
    assert at.vectorized_runs == tuple(range(k))


def test_sparse_eligible_tree_lanes_run_on_tree_engines():
    from repro.network.tree_engine import TreeEngine

    fleet = FleetEngine(balanced_tree(2, 4), TreeOddEvenPolicy(),
                        [FarEndAdversary(), FixedNodeAdversary(3)])
    assert fleet.vectorized_runs == ()
    assert all(isinstance(fleet._engines[r], TreeEngine) for r in (0, 1))


def test_finite_buffer_tree_lanes_stay_on_the_matrix():
    def lanes(k):
        return [FarEndAdversary()] + [FixedNodeAdversary(3 + i)
                                      for i in range(k - 1)]

    k = MIN_MATRIX_LANES_TREE
    fleet = FleetEngine(balanced_tree(2, 4), TreeOddEvenPolicy(),
                        lanes(k), buffer_capacity=2)
    assert fleet.vectorized_runs == tuple(range(k))
    assert fleet.fallback_runs == ()
    # below the tree crossover the same lanes get TreeEngines
    fleet = FleetEngine(balanced_tree(2, 4), TreeOddEvenPolicy(),
                        lanes(k - 1), buffer_capacity=2)
    assert fleet.vectorized_runs == ()


def test_faulted_lane_falls_back():
    plan = FaultPlan(events=(
        FaultEvent(kind=FaultKind.LINK_DOWN, start=2, node=3, duration=2),
    ))
    fleet = FleetEngine(
        8, OddEvenPolicy(), suite(8) + [FixedNodeAdversary(3)],
        faults=[None, plan, None, None],
    )
    assert fleet.fallback_runs == (1,)
    assert fleet.vectorized_runs == (0, 2, 3)


def test_mixed_lanes_agree_with_dedicated_engines():
    advs = [FarEndAdversary(), SeesawAdversary(), FixedNodeAdversary(0),
            FixedNodeAdversary(3)]
    fleet = FleetEngine(8, OddEvenPolicy(), advs)
    assert fleet.vectorized_runs == (0, 2, 3)
    fleet.run(40)
    for r, adv_cls in enumerate(
        [FarEndAdversary, SeesawAdversary, lambda: FixedNodeAdversary(0),
         lambda: FixedNodeAdversary(3)]
    ):
        eng = PathEngine(8, OddEvenPolicy(), adv_cls())
        eng.run(40)
        assert (fleet.heights[r] == eng.heights).all()


# ------------------------------------------------------------------
# run_fleet and results


def test_run_fleet_shape_and_order():
    fleet = FleetEngine(8, OddEvenPolicy(), suite(8))
    results = fleet.run_fleet(32)
    assert len(results) == 3
    for r, res in enumerate(results):
        assert isinstance(res, RunResult)
        assert res.steps == 32
        assert res is not results[(r + 1) % 3]
    # results() re-reads the same state
    again = fleet.results()
    for a, b in zip(results, again):
        for name in _FIELDS:
            assert getattr(a, name) == getattr(b, name)


def test_max_heights_tracks_per_run_peaks():
    fleet = FleetEngine(8, OddEvenPolicy(), suite(8))
    fleet.run(64)
    peaks = fleet.max_heights
    assert peaks.shape == (3,)
    assert fleet.max_height == int(peaks.max())
    for r in range(3):
        assert fleet.result(r).max_height == int(peaks[r])


# ------------------------------------------------------------------
# checkpoint / snapshot


def test_checkpoint_restore_replays_identically():
    advs = [FarEndAdversary(), SeesawAdversary(),
            UniformRandomAdversary(p=0.5, seed=3), FixedNodeAdversary(3)]
    fleet = FleetEngine(8, OddEvenPolicy(), advs)
    assert fleet.vectorized_runs == (0, 2, 3)
    fleet.run(20)
    snap = fleet.snapshot()
    fleet.run(30)
    want = [fleet.heights.copy(), fleet.max_heights.copy()]
    fleet.restore(snap)
    assert fleet.step_index == 20
    fleet.run(30)
    assert (fleet.heights == want[0]).all()
    assert (fleet.max_heights == want[1]).all()


def test_save_load_checkpoint_into_fresh_fleet(tmp_path):
    def build():
        return FleetEngine(
            8, OddEvenPolicy(),
            [FarEndAdversary(), SeesawAdversary(),
             UniformRandomAdversary(p=0.5, seed=3), FixedNodeAdversary(3)],
        )

    fleet = build()
    fleet.run(25)
    path = tmp_path / "fleet.ckpt"
    fleet.save_checkpoint(path)
    fleet.run(25)

    fresh = build()
    fresh.load_checkpoint(path)
    assert fresh.step_index == 25
    fresh.run(25)
    assert (fresh.heights == fleet.heights).all()
    assert fresh.vectorized_runs == (0, 2, 3)
    for r in range(4):
        a, b = fresh.result(r), fleet.result(r)
        for name in _FIELDS:
            assert getattr(a, name) == getattr(b, name)


# ------------------------------------------------------------------
# trees and the fleet-backed suite sweep


def test_tree_fleet_runs_on_balanced_tree():
    topo = balanced_tree(2, 3)
    advs = [FarEndAdversary(), ScheduleAdversary({0: (1,), 1: (2,)})]
    fleet = FleetEngine(topo, TreeOddEvenPolicy(), advs)
    fleet.run(40)
    from repro.network.tree_engine import TreeEngine

    for r, adv in enumerate(
        [FarEndAdversary(), ScheduleAdversary({0: (1,), 1: (2,)})]
    ):
        eng = TreeEngine(topo, TreeOddEvenPolicy(), adv)
        eng.run(40)
        assert (fleet.heights[r] == eng.heights).all()
    fleet.assert_conservation()


def test_worst_case_over_suite_matches_manual_loop():
    n, steps = 16, 128
    advs = [FarEndAdversary(), FixedNodeAdversary(0), SeesawAdversary(),
            FixedNodeAdversary(5)]
    got = worst_case_over_suite(
        n, OddEvenPolicy, advs, steps
    )
    best = None
    for make in (FarEndAdversary, lambda: FixedNodeAdversary(0),
                 SeesawAdversary, lambda: FixedNodeAdversary(5)):
        adv = make()
        res = measure_path(n, OddEvenPolicy(), adv, steps)
        if best is None or res.max_height > best.max_height:
            best = res
    assert got == best
