"""Unit tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import math

import pytest

import run
from benchlib import hostspeed, stats
from benchlib.client import Outcome
from benchlib.tracing import Tracer, _wrap_engine_method, service_metrics
from benchlib.workloads import SERVICE_WORKLOADS, EngineMix, HotCache


# -- percentile selection ------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(100, 90.0), (500, 90.0), (99, 89), (50, 80), (11, 9), (10, None)],
)
def test_supported_percentile_keeps_ten_samples_beyond(n, expected):
    pct = stats.supported_percentile(n)
    assert pct == expected
    if pct is not None:
        assert n - math.ceil(pct / 100 * n) >= stats.MIN_BEYOND


def test_failures_rank_worst():
    served = [float(i) for i in range(1, 96)]  # 95 answered requests
    assert stats.nearest_rank(served + [math.inf] * 5, 90) == 90.0
    # 15 failures out of 100: the p90 lands on a failure
    assert stats.nearest_rank(served[:85] + [math.inf] * 15, 90) == math.inf
    # a failure-majority median is a failure too
    assert stats.median([1.0, math.inf, math.inf]) == math.inf


def test_nearest_rank_is_a_sample_member():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.nearest_rank(values, 50) == 3.0
    assert stats.nearest_rank(values, 90) == 5.0
    assert stats.nearest_rank(values, 1) == 1.0
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


# -- self time ---------------------------------------------------------------
def _ticking_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_spans():
    tracer = Tracer(clock=_ticking_clock([0.0, 1.0, 3.0, 4.0, 5.0, 9.0]))
    tracer.enter("fleet_engine")   # t=0
    tracer.enter("engine_fast")    # t=1
    tracer.exit(steps=10)          # t=3: child 2s
    tracer.enter("tree_engine")    # t=4
    tracer.exit(steps=5)           # t=5: child 1s
    tracer.exit(steps=30)          # t=9: parent 9s, 3s in children
    calls, steps, self_s, incl_s = tracer.layers["fleet_engine"]
    assert (calls, steps, self_s, incl_s) == (1, 30, 6.0, 9.0)
    assert tracer.layers["engine_fast"] == [1, 10, 2.0, 2.0]
    assert tracer.layers["tree_engine"] == [1, 5, 1.0, 1.0]


def test_wrapped_engines_nest_and_count_steps_once():
    class Inner:
        def run(self, steps):
            for _ in range(steps):
                self.step()
            return self

        def step(self):
            pass

    class Fleet:
        runs = 3
        step_index = 0

        def __init__(self):
            self.inner = Inner()

        def run(self, steps):
            self.inner.run(steps)
            self.step_index += steps
            return self

        def run_horizons(self, horizons):
            for h in sorted(set(horizons)):
                self.run(h - self.step_index)

    clock = itertools.count()
    tracer = Tracer(clock=lambda: float(next(clock)))
    for method in ("run", "step"):
        _wrap_engine_method(Inner, method, "engine_fast", tracer)
    for method in ("run", "run_horizons"):
        _wrap_engine_method(Fleet, method, "fleet_engine", tracer)

    Fleet().run_horizons([4, 2, 4])
    # one outer fleet call advancing 2 + 4 + 4 lane-steps; its nested
    # run() calls are part of it, its Inner.run calls are their own layer
    assert tracer.layers["fleet_engine"][:2] == [1, 10]
    assert tracer.layers["engine_fast"][:2] == [2, 4]
    fleet_self = tracer.layers["fleet_engine"][2]
    fleet_incl = tracer.layers["fleet_engine"][3]
    assert fleet_self == fleet_incl - tracer.layers["engine_fast"][3]
    Inner().step()  # a stand-alone step is one call of one step
    assert tracer.layers["engine_fast"][:2] == [3, 5]


def test_app_self_time_joins_requests_by_key_in_arrival_order():
    def span(name, rid, t0, t1, **kw):
        return {"name": name, "rid": rid, "t0": t0, "t1": t1, **kw}

    trace = {
        "spans": [
            span("protocol.from_dict", 0, 10.0, 10.001),
            span("protocol.cache_key", 0, 10.001, 10.002, key="k"),
            span("cache.get", 0, 10.002, 10.003, hit=False),
            span("batcher.submit", 0, 10.003, 10.020),
            span("shards.submit_batch", None, 10.005, 10.019, rids=[0],
                 lanes=1, worker_s=0.010),
            span("cache.put", 0, 10.020, 10.025),
            span("protocol.from_dict", 1, 11.0, 11.001),
            span("protocol.cache_key", 1, 11.001, 11.002, key="k"),
            span("cache.get", 1, 11.002, 11.004, hit=True),
        ],
        "layers": {},
        "counts": {},
    }
    client = [("k", 11.0, 0.010), ("k", 10.0, 0.030)]
    m = service_metrics(trace, client, {}, since=0.0)
    assert m["cache.hit_ratio"] == 0.5
    assert m["batcher.wait_ms_p50"] == pytest.approx(3.0)
    assert m["shards.ipc_ms_p50"] == pytest.approx(4.0)
    assert m["batcher.occupancy_mean"] == 1.0
    # request 0: 30 ms - (2 parse + 1 get + 17 batcher + 5 put) = 5 ms;
    # request 1: 10 ms - (2 parse + 2 get) = 6 ms; nearest-rank median
    assert m["app.self_ms_p50"] == pytest.approx(5.0)


# -- host speed ---------------------------------------------------------------
def test_slowdown_is_the_mean_burst_inside_the_interval():
    ref = hostspeed.REFERENCE_BURST_S
    samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 4 * ref), (3.0, ref)]
    assert hostspeed.slowdown(samples) == pytest.approx(2.0)
    assert hostspeed.slowdown(samples, 0.5, 2.5) == pytest.approx(3.0)
    # too short to hold a sample: the sample nearest its middle
    assert hostspeed.slowdown(samples, 1.8, 1.9) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        hostspeed.slowdown([])


def test_timings_scale_to_reference_speed_by_unit():
    # on a host running 2x slow, durations halve and rates double
    assert hostspeed.at_reference(3.0, 2.0) == 1.5
    values = {"a_ms": 10.0, "b_s": 4.0, "rate": 5.0, "frac": 0.5}
    units = {"a_ms": "ms", "b_s": "s", "rate": "1/s", "frac": "fraction"}
    assert run.at_reference_units(values, units, 2.0) == {
        "a_ms": 5.0, "b_s": 2.0, "rate": 10.0, "frac": 0.5,
    }


def test_host_speed_thread_samples_until_stopped():
    with hostspeed.HostSpeed(period_s=0.001, probe=lambda: 0.003) as speed:
        while len(speed.samples) < 3:
            pass
    n = len(speed.samples)
    ratio = 0.003 / hostspeed.REFERENCE_BURST_S
    assert speed.slowdown() == pytest.approx(ratio)
    assert speed.slowdown(elasticity=2.0) == pytest.approx(ratio**2)
    assert len(speed.samples) == n


# -- output checks -------------------------------------------------------
_QUERY = {"topology": "path:64", "policy": "odd-even", "adversary": "far-end",
          "steps": 400, "seed": 11}


def _outcome(body, query=_QUERY, status=200):
    return Outcome(0, query, status, json.dumps(body).encode(), 0.0, 0.01)


def test_nearest_cached_degraded_answer_counts_as_degraded():
    checker = run.Checker()
    nearest = {"cache_key": "another query's key", "max_height": 7,
               "degraded": True, "degraded_reason": "deadline; nearest"}
    assert checker.classify(_outcome(nearest)) == "degraded"
    assert checker.errors == []


def test_analytic_degraded_answer_must_carry_its_own_key():
    checker = run.Checker()
    key = checker.key(_QUERY)
    analytic = {"cache_key": key, "max_height": None, "bound": 9.0,
                "degraded": True}
    assert checker.classify(_outcome(analytic)) == "degraded"
    wrong = {**analytic, "cache_key": "not this query's"}
    assert checker.classify(_outcome(wrong)) == "failed"
    assert len(checker.errors) == 1


def test_fresh_answer_with_a_foreign_key_fails():
    checker = run.Checker()
    body = {"cache_key": "not this query's", "max_height": 5,
            "degraded": False, "cached": False}
    assert checker.classify(_outcome(body)) == "failed"
    assert checker.errors


# -- workload generators -------------------------------------------------
def _head(stream, n=300):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("name", sorted(SERVICE_WORKLOADS))
def test_same_seed_same_queries(name):
    cls = SERVICE_WORKLOADS[name]
    assert _head(cls(7).stream()) == _head(cls(7).stream())
    assert _head(cls(7).stream()) != _head(cls(8).stream())


@pytest.mark.parametrize("name", ["miss-stream", "engine-mix"])
def test_distinct_key_workloads_never_repeat_a_query(name):
    queries = _head(SERVICE_WORKLOADS[name](3).stream(), 2000)
    keys = {(q["seed"], q["steps"], q["topology"]) for q in queries}
    assert len(keys) == len(queries)


def test_engine_mix_keeps_one_known_defect_query_per_cycle():
    queries = _head(EngineMix(5).stream(), 4 * EngineMix.cycle)
    defects = [q for q in queries if EngineMix.known_defect(q)]
    assert len(defects) == 4
    assert any(q.get("faults") for q in queries)


def test_hot_cache_working_set_is_seed_free_and_fresh_misses_are_new():
    assert HotCache(1).populate() == HotCache(2).populate()
    working = {q["seed"] for q in HotCache(1).populate()}
    stream = _head(HotCache(1).stream(), 5000)
    fresh = [q for q in stream if q["seed"] not in working]
    assert 0.05 < len(fresh) / len(stream) < 0.15
    assert len({q["seed"] for q in fresh}) == len(fresh)
