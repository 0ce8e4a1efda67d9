"""Micro-benchmarks of fleet lane routing and topology resolution.

A tree query should cost its engine time and nothing more.  Two costs
used to stand on top of it: a 1-lane batch ran through FleetEngine's
dense height-matrix kernel instead of TreeEngine's sparse Algorithm 5
loop, and every parse (front end and shard worker alike) rebuilt and
rehashed the query's topology.  ``FleetEngine`` now routes such a lane
to a dedicated engine, and ``resolve_topology`` resolves each spec
once per process.  The gates:

* a 1-lane ``binary:10`` far-end ``execute_batch`` costs no more than
  1.25x building and running a TreeEngine for the same query (with
  the same answer);
* a warm ``binary:10`` parse plus ``cache_key`` takes under 1 ms.
"""

from __future__ import annotations

import statistics
import time

from repro.adversaries import FarEndAdversary
from repro.network.tree_engine import TreeEngine
from repro.policies import TreeOddEvenPolicy
from repro.service import ProvisionQuery, execute_batch, resolve_topology

PAIRS = 7


def _query(seed: int) -> dict:
    return {
        "topology": "binary:10",
        "policy": "tree-odd-even",
        "adversary": "far-end",
        "steps": 1000,
        "seed": seed,
    }


def test_bench_tree_batch_of_one_costs_its_engine(benchmark):
    """1-lane tree batch within 1.25x of its bare TreeEngine run
    (median of alternating pairs, so drift on a shared host hits both
    alike)."""
    dicts = [
        ProvisionQuery.from_dict(_query(seed)).to_worker_dict()
        for seed in range(PAIRS)
    ]
    execute_batch(dicts[:1])  # warm imports and the resolver memo

    topology, _ = resolve_topology("binary:10")

    def pairs() -> tuple[float, float]:
        bare, batch = [], []
        for d in dicts:
            t0 = time.perf_counter()
            engine = TreeEngine(
                topology, TreeOddEvenPolicy(), FarEndAdversary()
            )
            engine.run(d["steps"])
            result = engine.result()
            bare.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            (lane,) = execute_batch([d])
            batch.append(time.perf_counter() - t0)
            assert (lane["max_height"], lane["argmax_node"],
                    lane["delivered"]) == (result.max_height,
                                           result.argmax_node,
                                           result.delivered)
        return statistics.median(bare), statistics.median(batch)

    bare_s, batch_s = benchmark.pedantic(pairs, rounds=1, iterations=1)
    assert batch_s <= 1.25 * bare_s, (bare_s, batch_s)


def test_bench_warm_tree_parse(benchmark):
    """Warm ``binary:10`` parse + ``cache_key`` under 1 ms."""
    raw = _query(0)
    ProvisionQuery.from_dict(raw).cache_key()  # resolve the spec once

    def parse() -> str:
        return ProvisionQuery.from_dict(raw).cache_key()

    benchmark(parse)
    assert benchmark.stats.stats.median < 1e-3
