"""Seeded query generators for the service workloads.

Each generator turns the benchmark's ``--seed`` into a fixed,
unbounded sequence of ``POST /provision`` bodies; the same seed always
gives the same sequence, and the service sees only these bodies.  Why
each workload exists is in ``perfbench/README.md``.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

Query = dict[str, Any]

#: ``pressure`` on a tree passes protocol validation but every such
#: query answers 422 (``TopologyError: path_order is only defined on
#: paths``) -- a known defect the benchmark keeps in view.
KNOWN_DEFECT_ERROR = "path_order is only defined on paths"


def _base_seed(workload: str, seed: int) -> int:
    return random.Random(f"{workload}:{seed}").randrange(1, 2**30)


class MissStream:
    """Distinct cache keys, one shared batch key: the coalescing path
    at its best, with light compute."""

    name = "miss-stream"

    def __init__(self, seed: int) -> None:
        self.base = _base_seed(self.name, seed)

    def query(self, i: int) -> Query:
        return {
            "topology": "path:64",
            "policy": "odd-even",
            "adversary": "far-end",
            "steps": 400 + i % 97,
            "seed": self.base + i,
        }

    def stream(self) -> Iterator[Query]:
        i = 0
        while True:
            yield self.query(i)
            i += 1


# (topology, policy, adversary, steps): heavy enough that the engine
# dominates each request; adaptive adversaries take the solo path,
# scheduled ones a 1-lane FleetEngine call.
_MIX_TEMPLATES = (
    ("path:1024", "odd-even", "seesaw", 1200),
    ("binary:10", "tree-odd-even", "far-end", 1000),
    ("random:512", "tree-odd-even", "max-chaser", 1200),
    ("path:1024", "odd-even", "uniform", 1500),
    ("random:512", "tree-odd-even", "uniform", 500),
    ("path:1024", "odd-even", "max-chaser", 1500),
    ("binary:10", "tree-odd-even", "seesaw", 1000),
)
_FAULTED = "faulted"
_PRESSURE_ON_TREE = "pressure-on-tree"
#: one 16-request cycle: every template twice, one finite-buffer query
#: under a random fault plan, and one known-defect query.  The defect
#: slice stays under 10% so the p90 still ranks served requests, while
#: ``failed_frac`` shows every one of its 422s.
_MIX_CYCLE = (
    _MIX_TEMPLATES + (_FAULTED,) + _MIX_TEMPLATES + (_PRESSURE_ON_TREE,)
)


class EngineMix:
    """Distinct heavy queries across engines: compute dominates and
    batches hold one lane."""

    name = "engine-mix"
    cycle = len(_MIX_CYCLE)

    def __init__(self, seed: int) -> None:
        self.base = _base_seed(self.name, seed)

    def query(self, i: int) -> Query:
        slot = _MIX_CYCLE[i % self.cycle]
        seed = self.base + i
        jitter = (i * 7) % 50
        if slot == _FAULTED:
            return {
                "topology": "path:1024",
                "policy": "odd-even",
                "adversary": "uniform",
                "steps": 150 + jitter,
                "seed": seed,
                "buffer_capacity": 4,
                "faults": {"seed": seed, "random": {"p_link_down": 0.005}},
            }
        if slot == _PRESSURE_ON_TREE:
            return {
                "topology": "binary:10",
                "policy": "tree-odd-even",
                "adversary": "pressure",
                "steps": 1000 + jitter,
                "seed": seed,
            }
        topology, policy, adversary, steps = slot
        return {
            "topology": topology,
            "policy": policy,
            "adversary": adversary,
            "steps": steps + jitter,
            "seed": seed,
        }

    @staticmethod
    def known_defect(query: Query) -> bool:
        return query["adversary"] == "pressure" and not str(
            query["topology"]
        ).startswith("path:")

    def stream(self) -> Iterator[Query]:
        i = 0
        while True:
            yield self.query(i)
            i += 1


class HotCache:
    """A 1,024-query working set written through ``POST /provision``,
    then 90% uniform repeats over it and 10% fresh misses.

    The working set is the same for every seed, so populating it costs
    every run the same; the seed picks the order of the repeats and
    the fresh misses, whose ``seed`` field starts past the working
    set's so no fresh query is ever in it.
    """

    name = "hot-cache"
    working_set = 1024
    hit_share = 0.9

    def __init__(self, seed: int) -> None:
        self.base = self.working_set + _base_seed(self.name, seed)
        self.seed = seed

    @staticmethod
    def query(j: int) -> Query:
        return {
            "topology": "path:64",
            "policy": "odd-even",
            "adversary": "far-end",
            "steps": 200 + j % 53,
            "seed": j,
        }

    def populate(self) -> list[Query]:
        return [self.query(j) for j in range(self.working_set)]

    def stream(self) -> Iterator[Query]:
        rng = random.Random(f"{self.name}:{self.seed}:sequence")
        fresh = self.base
        while True:
            if rng.random() < self.hit_share:
                yield self.query(rng.randrange(self.working_set))
            else:
                yield self.query(fresh)
                fresh += 1


SERVICE_WORKLOADS = {w.name: w for w in (MissStream, EngineMix, HotCache)}
