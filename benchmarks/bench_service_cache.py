"""Micro-benchmarks of the service's result cache.

``ResultCache.put`` and a cache hit run synchronously on the service's
event loop, so their cost is paid by every concurrent request.  Both
must be flat in the number of cached entries: the index is an
in-memory LRU, a put is one artifact write plus an O(1) insert (and,
at the bound, one O(1) eviction), and a hit reads and verifies one
artifact.  The gate: a hit costs < 1 ms at 4,096 entries (the default
``max_entries``) and no more than a few times its cost at 100.

Each cache is filled to its ``max_entries`` bound first, so every
timed put also evicts — the steady state of a long-running service.
"""

from __future__ import annotations

import itertools
import statistics
import time

import pytest

from repro.service import ProvisionQuery, ResultCache, execute_query

SIZES = (100, 4096)


def _query(seed: int) -> ProvisionQuery:
    return ProvisionQuery.from_dict(
        {"topology": "path:64", "steps": 200, "seed": seed}
    )


def _filled(directory, entries: int) -> tuple[ResultCache, dict, list[str]]:
    template = execute_query(_query(0).to_worker_dict())
    cache = ResultCache(directory, max_bytes=None, max_entries=entries)
    keys = []
    for seed in range(entries):
        q = _query(seed)
        cache.put(q.cache_key(), template, query=q)
        keys.append(q.cache_key())
    assert cache.stats()["entries"] == entries
    return cache, template, keys


@pytest.mark.parametrize("entries", SIZES)
def test_bench_cache_put(benchmark, tmp_path, entries):
    """One put of a fresh key at the entry bound (write + evict)."""
    cache, template, _ = _filled(tmp_path, entries)
    fresh = (_query(seed) for seed in itertools.count(entries))

    def put():
        q = next(fresh)
        cache.put(q.cache_key(), template, query=q)

    benchmark(put)
    assert cache.stats()["entries"] == entries


@pytest.mark.parametrize("entries", SIZES)
def test_bench_cache_hit(benchmark, tmp_path, entries):
    """One verified hit; must stay under 1 ms at every size."""
    cache, template, keys = _filled(tmp_path, entries)
    cycle = itertools.cycle(keys)

    def hit():
        return cache.get(next(cycle))

    assert benchmark(hit) == template
    assert benchmark.stats.stats.median < 1e-3


def test_bench_cache_hit_is_flat(benchmark, tmp_path):
    """Median hit at 4,096 entries within 3x of the median at 100."""

    def median_hit(entries: int) -> float:
        cache, _, keys = _filled(tmp_path / str(entries), entries)
        samples = []
        for key in keys[-100:]:
            t0 = time.perf_counter()
            cache.get(key)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    small, large = benchmark.pedantic(
        lambda: (median_hit(SIZES[0]), median_hit(SIZES[1])),
        rounds=1, iterations=1,
    )
    assert large < 1e-3, large
    assert large <= 3 * small, (small, large)
