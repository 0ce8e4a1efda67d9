"""Batched-service parity: any mix of queries answers bit-identical
to solo execution.

The batching tentpole's correctness contract: routing a query through
the coalescing path (batch key grouping → one FleetEngine call per
group → per-lane demux) must change *nothing* about its answer — not
the RunResult-derived fields, not the loss ledgers, not the degraded
flag.  Hypothesis generates mixed bursts across scheduled and adaptive
adversaries, overflow disciplines, decision timings, finite buffers
and heterogeneous step budgets, answers them both ways at two layers
(the worker's ``execute_batch`` directly, and the full
``QueryBatcher`` demux loop over an in-process pool), and compares
whole response documents.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings, strategies as st

from repro.network.fleet_engine import MIN_MATRIX_LANES_PATH

from repro.service import (
    Deadline,
    ProvisionQuery,
    QueryBatcher,
    QueryFailed,
    execute_batch,
    execute_query,
)

#: both coalescible (scheduled) and fallback (adaptive) families
ADVERSARIES = st.sampled_from(
    ["far-end", "pre-sink", "uniform", "round-robin", "seesaw", "pressure"]
)
OVERFLOWS = st.sampled_from(["drop-tail", "drop-oldest", "push-back"])
TIMINGS = st.sampled_from(["pre_injection", "post_injection"])

QUERY = st.fixed_dictionaries(
    {
        "topology": st.sampled_from(["path:8", "path:12"]),
        "policy": st.just("odd-even"),
        "adversary": ADVERSARIES,
        "steps": st.integers(min_value=5, max_value=50),
        "seed": st.integers(min_value=0, max_value=3),
        "overflow": OVERFLOWS,
        "decision_timing": TIMINGS,
        "buffer_capacity": st.one_of(
            st.none(), st.integers(min_value=1, max_value=4)
        ),
    }
)


def _parse(raw):
    return ProvisionQuery.from_dict(
        {k: v for k, v in raw.items() if v is not None}
    )


def _strip(doc):
    return {k: v for k, v in doc.items() if k != "compute_s"}


@given(raws=st.lists(QUERY, min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_execute_batch_bit_identical_to_solo(raws):
    """Worker layer: one batch call == per-query solo calls, lane for
    lane, even when the batch mixes batch keys and adaptive lanes
    (the defensive solo fallback must also be bit-identical)."""
    queries = [_parse(r) for r in raws]
    dicts = [q.to_worker_dict() for q in queries]
    batched = execute_batch(dicts)
    assert len(batched) == len(dicts)
    for d, got in zip(dicts, batched):
        assert _strip(got) == _strip(execute_query(d))


#: one batch key's worth of scheduled lanes, wide enough that the
#: fleet puts them on the height matrix (FleetEngine's lane routing
#: gives narrower batches dedicated engines, like the solo path)
BATCH_KEY = st.fixed_dictionaries(
    {
        "topology": st.sampled_from(["path:8", "path:12"]),
        "policy": st.just("odd-even"),
        "adversary": st.sampled_from(
            ["far-end", "pre-sink", "uniform", "round-robin"]
        ),
        "overflow": OVERFLOWS,
        "decision_timing": TIMINGS,
        "buffer_capacity": st.one_of(
            st.none(), st.integers(min_value=1, max_value=4)
        ),
    }
)
LANE = st.fixed_dictionaries(
    {
        "steps": st.integers(min_value=5, max_value=50),
        "seed": st.integers(min_value=0, max_value=3),
    }
)


@given(
    key=BATCH_KEY,
    lanes=st.lists(
        LANE, min_size=MIN_MATRIX_LANES_PATH, max_size=8,
        unique_by=lambda lane: (lane["steps"], lane["seed"]),
    ),
)
@settings(max_examples=30, deadline=None)
def test_matrix_batch_bit_identical_to_solo(key, lanes):
    """Worker layer, one batch key: the height-matrix answer for every
    lane == that query answered alone on its dedicated engine."""
    dicts = [_parse({**key, **lane}).to_worker_dict() for lane in lanes]
    for d, got in zip(dicts, execute_batch(dicts)):
        assert _strip(got) == _strip(execute_query(d))


class _InlinePool:
    """Duck-typed ShardPool running worker bodies on the event loop."""

    async def submit(self, query, deadline):
        response = execute_query(query.to_worker_dict())
        if "error" in response:
            raise QueryFailed(response["error"])
        return response

    async def submit_batch(self, queries, deadline):
        return execute_batch([q.to_worker_dict() for q in queries])


@given(raws=st.lists(QUERY, min_size=1, max_size=8))
@settings(max_examples=15, deadline=None)
def test_batcher_demux_bit_identical_to_solo(raws):
    """Batcher layer: concurrent submissions through the full
    coalesce/flush/demux machinery answer exactly what solo execution
    answers — scheduled queries via fleet batches, adaptive ones via
    the transparent solo fallback."""
    queries = [_parse(r) for r in raws]

    async def run():
        batcher = QueryBatcher(
            _InlinePool(), window_s=0.02, max_lanes=64
        )
        return await asyncio.gather(
            *(
                batcher.submit(q, Deadline.after(30.0))
                for q in queries
            )
        )

    got = asyncio.run(run())
    for q, doc in zip(queries, got):
        assert _strip(doc) == _strip(execute_query(q.to_worker_dict()))
