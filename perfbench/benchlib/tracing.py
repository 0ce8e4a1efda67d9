"""Spans around the calls into each layer, recorded from outside ``src/``.

The benchmark never edits the program to trace it.  Instead it wraps
the public entry points of each layer (module names are the layer
names) and records:

* **request spans** in the service process — ``protocol`` (parse and
  cache key), ``cache`` (get/put), ``batcher`` (submit) and ``shards``
  (submit / submit_batch) — each tagged with the id of the request it
  served; a shard span carries the ids of every request in its batch;
* **counts** at the same boundaries (admission sheds, peak pending);
* **engine layers** (``engine_fast``, ``tree_engine``,
  ``fleet_engine``, ``dag_engine``, ``simulator``) as per-layer totals
  of calls, steps, self time and inclusive time.  Engines call each
  other (a fleet runs its adaptive lanes on per-lane engines), so each
  layer's busy time is its *self* time: the call's duration minus the
  part spent in nested calls of other layers.

Everything stays in memory until :meth:`Tracer.dump`.  Shard workers
are separate processes: the pool's worker functions are swapped for
:func:`traced_execute_query` / :func:`traced_execute_batch`, which run
the real function under an engine tracer and hand the worker's layer
totals back on the response object itself (a ``dict``/``list``
subclass, so the service treats it exactly like the plain result).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import time
from collections import defaultdict
from typing import Any, Callable, Sequence

from . import stats

ENGINE_LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("engine_fast", "repro.network.engine_fast",
     ("PathEngine", "UndirectedPathEngine")),
    ("tree_engine", "repro.network.tree_engine", ("TreeEngine",)),
    ("fleet_engine", "repro.network.fleet_engine", ("FleetEngine",)),
    ("dag_engine", "repro.network.dag_engine",
     ("_DagEngineCore", "DagEngine", "DagLoopEngine")),
    ("simulator", "repro.network.simulator", ("Simulator",)),
)

# calls, steps, self seconds, inclusive seconds
_CALLS, _STEPS, _SELF, _INCL = range(4)


class Tracer:
    """Spans and per-layer totals, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[dict[str, Any]] = []
        self.layers: dict[str, list[float]] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[Any]] = []

    # -- nested synchronous calls (engines) ----------------------------
    def inside(self, layer: str) -> bool:
        """True while the innermost open call is in ``layer`` (a call
        of a layer into itself is part of the outer call)."""
        return bool(self._stack) and self._stack[-1][0] == layer

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self, steps: int = 0) -> None:
        layer, t0, child_s = self._stack.pop()
        duration = self.clock() - t0
        total = self.layers.setdefault(layer, [0, 0, 0.0, 0.0])
        total[_CALLS] += 1
        total[_STEPS] += steps
        total[_SELF] += duration - child_s
        total[_INCL] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def merge_layers(self, layers: dict[str, Sequence[float]]) -> None:
        for layer, values in layers.items():
            total = self.layers.setdefault(layer, [0, 0, 0.0, 0.0])
            for i, v in enumerate(values):
                total[i] += v

    # -- request spans and counts ---------------------------------------
    def span(self, name: str, rid: Any, t0: float, **attrs: Any) -> None:
        self.spans.append(
            {"name": name, "rid": rid, "t0": t0, "t1": self.clock(), **attrs}
        )

    def dump(self) -> dict[str, Any]:
        return {
            "spans": self.spans,
            "layers": self.layers,
            "counts": dict(self.counts),
        }


# -- engines -------------------------------------------------------------
def _steps_of(method: str, layer: str) -> Callable[[Any, tuple, dict], int]:
    """Steps a call advances; lane-steps for the fleet."""
    lanes = (
        (lambda eng: int(eng.runs))
        if layer == "fleet_engine"
        else (lambda eng: 1)
    )
    if method == "step":
        return lambda eng, a, k: lanes(eng)
    if method == "run_horizons":
        return lambda eng, a, k: sum(
            max(0, int(h) - int(eng.step_index))
            for h in (a[0] if a else k["horizons"])
        )
    return lambda eng, a, k: int(a[0] if a else k["steps"]) * lanes(eng)


def _wrap_engine_method(
    cls: type, method: str, layer: str, tracer: Tracer
) -> None:
    original = cls.__dict__[method]
    steps_of = _steps_of(method, layer)

    @functools.wraps(original)
    def traced(self: Any, *args: Any, **kwargs: Any) -> Any:
        if tracer.inside(layer):
            return original(self, *args, **kwargs)
        steps = steps_of(self, args, kwargs)
        tracer.enter(layer)
        try:
            return original(self, *args, **kwargs)
        finally:
            tracer.exit(steps)

    setattr(cls, method, traced)


def install_engines(tracer: Tracer) -> Callable[[], None]:
    """Wrap ``run`` / ``run_horizons`` / ``step`` of every engine class;
    return a function that puts the originals back."""
    wrapped: list[tuple[type, str, Any]] = []
    for layer, module_name, class_names in ENGINE_LAYERS:
        module = importlib.import_module(module_name)
        for class_name in class_names:
            cls = getattr(module, class_name)
            for method in ("run", "run_horizons", "step"):
                if method in cls.__dict__:
                    wrapped.append((cls, method, cls.__dict__[method]))
                    _wrap_engine_method(cls, method, layer, tracer)

    def uninstall() -> None:
        for cls, method, original in reversed(wrapped):
            setattr(cls, method, original)

    return uninstall


# -- shard workers (run inside the worker processes) -------------------
class TracedDict(dict):  # type: ignore[type-arg]
    """A worker's response plus the worker's trace (``bench_trace``)."""

    bench_trace: dict[str, Any] | None = None


class TracedList(list):  # type: ignore[type-arg]
    """A worker's batch responses plus the worker's trace."""

    bench_trace: dict[str, Any] | None = None


_worker_tracer: Tracer | None = None  # one per worker process


def _traced_worker_call(fn_name: str, payload: Any, wrap: type) -> Any:
    global _worker_tracer
    from repro.service import worker

    if _worker_tracer is None:
        _worker_tracer = Tracer()
        install_engines(_worker_tracer)
    _worker_tracer.layers = {}
    t0 = _worker_tracer.clock()
    result = getattr(worker, fn_name)(payload)
    out = wrap(result)
    out.bench_trace = {
        "worker_s": _worker_tracer.clock() - t0,
        "layers": _worker_tracer.layers,
    }
    return out


def traced_execute_query(payload: dict[str, Any]) -> TracedDict:
    return _traced_worker_call("execute_query", payload, TracedDict)


def traced_execute_batch(payload: list[dict[str, Any]]) -> TracedList:
    return _traced_worker_call("execute_batch", payload, TracedList)


# -- the service process ---------------------------------------------------
_RID: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "bench_request_id", default=None
)


def install_service(tracer: Tracer) -> None:
    """Wrap the service's layer entry points and its worker functions.

    Call before the service is constructed.  Request ids are assigned
    at parse time and follow the request through its asyncio task
    (a context variable) and on the query object (for batch spans,
    which run in the batcher's own task).
    """
    from repro.service import shards
    from repro.service.batcher import QueryBatcher
    from repro.service.cache import ResultCache
    from repro.service.protocol import ProvisionQuery
    from repro.service.resilience import AdmissionController, Shedding
    from repro.service.shards import ShardPool

    ids = itertools.count()
    from_dict = ProvisionQuery.__dict__["from_dict"].__func__
    cache_key = ProvisionQuery.cache_key

    def traced_from_dict(cls: type, raw: Any) -> ProvisionQuery:
        t0 = tracer.clock()
        query = from_dict(cls, raw)
        rid = next(ids)
        _RID.set(rid)
        query.bench_rid = rid  # type: ignore[attr-defined]
        tracer.span("protocol.from_dict", rid, t0)
        return query

    def traced_cache_key(self: ProvisionQuery) -> str:
        rid = getattr(self, "bench_rid", None)
        if rid is None or getattr(self, "bench_keyed", False):
            return cache_key(self)
        t0 = tracer.clock()
        key = cache_key(self)
        self.bench_keyed = True  # type: ignore[attr-defined]
        tracer.span("protocol.cache_key", rid, t0, key=key)
        return key

    ProvisionQuery.from_dict = classmethod(traced_from_dict)  # type: ignore
    ProvisionQuery.cache_key = traced_cache_key  # type: ignore[method-assign]

    get, put = ResultCache.get, ResultCache.put

    def traced_get(self: ResultCache, key: str) -> Any:
        t0 = tracer.clock()
        found = get(self, key)
        tracer.span("cache.get", _RID.get(), t0, hit=found is not None)
        return found

    def traced_put(self: ResultCache, key: str, response: Any, **kw: Any) -> Any:
        t0 = tracer.clock()
        try:
            return put(self, key, response, **kw)
        finally:
            tracer.span("cache.put", _RID.get(), t0)

    ResultCache.get = traced_get  # type: ignore[method-assign]
    ResultCache.put = traced_put  # type: ignore[method-assign]

    admit = AdmissionController.admit

    def traced_admit(self: AdmissionController) -> None:
        try:
            admit(self)
        except Shedding:
            tracer.counts["admission_shed"] += 1
            raise
        peak = tracer.counts["admission_pending_peak"]
        tracer.counts["admission_pending_peak"] = max(peak, self.pending)

    AdmissionController.admit = traced_admit  # type: ignore[method-assign]

    submit = QueryBatcher.submit

    async def traced_batcher_submit(
        self: QueryBatcher, query: ProvisionQuery, deadline: Any
    ) -> Any:
        t0 = tracer.clock()
        try:
            return await submit(self, query, deadline)
        finally:
            tracer.span(
                "batcher.submit", getattr(query, "bench_rid", None), t0
            )

    QueryBatcher.submit = traced_batcher_submit  # type: ignore

    def shard_call(name: str, original: Callable[..., Any]) -> Callable:
        async def traced(self: ShardPool, queries: Any, deadline: Any) -> Any:
            batch = list(queries) if name == "shards.submit_batch" else [
                queries
            ]
            t0 = tracer.clock()
            trace = None
            try:
                result = await original(self, queries, deadline)
                trace = getattr(result, "bench_trace", None)
                return result
            finally:
                if trace is not None:
                    tracer.merge_layers(trace["layers"])
                tracer.span(
                    name,
                    None,
                    t0,
                    rids=[getattr(q, "bench_rid", None) for q in batch],
                    lanes=len(batch),
                    worker_s=None if trace is None else trace["worker_s"],
                )

        return traced

    ShardPool.submit = shard_call(  # type: ignore[method-assign]
        "shards.submit", ShardPool.submit
    )
    ShardPool.submit_batch = shard_call(  # type: ignore[method-assign]
        "shards.submit_batch", ShardPool.submit_batch
    )
    shards.execute_query = traced_execute_query  # type: ignore
    shards.execute_batch = traced_execute_batch  # type: ignore


# -- turning a dump into per-layer metrics ---------------------------------
def engine_metrics(layers: dict[str, Sequence[float]]) -> dict[str, float]:
    """``<layer>.steps_per_s`` (steps over inclusive time — the rate a
    caller sees) and ``<layer>.busy_s`` (self time) per engine layer;
    0 for a layer the run never called."""
    out: dict[str, float] = {}
    for layer, _, _ in ENGINE_LAYERS:
        calls, steps, self_s, incl_s = layers.get(layer, (0, 0, 0.0, 0.0))
        out[f"{layer}.steps_per_s"] = steps / incl_s if incl_s > 0 else 0.0
        out[f"{layer}.busy_s"] = self_s
    return out


def service_metrics(
    trace: dict[str, Any],
    client: Sequence[tuple[str, float, float]],
    server_stats: dict[str, Any],
    since: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced service run.

    ``client`` holds ``(cache_key, t_send, latency_s)`` per measured
    request; spans that started before ``since`` (the warm-up) are
    left out.  ``app.self_ms`` is the client's latency minus the
    parse, cache and batcher spans of the same request; requests are
    matched to server ids by cache key in arrival order.
    """
    spans = [s for s in trace["spans"] if s["t0"] >= since]
    parse: dict[int, float] = defaultdict(float)
    layered: dict[int, float] = defaultdict(float)
    key_of: dict[int, tuple[float, str]] = {}
    batcher: dict[int, float] = {}
    carried: dict[int, float] = {}
    gets, puts, ipc, compute, lanes, batch_lanes = [], [], [], [], [], []
    hits = solo = 0
    for s in spans:
        d, rid, name = s["t1"] - s["t0"], s["rid"], s["name"]
        if name.startswith("protocol."):
            parse[rid] += d
            layered[rid] += d
            if name == "protocol.cache_key":
                key_of[rid] = (s["t0"], s["key"])
        elif name == "cache.get":
            gets.append(d)
            hits += bool(s["hit"])
            layered[rid] += d
        elif name == "cache.put":
            puts.append(d)
            layered[rid] += d
        elif name == "batcher.submit":
            batcher[rid] = d
            layered[rid] += d
        elif name.startswith("shards."):
            solo += name == "shards.submit"
            lanes.append(s["lanes"])
            if name == "shards.submit_batch":
                batch_lanes.append(s["lanes"])
            if s["worker_s"] is not None:
                compute.append(s["worker_s"])
                ipc.append(d - s["worker_s"])
            for r in s["rids"]:
                carried[r] = d
    waits = [d - carried[r] for r, d in batcher.items() if r in carried]

    by_key: dict[str, list[int]] = defaultdict(list)
    for rid, (_, key) in sorted(key_of.items(), key=lambda kv: kv[1][0]):
        by_key[key].append(rid)
    app_self = []
    for key, _, latency in sorted(client, key=lambda c: c[1]):
        queue = by_key.get(key)
        if queue:
            app_self.append(latency - layered[queue.pop(0)])

    batcher_stats = server_stats.get("batcher", {})
    flushes = batcher_stats.get("flushes", {})
    counts = trace["counts"]
    return {
        "protocol.parse_ms_p50": stats.p50_ms(list(parse.values())),
        "cache.get_ms_p50": stats.p50_ms(gets),
        "cache.get_ms_p90": stats.p90_ms(gets),
        "cache.hit_ratio": hits / len(gets) if gets else 0.0,
        "cache.put_ms_p50": stats.p50_ms(puts),
        "cache.put_ms_p90": stats.p90_ms(puts),
        "cache.entries_end": float(
            server_stats.get("cache", {}).get("entries", 0)
        ),
        "resilience.admission_shed": counts.get("admission_shed", 0.0),
        "resilience.admission_pending_peak": counts.get(
            "admission_pending_peak", 0.0
        ),
        "batcher.wait_ms_p50": stats.p50_ms(waits),
        "batcher.occupancy_mean": (
            sum(batch_lanes) / len(batch_lanes) if batch_lanes else 0.0
        ),
        "batcher.solo_frac": solo / len(batcher) if batcher else 0.0,
        "batcher.flushes_window": float(flushes.get("window", 0)),
        "batcher.flushes_size": float(flushes.get("size", 0)),
        "batcher.flushes_deadline": float(flushes.get("deadline", 0)),
        "shards.ipc_ms_p50": stats.p50_ms(ipc),
        "shards.calls": float(len(lanes)),
        "shards.restarts": float(
            server_stats.get("pool", {}).get("restarts_total", 0)
        ),
        "worker.compute_ms_p50": stats.p50_ms(compute),
        "worker.compute_ms_p90": stats.p90_ms(compute),
        "worker.lanes_per_call": (
            sum(lanes) / len(lanes) if lanes else 0.0
        ),
        "app.self_ms_p50": stats.p50_ms(app_self),
    }
