"""Request/response schemas for the buffer-provisioning service.

A *provisioning query* is the repo's product question in data form:
"given this topology, policy, adversary, parameters, and fault overlay
— how big must buffers be, and what do I lose if they're smaller?"
This module validates raw JSON into a :class:`ProvisionQuery`, computes
the content-address the cache is keyed on, and defines the analytic
fallback answer used by graceful degradation.

Two query kinds are accepted:

* ``"provision"`` (the default) — an ad-hoc simulation over a topology
  spec, answered with the measured buffer requirement (max height),
  the paper's analytic bound, and the loss accounting;
* ``"experiment"`` — a registry experiment by id, which lets callers
  (and the chaos soak, via :mod:`repro.runner.chaos`'s ``X*`` stubs)
  route the existing experiment machinery through the shard pool.

The cache key is a SHA-256 over the canonical JSON of
``(topology_sha, policy, adversary, params, faults)``: deterministic
across processes (no ``PYTHONHASHSEED`` dependence) and insensitive to
dict ordering in the incoming request.

Next to the cache key lives the *batch key* — the coarser content
address the service's coalescing batcher groups cache-missing queries
by.  Two queries share a batch key iff one
:class:`~repro.network.fleet_engine.FleetEngine` can co-schedule them
as lanes of a single fleet: same resolved topology, policy, adversary
family, decision timing, overflow discipline and buffer capacity.
Per-lane facts (steps, seed, deadline) stay out of the batch key —
the fleet advances heterogeneous horizons via ``run_horizons``.

A topology spec resolves through :func:`resolve_topology`, once per
process (the front end's parse, the shard worker's re-parse and its
engine construction share the memo); a spec over
:data:`MAX_TOPOLOGY_NODES` nodes is refused before anything is built.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ReproError
from ..network.buffers import Overflow, coerce_overflow
from ..network.topology import (
    Topology,
    balanced_tree,
    path,
    random_tree,
    spider,
)
from ..runner.store import canonical_json

__all__ = [
    "RESPONSE_SCHEMA",
    "ServiceError",
    "BadRequest",
    "ProvisionQuery",
    "MAX_TOPOLOGY_NODES",
    "resolve_topology",
    "analytic_bound",
    "analytic_answer",
    "coalescible",
]

RESPONSE_SCHEMA = "repro-provision-v1"

#: topology specs the service accepts, mirroring ``repro certify``.
_TOPOLOGY_KINDS = ("path", "spider", "binary", "random")


class ServiceError(ReproError):
    """Base class for provisioning-service failures."""


class BadRequest(ServiceError):
    """The request is malformed; the message names the offending field."""


#: the largest topology a spec may name.  The size is computed from
#: the spec's integers before anything is allocated, so one request
#: cannot make the event loop build a huge graph: ``binary:13``
#: (16,383 nodes) passes, ``binary:14`` does not.  A cold resolve at
#: the ceiling takes up to ~85 ms.
MAX_TOPOLOGY_NODES = 16_384

_SPEC_HELP = "use path:N (N>=2), spider:AxL, binary:D or random:N"

#: the resolver memo keeps at most this many topologies, of at most
#: this many nodes in total (~116 bytes a node: four ceiling-size
#: topologies pin ~8 MB in each process)
_MEMO_ENTRIES = 16
_MEMO_NODES = 4 * MAX_TOPOLOGY_NODES
_memo: OrderedDict[tuple[str, tuple[int, ...]], tuple[Topology, str]] = (
    OrderedDict()
)
_memo_lock = threading.Lock()

_BUILDERS: dict[str, Callable[..., Topology]] = {
    "path": path,
    "spider": spider,
    "binary": lambda depth: balanced_tree(2, depth),
    "random": lambda n: random_tree(n, seed=0),
}


def _parse_spec(spec: str) -> tuple[str, tuple[int, ...], int]:
    """A spec's normal form ``(kind, integers)`` and its node count.

    Allocates nothing; every spelling of one spec (``path:64``,
    ``path:064``, ``path: 64``) has the same normal form.
    """
    kind, _, arg = spec.partition(":")
    try:
        if kind == "path":
            n = int(arg or 256)
            if n >= 2:
                return kind, (n,), n
        elif kind == "spider":
            arms_s, _, length_s = arg.partition("x")
            arms, length = int(arms_s), int(length_s)
            if arms >= 1 and length >= 1:
                return kind, (arms, length), 2 + arms * length
        elif kind == "binary":
            depth = int(arg)
            if depth >= 0:
                # capped shift: a depth of 10**9 must not build 2**10**9
                return kind, (depth,), (1 << (min(depth, 64) + 1)) - 1
        elif kind == "random":
            n = int(arg)
            if n >= 1:
                return kind, (n,), n
    except ValueError as err:
        raise BadRequest(f"bad topology spec {spec!r}; {_SPEC_HELP}") from err
    raise BadRequest(f"bad topology spec {spec!r}; {_SPEC_HELP}")


def resolve_topology(spec: str) -> tuple[Topology, str]:
    """The :class:`Topology` a spec names and its content address.

    Resolved once per process: protocol parse, the shard worker's
    re-parse and its engine construction all share one memo, keyed on
    the spec's normal form so no spelling of a resolved spec misses.
    The memo is bounded by size (:data:`_MEMO_NODES` nodes in total)
    as well as by count, so no stream of specs can make it pin more
    than a few megabytes.  A ``Topology`` is immutable, so sharing it
    is safe.  The address hashes the successor array, not the spec,
    so two specs naming the same tree share cache entries.  Specs over
    :data:`MAX_TOPOLOGY_NODES` nodes are refused before any allocation.
    """
    kind, args, n = _parse_spec(spec)
    if n > MAX_TOPOLOGY_NODES:
        raise BadRequest(
            f"topology {spec!r} is over the {MAX_TOPOLOGY_NODES}-node limit"
        )
    key = (kind, args)
    with _memo_lock:
        resolved = _memo.get(key)
        if resolved is not None:
            _memo.move_to_end(key)
            return resolved
    topology = _BUILDERS[kind](*args)
    # every caller shares this instance: make its arrays read-only too
    for array in (topology.succ, topology.depth, topology.bottom_up):
        array.flags.writeable = False
    sha = hashlib.sha256(
        canonical_json({"succ": topology.succ.tolist()}).encode("utf-8")
    ).hexdigest()
    with _memo_lock:
        _memo[key] = resolved = (topology, sha)
        while len(_memo) > _MEMO_ENTRIES or (
            sum(t.n for t, _ in _memo.values()) > _MEMO_NODES
        ):
            _memo.popitem(last=False)
    return resolved


_ADVERSARIES = (
    "far-end", "pre-sink", "seesaw", "pressure", "uniform",
    "round-robin", "max-chaser",
)

#: adversary families that publish an injection schedule (see
#: ``Adversary.inject_schedule``) and therefore ride the FleetEngine's
#: vectorised lanes.  The adaptive families (seesaw, pressure,
#: max-chaser) react to observed heights step by step and take the
#: solo per-query path instead.
_SCHEDULED_ADVERSARIES = frozenset(
    {"far-end", "pre-sink", "uniform", "round-robin"}
)

_DECISION_TIMINGS = ("pre_injection", "post_injection")


@dataclass
class ProvisionQuery:
    """One validated provisioning request."""

    kind: str = "provision"
    topology: str = "path:64"
    policy: str = "odd-even"
    adversary: str = "far-end"
    steps: int | None = None
    seed: int = 0
    buffer_capacity: int | None = None
    overflow: str = Overflow.DROP_TAIL.value
    decision_timing: str = "pre_injection"
    faults: dict[str, Any] | None = None
    deadline_s: float | None = None
    # experiment kind only:
    experiment: str | None = None
    preset: str = "quick"
    # resolved facts (not part of the wire format):
    n: int = field(default=0, compare=False)
    is_path: bool = field(default=True, compare=False)
    topology_sha: str = field(default="", compare=False)

    @classmethod
    def from_dict(cls, raw: Any) -> "ProvisionQuery":
        if not isinstance(raw, dict):
            raise BadRequest("request body must be a JSON object")
        known = {
            "kind", "topology", "policy", "adversary", "steps", "seed",
            "buffer_capacity", "overflow", "decision_timing", "faults",
            "deadline_s", "experiment", "preset",
        }
        unknown = sorted(set(raw) - known)
        if unknown:
            raise BadRequest(f"unknown field(s): {', '.join(unknown)}")
        kind = raw.get("kind", "provision")
        if kind not in ("provision", "experiment"):
            raise BadRequest(
                f"kind must be 'provision' or 'experiment', got {kind!r}"
            )
        q = cls(kind=kind)
        if kind == "experiment":
            exp = raw.get("experiment")
            if not isinstance(exp, str) or not exp:
                raise BadRequest("experiment queries need an 'experiment' id")
            q.experiment = exp.upper()
            preset = raw.get("preset", "quick")
            if preset not in ("quick", "full"):
                raise BadRequest(f"preset must be quick|full, got {preset!r}")
            q.preset = preset
        else:
            q.topology = str(raw.get("topology", q.topology))
            topology, q.topology_sha = resolve_topology(q.topology)
            q.n, q.is_path = topology.n, topology.is_canonical_path
            q.policy = str(raw.get("policy", q.policy))
            from ..policies import available_policies

            if q.is_path and q.policy == "tree-odd-even":
                raise BadRequest("tree-odd-even needs a tree topology")
            if not q.is_path:
                # non-path topologies run on the TreeEngine, whose
                # policy surface is the tree scheduler
                q.policy = str(raw.get("policy", "tree-odd-even"))
                if q.policy != "tree-odd-even":
                    raise BadRequest(
                        f"tree topologies support policy 'tree-odd-even', "
                        f"got {q.policy!r}"
                    )
            elif q.policy not in available_policies():
                raise BadRequest(
                    f"unknown policy {q.policy!r}; known: "
                    f"{', '.join(available_policies())}"
                )
            q.adversary = str(raw.get("adversary", q.adversary))
            if q.adversary not in _ADVERSARIES:
                raise BadRequest(
                    f"unknown adversary {q.adversary!r}; known: "
                    f"{', '.join(_ADVERSARIES)}"
                )
            steps = raw.get("steps")
            if steps is not None:
                if not isinstance(steps, int) or steps < 1 or steps > 200_000:
                    raise BadRequest(
                        "steps must be an int in [1, 200000] or omitted"
                    )
                q.steps = steps
            seed = raw.get("seed", 0)
            if not isinstance(seed, int):
                raise BadRequest("seed must be an int")
            q.seed = seed
            cap = raw.get("buffer_capacity")
            if cap is not None and (not isinstance(cap, int) or cap < 1):
                raise BadRequest("buffer_capacity must be an int >= 1 or null")
            q.buffer_capacity = cap
            try:
                q.overflow = coerce_overflow(
                    raw.get("overflow", q.overflow)
                ).value
            except ReproError as err:
                raise BadRequest(str(err)) from err
            timing = raw.get("decision_timing", q.decision_timing)
            if timing not in _DECISION_TIMINGS:
                raise BadRequest(
                    f"decision_timing must be one of "
                    f"{', '.join(_DECISION_TIMINGS)}, got {timing!r}"
                )
            q.decision_timing = timing
            faults = raw.get("faults")
            if faults is not None:
                if not isinstance(faults, dict):
                    raise BadRequest(
                        "faults must be a FaultPlan JSON object or null"
                    )
                from ..network.faults import FaultPlan

                try:  # validate now so shards never see a bad plan
                    FaultPlan.from_dict(faults)
                except ReproError as err:
                    raise BadRequest(f"bad fault plan: {err}") from err
                q.faults = faults
        deadline = raw.get("deadline_s")
        if deadline is not None:
            if not isinstance(deadline, (int, float)) or deadline <= 0:
                raise BadRequest("deadline_s must be a positive number")
            q.deadline_s = float(deadline)
        return q

    # ------------------------------------------------------------------
    def canonical(self) -> dict[str, Any]:
        """The key-bearing content of the query (deadline excluded —
        how long a caller is willing to wait does not change the
        answer)."""
        if self.kind == "experiment":
            return {
                "kind": "experiment",
                "experiment": self.experiment,
                "preset": self.preset,
            }
        return {
            "kind": "provision",
            "topology_sha": self.topology_sha,
            "policy": self.policy,
            "adversary": self.adversary,
            "params": {
                "steps": self.steps,
                "seed": self.seed,
                "buffer_capacity": self.buffer_capacity,
                "overflow": self.overflow,
                "decision_timing": self.decision_timing,
            },
            "faults": self.faults,
        }

    def cache_key(self) -> str:
        return hashlib.sha256(
            canonical_json(self.canonical()).encode("utf-8")
        ).hexdigest()

    def batch_key(self) -> str | None:
        """The coalescing group this query may be co-scheduled in.

        Everything one FleetEngine construction fixes for all of its
        lanes: the resolved topology, the (shared) policy instance
        family, the adversary family, decision timing, the overflow
        discipline and the buffer capacity.  ``None`` for queries that
        must not be batched (see :func:`coalescible`).
        """
        if not coalescible(self):
            return None
        return hashlib.sha256(
            canonical_json(
                {
                    "topology_sha": self.topology_sha,
                    "policy": self.policy,
                    "adversary": self.adversary,
                    "decision_timing": self.decision_timing,
                    "overflow": self.overflow,
                    "buffer_capacity": self.buffer_capacity,
                }
            ).encode("utf-8")
        ).hexdigest()

    def to_worker_dict(self) -> dict[str, Any]:
        """Everything a shard worker needs, as picklable plain data."""
        return {
            "kind": self.kind,
            "topology": self.topology,
            "policy": self.policy,
            "adversary": self.adversary,
            "steps": self.steps,
            "seed": self.seed,
            "buffer_capacity": self.buffer_capacity,
            "overflow": self.overflow,
            "decision_timing": self.decision_timing,
            "faults": self.faults,
            "experiment": self.experiment,
            "preset": self.preset,
        }


def coalescible(query: ProvisionQuery) -> bool:
    """May this query be answered as one lane of a batched fleet?

    Provision queries whose adversary publishes an injection schedule
    and that carry no fault plan batch; everything else (experiment
    queries, adaptive adversaries, fault overlays — which the solo
    worker runs under ``run_with_recovery``) transparently takes the
    existing per-query shard path.  Batched answers are bit-identical
    to solo ones either way (``tests/property/test_service_batch_parity``).
    """
    return (
        query.kind == "provision"
        and query.faults is None
        and query.adversary in _SCHEDULED_ADVERSARIES
    )


def analytic_bound(query: ProvisionQuery) -> float | None:
    """The paper's closed-form buffer bound for this query's shape.

    Paths get the Odd-Even ``log2(n) + 3`` bound (Theorem 4.13); trees
    the Theorem 5.11 bound.  ``None`` for experiment queries.
    """
    from ..core.bounds import odd_even_upper_bound, tree_upper_bound

    if query.kind != "provision" or query.n < 2:
        return None
    if query.is_path:
        return float(odd_even_upper_bound(query.n))
    return float(tree_upper_bound(query.n))


def analytic_answer(query: ProvisionQuery, reason: str) -> dict[str, Any]:
    """Graceful-degradation fallback: the O(log n)-style bound, honestly
    flagged ``degraded`` — never a guess dressed up as a measurement."""
    return {
        "schema": RESPONSE_SCHEMA,
        "kind": query.kind,
        "query": query.canonical(),
        "cache_key": query.cache_key(),
        "max_height": None,
        "bound": analytic_bound(query),
        "degraded": True,
        "degraded_reason": reason,
    }
