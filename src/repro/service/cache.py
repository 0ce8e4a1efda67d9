"""Content-addressed result cache for the provisioning service.

Cache entries are checksummed artifacts in a :class:`RunStore`
directory, one file per content address (`q<sha256-prefix>.json`),
verified on every read exactly like durable-run artifacts: a flipped
bit yields a miss, never a wrong answer.

The only index is in memory: an LRU (`OrderedDict`, oldest first)
mapping entry name → (artifact bytes, query shape).  It is rebuilt at
boot by scanning the directory's `q*.json` artifacts in mtime order,
verifying each and skipping any that do not verify, so a restart
keeps every entry but loses recency (order falls back to write time).
A `put` is one atomic artifact write, an O(1) insert, and eviction of
the oldest entries until the store is back under ``max_bytes`` /
``max_entries``; a hit moves its entry to the newest end.

The shape (topology sha, policy, adversary) is what lets graceful
degradation answer "the nearest cached result" for an unservable
query: :meth:`ResultCache.nearest` scans the in-memory LRU newest
first and opens only artifacts of the matching shape.  At boot the
shape is read from the `query` block every stored response carries.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from pathlib import Path
from typing import Any, Mapping

from ..io.checkpoint import atomic_write_bytes
from ..runner.store import RunStore, canonical_json
from .protocol import ProvisionQuery

__all__ = ["ENTRY_FORMAT", "ResultCache"]

ENTRY_FORMAT = "repro-cache-entry-v1"

#: (topology_sha, policy, adversary) of a provision entry; ``None`` for
#: entries that are never nearest-neighbour candidates.
Shape = tuple[Any, Any, Any] | None


#: artifact name for a cache key: a distinct prefix keeps cache entries
#: from ever colliding with experiment-id artifacts in a shared root.
def _entry_name(key: str) -> str:
    return f"q{key[:40]}"


def _shape(canonical: Mapping[str, Any]) -> Shape:
    """The nearest-lookup shape of a canonical query block."""
    if canonical.get("kind") != "provision":
        return None
    return (
        canonical.get("topology_sha"),
        canonical.get("policy"),
        canonical.get("adversary"),
    )


class ResultCache:
    """Checksummed, LRU+size-bounded response cache keyed by content."""

    def __init__(
        self,
        directory: str | Path,
        *,
        max_bytes: int | None = 64 * 1024 * 1024,
        max_entries: int | None = 4096,
    ) -> None:
        self.store = RunStore(directory)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._lru: OrderedDict[str, tuple[int, Shape]] = OrderedDict()
        self._bytes = 0
        self._load()

    # ------------------------------------------------------------------
    def _read(self, name: str) -> tuple[dict[str, Any], int] | None:
        """The verified body of artifact ``name`` and its size in bytes."""
        try:
            raw = self.store.record_path(name).read_bytes()
            doc = json.loads(raw)
        except (OSError, ValueError):
            return None
        body = doc.get("body") if isinstance(doc, dict) else None
        if (
            not isinstance(body, dict)
            or doc.get("format") != ENTRY_FORMAT
            or not isinstance(body.get("key"), str)
            or _entry_name(body["key"]) != name
            or hashlib.sha256(
                canonical_json(body).encode("utf-8")
            ).hexdigest()
            != doc.get("sha256")
        ):
            return None
        return body, len(raw)

    def _load(self) -> None:
        """Rebuild the LRU from the artifacts on disk, oldest first."""
        found = []
        for path in self.store.directory.glob("q*.json"):
            try:
                found.append((path.stat().st_mtime_ns, path.stem))
            except OSError:  # pragma: no cover - vanished mid-scan
                continue
        for _, name in sorted(found):
            read = self._read(name)
            if read is not None:
                body, size = read
                self._insert(name, size, self._body_shape(body))
        self._evict()

    @staticmethod
    def _body_shape(body: dict[str, Any]) -> Shape:
        response = body.get("response")
        query = response.get("query") if isinstance(response, dict) else None
        return _shape(query) if isinstance(query, dict) else None

    def _insert(self, name: str, size: int, shape: Shape) -> None:
        self._forget(name)
        self._lru[name] = (size, shape)
        self._bytes += size

    def _forget(self, name: str) -> None:
        entry = self._lru.pop(name, None)
        if entry is not None:
            self._bytes -= entry[0]

    def _evict(self) -> None:
        """Drop least-recently-used entries until within both bounds."""
        while self._lru and (
            (self.max_entries is not None
             and len(self._lru) > self.max_entries)
            or (self.max_bytes is not None and self._bytes > self.max_bytes)
        ):
            name, (size, _) = self._lru.popitem(last=False)
            self._bytes -= size
            self.store.record_path(name).unlink(missing_ok=True)

    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The cached response for ``key``, or ``None``.

        Verifies the artifact's checksum and its stored key before
        trusting it, and moves the entry to the newest end of the LRU
        on a hit (adopting a valid artifact the LRU does not know yet).
        An entry whose artifact no longer verifies is forgotten.
        """
        name = _entry_name(key)
        read = self._read(name)
        if read is None or read[0].get("key") != key:
            self._forget(name)
            self.misses += 1
            return None
        body, size = read
        self.hits += 1
        if name in self._lru:
            self._lru.move_to_end(name)
        else:
            self._insert(name, size, self._body_shape(body))
            self._evict()
        return body.get("response")

    def put(
        self, key: str, response: dict[str, Any], *, query: ProvisionQuery
    ) -> Path:
        """Store ``response`` under ``key``, then evict to the bounds."""
        body = {"key": key, "response": response}
        doc = {
            "format": ENTRY_FORMAT,
            "sha256": hashlib.sha256(
                canonical_json(body).encode("utf-8")
            ).hexdigest(),
            "body": body,
        }
        payload = (
            json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
        ).encode("utf-8")
        name = _entry_name(key)
        path = atomic_write_bytes(self.store.record_path(name), payload)
        self._insert(name, len(payload), _shape(query.canonical()))
        self._evict()
        return path

    # ------------------------------------------------------------------
    def nearest(self, query: ProvisionQuery) -> dict[str, Any] | None:
        """The closest cached response for a degraded answer.

        "Nearest" means: same topology, policy, and adversary (the
        shape of the provisioning question), most recently used first —
        a stale-but-real measurement beats a purely analytic bound.
        Returns ``None`` when nothing in the cache shares the shape.
        The scan runs over the in-memory LRU; only artifacts of the
        matching shape are opened.
        """
        shape = _shape(query.canonical())
        if shape is None:
            return None
        for name, (_, entry_shape) in reversed(self._lru.items()):
            if entry_shape != shape:
                continue
            read = self._read(name)
            if read is not None:
                return read[0].get("response")
        return None

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "entries": len(self._lru),
            "bytes": self._bytes,
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
        }
