"""Durable run directories: per-experiment artifacts + a manifest.

A *run directory* (``results/runs/<label>/`` by convention) makes a
sweep survivable: every completed :class:`ExperimentRecord` is flushed
to its own checksummed JSON artifact **the moment it lands** (atomic
temp + fsync + rename, so a kill mid-write never corrupts an earlier
result), and the :class:`RunManifest` is re-flushed alongside it.  A
later ``repro run all --resume <label>`` scans the directory, keeps
every artifact that verifies *and* describes a completed experiment,
and re-runs only the rest.

Layout::

    results/runs/<label>/
    ├── manifest.json      # repro-run-manifest-v1; rewritten as records land
    ├── e1.json            # repro-run-record-v1, one per completed experiment
    ├── e2.json
    └── ...

Verification is deliberately conservative: an artifact is trusted only
if its format tag matches, its SHA-256 (over the canonical record JSON)
verifies, and its status marks the experiment as *completed* (``ok`` /
``failed-shape``).  Records of interrupted outcomes (``error``,
``timeout``) are re-run on resume — a worker death is exactly the kind
of transient a resume should retry.  Corrupt artifacts are reported,
never silently trusted or silently deleted.

The provisioning service's result cache (:mod:`repro.service.cache`)
keeps its checksummed entries in a ``RunStore`` directory as well,
through :meth:`RunStore.record_path` and :func:`canonical_json`.  The
store keeps no index file: the cache's LRU lives in memory and is
rebuilt from the artifacts themselves at boot.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable

from ..io.checkpoint import atomic_write_text
from ..io.results import ExperimentResult
from .runner import ExperimentRecord, RunManifest

__all__ = [
    "RECORD_FORMAT",
    "MANIFEST_FORMAT",
    "COMPLETED_STATUSES",
    "canonical_json",
    "RunStore",
]

RECORD_FORMAT = "repro-run-record-v1"
MANIFEST_FORMAT = "repro-run-manifest-v1"

#: statuses that mean "this experiment ran to completion" — artifacts
#: carrying any other status are re-run on ``--resume``.
COMPLETED_STATUSES = frozenset({"ok", "failed-shape"})


def _record_body(record: ExperimentRecord) -> dict[str, Any]:
    body: dict[str, Any] = {
        "id": record.experiment_id,
        "status": record.status,
        "wall_s": record.wall_s,
        "attempts": record.attempts,
    }
    if record.error is not None:
        body["error"] = record.error
    if record.result is not None:
        body["result"] = record.result.to_dict()
    return body


def canonical_json(body: dict[str, Any]) -> str:
    """Canonical JSON text of ``body`` for hashing.

    Round-trips through JSON first so the hashed form is exactly what a
    reader of the stored file reconstructs — int dict keys become
    strings, numpy scalars take their ``default=str`` spelling — and
    the checksum verifies against the parsed document, not the live
    Python objects that produced it.  Keys are sorted, so the text (and
    hence any digest of it) is independent of dict insertion order and
    of ``PYTHONHASHSEED``.  The spelling is frozen: changing it would
    orphan every existing ``repro-run-record-v1`` artifact.
    """
    normalized = json.loads(json.dumps(body, default=str))
    return json.dumps(normalized, sort_keys=True)


_canonical = canonical_json  # the store's historical internal spelling


class RunStore:
    """One run directory: artifact/manifest persistence + verification."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @classmethod
    def at(cls, label: str, root: str | Path = "results/runs") -> "RunStore":
        """The conventional location for a labelled run."""
        return cls(Path(root) / label)

    # -- per-experiment artifacts --------------------------------------
    def record_path(self, experiment_id: str) -> Path:
        return self.directory / f"{experiment_id.lower()}.json"

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    def write_record(self, record: ExperimentRecord) -> Path:
        """Flush one record atomically; returns the artifact path."""
        body = _record_body(record)
        doc = {
            "format": RECORD_FORMAT,
            "sha256": hashlib.sha256(
                _canonical(body).encode("utf-8")
            ).hexdigest(),
            "record": body,
        }
        return atomic_write_text(
            self.record_path(record.experiment_id),
            json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n",
        )

    def load_record(self, experiment_id: str) -> ExperimentRecord | None:
        """Load and verify one artifact; ``None`` if absent or untrusted."""
        path = self.record_path(experiment_id)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or doc.get("format") != RECORD_FORMAT:
            return None
        body = doc.get("record")
        if not isinstance(body, dict):
            return None
        digest = hashlib.sha256(
            _canonical(body).encode("utf-8")
        ).hexdigest()
        if digest != doc.get("sha256"):
            return None
        if body.get("id", "").upper() != experiment_id.upper():
            return None
        result = body.get("result")
        try:
            return ExperimentRecord(
                experiment_id=body["id"],
                status=body["status"],
                wall_s=float(body["wall_s"]),
                attempts=int(body.get("attempts", 1)),
                error=body.get("error"),
                result=(
                    ExperimentResult(**result) if result is not None else None
                ),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def scan(
        self, ids: Iterable[str]
    ) -> tuple[dict[str, ExperimentRecord], list[Path]]:
        """Partition ``ids`` into reusable records and untrusted artifacts.

        Returns ``(completed, rejected)``: ``completed`` maps experiment
        id → verified record with a completed status; ``rejected`` lists
        artifact paths that exist but could not be trusted (corrupt,
        foreign, or describing an interrupted outcome) and will be
        re-run.
        """
        completed: dict[str, ExperimentRecord] = {}
        rejected: list[Path] = []
        for eid in ids:
            path = self.record_path(eid)
            if not path.exists():
                continue
            record = self.load_record(eid)
            if record is not None and record.status in COMPLETED_STATUSES:
                completed[eid.upper()] = record
            else:
                rejected.append(path)
        return completed, rejected

    # -- manifest ------------------------------------------------------
    def write_manifest(
        self, manifest: RunManifest, *, partial: bool = False
    ) -> Path:
        """Flush the manifest atomically (marked partial mid-sweep)."""
        doc = dict(manifest.to_dict())
        doc["format"] = MANIFEST_FORMAT
        if partial:
            doc["partial"] = True
        return atomic_write_text(
            self.manifest_path,
            json.dumps(doc, indent=2, sort_keys=True) + "\n",
        )

    def load_manifest(self) -> dict[str, Any] | None:
        """The last flushed manifest document, or ``None``."""
        try:
            doc = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
            return None
        return doc
