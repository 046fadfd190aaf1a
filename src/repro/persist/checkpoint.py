"""The on-disk checkpoint format: versioned, content-addressed JSON.

A checkpoint is one :class:`EvaluationSnapshot` — a complete fixpoint
and the EDB it was computed from — wrapped with the metadata that
makes it safe to trust across process boundaries:

* a **format version** (:data:`CHECKPOINT_VERSION`), so a future format
  change can be detected instead of mis-parsed;
* a **workload digest** — SHA-256 over the program's rules and query
  and the integrity constraints, bound to a multiset hash of every EDB
  row (:mod:`repro.digest`) — binding the checkpoint to the exact
  inputs it was computed from.  Restoring a checkpoint
  against a *different* workload would silently produce answers for
  neither, so a mismatched digest is treated exactly like corruption;
* a **content checksum** — SHA-256 over the canonical JSON encoding of
  the payload, embedded next to it and baked into the filename
  (``ckpt-<seq>-<checksum12>.json``).  The payload is serialized once:
  the file is those canonical bytes inside a two-field envelope.  A torn write, a truncated file
  or a bit flip fails verification on load and the file is quarantined
  (renamed to ``*.corrupt``), never silently used.

Rows must contain JSON scalars only (ints, strings, floats, bools,
``None``) — which is what the parser produces — so the relation/row
round trip is lossless and ``repr``-stable, keeping
:func:`fixpoint_digest` byte-identical across a save/load cycle.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from ..datalog.database import Row
from ..datalog.evaluation import EvaluationStats
from ..digest import fixpoint_digest, workload_digest
from ..robustness.errors import ReproError

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointCorrupt",
    "CheckpointMismatch",
    "EvaluationSnapshot",
    "workload_digest",
    "fixpoint_digest",
]

#: Format version written into (and required of) every checkpoint file.
#: Version 2: workload digests bind to the multiset EDB hash, and the
#: file embeds the canonical payload bytes the checksum was taken over.
CHECKPOINT_VERSION = 2


class CheckpointError(ReproError):
    """Base class of every persistence-layer error."""


class CheckpointCorrupt(CheckpointError):
    """A checkpoint failed structural or checksum verification."""


class CheckpointMismatch(CheckpointError):
    """A (valid) checkpoint belongs to a different workload digest."""


# workload_digest / fixpoint_digest are re-exported from
# :mod:`repro.digest` — the single shared definition used by persist
# and serve (so the digest computations can't drift).


def _rows_payload(rows: "Iterable[Row]") -> list[list]:
    return [list(row) for row in sorted(rows, key=repr)]


def _rows_restore(payload: object) -> frozenset:
    if not isinstance(payload, list):
        raise CheckpointCorrupt(f"rows payload is {type(payload).__name__}, not a list")
    return frozenset(tuple(row) for row in payload)


@dataclass(frozen=True)
class EvaluationSnapshot:
    """A complete fixpoint as a checkpoint holds it: plain rows and counters.

    ``idb`` holds every derived relation, ``stats`` the cumulative work
    counters of the evaluations and ingests that produced them, and
    ``edb`` the extensional database they were derived from.  Ingested
    facts live nowhere else once the write-ahead journal compacts, so a
    checkpoint is self-contained: restore = EDB + IDB from the
    checkpoint, then replay the journal suffix.  ``edb`` is ``None`` on
    checkpoints written before the journal (and on the worker warm-start
    envelope of :mod:`repro.parallel.engine`, which ships the EDB beside
    it).  No compiled plans, indexes or interner codes: the persistence
    layer never reaches into engine internals.

    ``completed_sccs`` is the program's SCC count — every SCC of a
    complete fixpoint is complete.  ``complete`` is ``False`` only for
    the per-round frontier checkpoints older builds wrote; they load so
    that recovery can skip them, and nothing resumes from them.
    """

    idb: Mapping[str, frozenset]
    stats: EvaluationStats
    edb: "Mapping[str, frozenset] | None" = None
    completed_sccs: int = 0
    complete: bool = True


@dataclass(frozen=True)
class Checkpoint:
    """One durable evaluation snapshot plus its binding metadata."""

    seq: int
    workload: str
    snapshot: EvaluationSnapshot
    version: int = CHECKPOINT_VERSION

    @property
    def complete(self) -> bool:
        return self.snapshot.complete

    @property
    def latest_round(self) -> int:
        """The semi-naive rounds the checkpointed fixpoint took, cumulatively.

        Exposed on the envelope so summary consumers (``repro session
        inspect``, the daemon's ``/stats`` endpoint) never re-parse the
        snapshot payload to learn how far the fixpoint had progressed.
        """
        return self.snapshot.stats.iterations

    def summary(self) -> dict:
        """A JSON-ready envelope summary (no row payloads).

        The shared shape behind ``repro session inspect`` and the
        serving daemon's ``/stats``: sequence number, completeness,
        ``latest_round``, fact count and cumulative stats.
        """
        return {
            "seq": self.seq,
            "complete": self.complete,
            "latest_round": self.latest_round,
            "facts": sum(len(rows) for rows in self.snapshot.idb.values()),
            "stats": self.snapshot.stats.as_dict(),
        }

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The canonical JSON-ready payload (checksum not included)."""
        snap = self.snapshot
        return {
            "version": self.version,
            "seq": self.seq,
            "workload": self.workload,
            "snapshot": {
                # Older builds read these keys unconditionally (they
                # resumed from per-round frontiers); a complete fixpoint
                # has no frontier, no cursor and no interner table.
                "strategy": "seminaive",
                "completed_sccs": snap.completed_sccs,
                "scc_index": None,
                "iteration": snap.stats.iterations,
                "delta": None,
                "interner": None,
                "complete": snap.complete,
                "idb": {pred: _rows_payload(rows) for pred, rows in sorted(snap.idb.items())},
                "edb": None
                if snap.edb is None
                else {pred: _rows_payload(rows) for pred, rows in sorted(snap.edb.items())},
                "stats": snap.stats.as_dict(),
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "Checkpoint":
        """Rebuild from a payload, raising :class:`CheckpointCorrupt` on bad shapes."""
        try:
            version = int(payload["version"])
            if version != CHECKPOINT_VERSION:
                raise CheckpointCorrupt(
                    f"unsupported checkpoint version {version} "
                    f"(this build reads version {CHECKPOINT_VERSION})"
                )
            snap = payload["snapshot"]
            # Older builds also wrote naive snapshots, which no build
            # ever restored from.
            strategy = snap.get("strategy", "seminaive")
            if strategy != "seminaive":
                raise CheckpointCorrupt(f"unsupported evaluation strategy {strategy!r}")
            # An older build's frontier (``complete`` false) loads with
            # its rows but without its frontier and cursor: recovery
            # skips it, so the keys that only served resume are unread.
            snapshot = EvaluationSnapshot(
                idb={str(p): _rows_restore(rows) for p, rows in snap["idb"].items()},
                stats=EvaluationStats.from_dict(snap["stats"]),
                # .get: checkpoints written before the ingest journal
                # carry no EDB and load as derived-state-only.
                edb=None
                if snap.get("edb") is None
                else {str(p): _rows_restore(rows) for p, rows in snap["edb"].items()},
                completed_sccs=int(snap.get("completed_sccs", 0)),
                complete=bool(snap.get("complete", False)),
            )
            return cls(
                seq=int(payload["seq"]),
                workload=str(payload["workload"]),
                snapshot=snapshot,
                version=version,
            )
        except CheckpointCorrupt:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointCorrupt(f"malformed checkpoint payload: {exc}") from exc

    # ------------------------------------------------------------------
    @cached_property
    def _encoded(self) -> tuple[str, str]:
        canonical = json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
        checksum = hashlib.sha256(canonical.encode()).hexdigest()
        return f'{{"checksum":"{checksum}","payload":{canonical}}}', checksum

    def encode(self) -> tuple[str, str]:
        """``(file text, checksum)`` — canonical JSON with embedded checksum.

        The payload is serialized once per checkpoint (snapshots are
        immutable): the checksum is taken over those bytes and the
        envelope assembled around them.
        """
        return self._encoded

    @classmethod
    def decode(cls, text: str) -> "Checkpoint":
        """Parse and verify a checkpoint file's content.

        Raises :class:`CheckpointCorrupt` when the JSON is unparsable,
        the envelope is malformed, or the embedded checksum does not
        match the canonical re-encoding of the payload.
        """
        try:
            envelope = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointCorrupt(f"checkpoint is not valid JSON: {exc}") from exc
        if not isinstance(envelope, dict) or "checksum" not in envelope or "payload" not in envelope:
            raise CheckpointCorrupt("checkpoint envelope lacks checksum/payload")
        payload = envelope["payload"]
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        checksum = hashlib.sha256(canonical.encode()).hexdigest()
        if checksum != envelope["checksum"]:
            raise CheckpointCorrupt(
                f"checksum mismatch: file says {str(envelope['checksum'])[:12]}…, "
                f"content hashes to {checksum[:12]}…"
            )
        return cls.from_payload(payload)

    def filename(self) -> str:
        """The content-addressed filename: ``ckpt-<seq>-<checksum12>.json``."""
        return f"ckpt-{self.seq:08d}-{self._encoded[1][:12]}.json"
