"""The on-disk base format: a session's EDB as versioned, content-addressed JSON.

A checkpoint ("base") holds the extensional database a session had
reached when it was written — the initial EDB plus every ingest the
journal had acknowledged — and never the fixpoint: a fixpoint is a
function of its EDB, so recovery re-derives it.  The EDB is wrapped
with the metadata that makes it safe to trust across process
boundaries:

* a **format version** (:data:`CHECKPOINT_VERSION`), so a format change
  is detected instead of mis-parsed;
* a **workload digest** — SHA-256 over the program's rules and query
  and the integrity constraints, bound to a multiset hash of every EDB
  row (:mod:`repro.digest`) — binding the base to the exact workload
  it belongs to.  Recovery folds in only a base whose EDB reproduces
  its own digest under the session's program;
* a **content checksum** — SHA-256 over the canonical JSON encoding of
  the payload, embedded next to it and baked into the filename
  (``ckpt-<seq>-<checksum12>.json``).  The payload is serialized once:
  the file is those canonical bytes inside a two-field envelope.  A torn write, a truncated file
  or a bit flip fails verification on load and the file is quarantined
  (renamed to ``*.corrupt``), never silently used.

Version 3 is ``{version, seq, workload, edb}``.  A version-2 file (an
older build's, which also stored the fixpoint and its counters) is read
for its ``edb`` only, and only when it is ``complete``: its ingested
rows may exist nowhere else once the journal compacted their records.
Nothing else in it is read, and this build never writes it.

Rows must contain JSON scalars only (ints, strings, floats, bools,
``None``) — which is what the parser produces — so the row round trip
is lossless and ``repr``-stable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from ..datalog.database import Row
from ..digest import fixpoint_digest, workload_digest
from ..robustness.errors import ReproError

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointCorrupt",
    "workload_digest",
    "fixpoint_digest",
]

#: Format version written into every base file.  Version 3 holds the
#: EDB alone; version 2 (read for its EDB) also held the fixpoint.
CHECKPOINT_VERSION = 3


class CheckpointError(ReproError):
    """Base class of every persistence-layer error."""


class CheckpointCorrupt(CheckpointError):
    """A checkpoint failed structural or checksum verification."""


# workload_digest / fixpoint_digest are re-exported from
# :mod:`repro.digest` — the single shared definition used by persist
# and serve (so the digest computations can't drift).


def _rows_payload(rows: "Iterable[Row]") -> list[list]:
    return [list(row) for row in sorted(rows, key=repr)]


def _rows_read(payload: object) -> frozenset:
    if not isinstance(payload, list):
        raise CheckpointCorrupt(f"rows payload is {type(payload).__name__}, not a list")
    return frozenset(tuple(row) for row in payload)


def _edb_read(payload: Mapping) -> "dict[str, frozenset]":
    return {str(pred): _rows_read(rows) for pred, rows in payload.items()}


@dataclass(frozen=True)
class Checkpoint:
    """One durable EDB plus its binding metadata.

    ``edb`` is ``None`` only when read from a valid version-2 file that
    holds no usable EDB (an older build's per-round frontier, or a file
    written before the journal): recovery passes over it and leaves it
    where it is.
    """

    seq: int
    workload: str
    edb: "Mapping[str, frozenset] | None"

    @property
    def edb_facts(self) -> int:
        return sum(len(rows) for rows in self.edb.values())

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The canonical JSON-ready payload (checksum not included)."""
        return {
            "version": CHECKPOINT_VERSION,
            "seq": self.seq,
            "workload": self.workload,
            "edb": {pred: _rows_payload(rows) for pred, rows in sorted(self.edb.items())},
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "Checkpoint":
        """Rebuild from a payload, raising :class:`CheckpointCorrupt` on bad shapes."""
        try:
            version = int(payload["version"])
            if version == CHECKPOINT_VERSION:
                edb = _edb_read(payload["edb"])
            elif version == 2:
                snap = payload["snapshot"]
                edb = snap.get("edb")
                edb = None if edb is None or not snap.get("complete") else _edb_read(edb)
            else:
                raise CheckpointCorrupt(
                    f"unsupported checkpoint version {version} "
                    f"(this build reads versions 2 and {CHECKPOINT_VERSION})"
                )
            return cls(seq=int(payload["seq"]), workload=str(payload["workload"]), edb=edb)
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

        The payload is serialized once per checkpoint (checkpoints are
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
