"""The write-ahead ingest journal: fsync-before-ack durability for deltas.

Base files (:mod:`repro.persist.checkpoint`) make an EDB durable;
:class:`IngestJournal` makes the acknowledgment of a :meth:`Session.ingest
<repro.persist.session.Session.ingest>` durable, so a process killed
before the next base — or ingesting while the checkpoint store is
degraded to in-memory — loses nothing it acknowledged.  The classic
write-ahead contract:

* **append-only, CRC-framed records** — each ingest is one normalized
  :class:`JournalRecord` (sequence number, the *pre-ingest* workload
  digest, the deduplicated EDB rows) encoded as a single framed line
  ``J1 <crc32> <len> <canonical json>``;
* **fsync before ack** — :meth:`IngestJournal.commit` writes the frame
  and ``fsync``\\ s the segment before the caller acknowledges anything;
  a record is *acknowledged* exactly when the fsync returned;
* **torn-tail truncation on open** — scanning a segment stops at the
  first frame that fails CRC/shape verification and truncates the file
  there, so a crash mid-append costs at most the unacknowledged tail,
  never a parse error;
* **segment rotation and compaction** — records land in numbered
  ``journal-<n>.log`` segments; once a *covering* base lands (its EDB
  holds every row up to sequence ``s``), :meth:`IngestJournal.compact`
  deletes the segments that ``s`` fully covers.

The durable state is the newest base plus this journal.  Recovery
folds in the base, replays the journal suffix idempotently, and
re-derives the fixpoint with one evaluation; :meth:`Session.recover
<repro.persist.session.Session.recover>` — the journal's only reader —
documents it.  Replaying a record whose rows are already present is a
no-op by construction (EDB rows are sets).

:class:`FlakyJournal` is the journal under the chaos harness
(:class:`~repro.robustness.faults.FlakyIO`); :func:`commit_with_retry`
is :func:`~repro.persist.store.with_retry` around a commit.

This journal is also the durable delta-log substrate that DRed-style
retractions (parked in ROADMAP) would replay: a deletion record is just
a future ``kind`` on the same frame format.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from ..observability.trace import Tracer, get_tracer
from ..robustness.budget import Governor, RetryPolicy
from ..robustness.faults import FlakyIO
from .checkpoint import CheckpointError
from .store import with_retry

__all__ = [
    "JOURNAL_VERSION",
    "JournalRecord",
    "JournalError",
    "JournalCorrupt",
    "JournalMismatch",
    "JournalUnavailable",
    "IngestJournal",
    "FlakyJournal",
    "commit_with_retry",
]

#: Format tag written at the head of every frame (bump on layout change).
JOURNAL_VERSION = 1

_MAGIC = b"J1"


class JournalError(CheckpointError):
    """Base class of every journal-layer error."""


class JournalCorrupt(JournalError):
    """A journal frame failed structural or CRC verification."""


class JournalMismatch(JournalError):
    """A record does not chain onto the session's workload digest."""


class JournalUnavailable(JournalError):
    """Every retry of a journal commit failed; the ingest is NOT acked."""


@dataclass(frozen=True)
class JournalRecord:
    """One normalized, acknowledged-once-fsynced ingest.

    ``workload`` is the digest of the session's workload *before* this
    record's rows were applied — the chain link that lets recovery
    position the record against the initial EDB and any base.
    ``rows`` are the deduplicated ``(predicate, row)`` pairs that were
    genuinely new at append time, in sorted-predicate order.
    """

    seq: int
    workload: str
    rows: tuple[tuple[str, tuple], ...]

    def to_payload(self) -> dict:
        return {
            "version": JOURNAL_VERSION,
            "seq": self.seq,
            "workload": self.workload,
            "rows": [[predicate, list(row)] for predicate, row in self.rows],
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "JournalRecord":
        try:
            version = int(payload["version"])
            if version != JOURNAL_VERSION:
                raise JournalCorrupt(
                    f"unsupported journal record version {version} "
                    f"(this build reads version {JOURNAL_VERSION})"
                )
            rows = tuple(
                (str(predicate), tuple(row)) for predicate, row in payload["rows"]
            )
            return cls(
                seq=int(payload["seq"]),
                workload=str(payload["workload"]),
                rows=rows,
            )
        except JournalCorrupt:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalCorrupt(f"malformed journal record: {exc}") from exc

    def encode(self) -> bytes:
        """The CRC-framed single-line encoding of this record."""
        payload = json.dumps(
            self.to_payload(), sort_keys=True, separators=(",", ":")
        ).encode()
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        return b"%s %08x %d %s\n" % (_MAGIC, crc, len(payload), payload)


def _parse_frame(data: bytes, offset: int) -> "tuple[JournalRecord, int] | None":
    """Parse one frame at ``offset``; ``None`` on a torn/corrupt tail."""
    end = data.find(b"\n", offset)
    if end < 0:
        return None
    line = data[offset:end]
    parts = line.split(b" ", 3)
    if len(parts) != 4 or parts[0] != _MAGIC:
        return None
    try:
        crc = int(parts[1], 16)
        length = int(parts[2])
    except ValueError:
        return None
    payload = parts[3]
    if len(payload) != length or (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        return None
    try:
        record = JournalRecord.from_payload(json.loads(payload))
    except (json.JSONDecodeError, JournalCorrupt):
        return None
    return record, end + 1


class IngestJournal:
    """An append-only, fsync-before-ack journal in one directory."""

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        tracer: Tracer | None = None,
        segment_records: int = 512,
    ):
        if segment_records < 1:
            raise ValueError(f"segment_records must be >= 1, got {segment_records}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_records = segment_records
        self._tracer = tracer
        self._segments: "dict[Path, list[JournalRecord]] | None" = None
        self._active: Path | None = None
        self._fd: int | None = None
        self._good_offset = 0
        self._pending: "tuple[JournalRecord, int] | None" = None
        self._last_seq = 0
        self._covered = 0
        self._next_segment = 1

    @property
    def tracer(self) -> Tracer:
        # Resolved per call, like the checkpoint store: the journal must
        # see a tracer installed globally (e.g. by chaos()) after
        # construction.
        return self._tracer if self._tracer is not None else get_tracer()

    # -- scanning ------------------------------------------------------
    def _segment_paths(self) -> list[Path]:
        return sorted(self.directory.glob("journal-*.log"))

    def open(self) -> "IngestJournal":
        """Scan segments, truncating any torn tail; idempotent."""
        if self._segments is not None:
            return self
        segments: dict[Path, list[JournalRecord]] = {}
        last_seq = 0
        next_segment = 1
        active: Path | None = None
        good_offset = 0
        tracer = self.tracer
        paths = self._segment_paths()
        for path in paths:
            number = _segment_number(path)
            if number is not None:
                next_segment = max(next_segment, number + 1)
            data = path.read_bytes()
            offset = 0
            records: list[JournalRecord] = []
            while offset < len(data):
                parsed = _parse_frame(data, offset)
                if parsed is None:
                    # Torn tail: a crash mid-append (or a spilled torn
                    # fault) left a partial frame.  Everything before it
                    # was fsynced whole; everything from here on was
                    # never acknowledged.
                    os.truncate(path, offset)
                    if tracer.enabled:
                        tracer.event(
                            "journal.truncate",
                            segment=path.name,
                            at=offset,
                            dropped_bytes=len(data) - offset,
                        )
                    break
                record, offset = parsed
                records.append(record)
                last_seq = max(last_seq, record.seq)
            segments[path] = records
            active = path
            good_offset = offset
        self._segments = segments
        self._last_seq = last_seq
        self._next_segment = next_segment
        self._active = active
        self._good_offset = good_offset if active is not None else 0
        return self

    # -- append / sync / commit ----------------------------------------
    def next_seq(self) -> int:
        """One past the highest record sequence number on disk."""
        self.open()
        return self._last_seq + 1

    @property
    def last_seq(self) -> int:
        self.open()
        return self._last_seq

    def _ensure_fd(self) -> int:
        if self._active is None:
            self._active = self.directory / f"journal-{self._next_segment:08d}.log"
            self._next_segment += 1
            assert self._segments is not None
            self._segments[self._active] = []
            self._good_offset = 0
        if self._fd is None:
            self._fd = os.open(self._active, os.O_RDWR | os.O_CREAT, 0o644)
        return self._fd

    def rotate(self) -> Path:
        """Close the active segment and start a new one."""
        self.open()
        self._close_fd()
        previous = self._active
        self._active = None
        self._pending = None
        self._ensure_fd()
        assert self._active is not None
        tracer = self.tracer
        if tracer.enabled:
            tracer.event(
                "journal.rotate",
                segment=self._active.name,
                previous=None if previous is None else previous.name,
            )
        return self._active

    def append(self, record: JournalRecord) -> int:
        """Write (but do not yet fsync) one frame; returns its size.

        The frame always lands at the last *acknowledged* offset, so a
        failed or unsynced earlier attempt is simply overwritten — the
        retry loop in :func:`commit_with_retry` needs no special
        truncation step.
        """
        self.open()
        assert self._segments is not None
        if (
            self._active is not None
            and len(self._segments[self._active]) >= self.segment_records
        ):
            self.rotate()
        frame = record.encode()
        self.spill(frame)
        self._pending = (record, len(frame))
        tracer = self.tracer
        if tracer.enabled:
            tracer.event(
                "journal.append",
                seq=record.seq,
                bytes=len(frame),
                rows=len(record.rows),
                segment=self._active.name,  # type: ignore[union-attr]
            )
        return len(frame)

    def sync(self) -> None:
        """``fsync`` the pending frame — the acknowledgment point."""
        self.open()
        if self._pending is None:
            return
        assert self._fd is not None and self._active is not None
        os.fsync(self._fd)
        record, size = self._pending
        self._good_offset += size
        self._last_seq = max(self._last_seq, record.seq)
        assert self._segments is not None
        self._segments[self._active].append(record)
        self._pending = None
        tracer = self.tracer
        if tracer.enabled:
            tracer.event(
                "journal.fsync",
                seq=record.seq,
                bytes=size,
                segment=self._active.name,
            )

    def commit(self, record: JournalRecord) -> int:
        """Append + fsync: the record is acknowledged when this returns
        (the frame's size in bytes)."""
        size = self.append(record)
        self.sync()
        return size

    def spill(self, data: bytes) -> None:
        """Write raw bytes at the acknowledged offset without acking:
        :meth:`append`'s write, and on its own a write interrupted
        mid-frame (:class:`FlakyJournal`'s ``torn`` flavor) — the next
        scan truncates the bytes away, the next append overwrites them."""
        self.open()
        fd = self._ensure_fd()
        os.lseek(fd, self._good_offset, os.SEEK_SET)
        os.write(fd, data)
        os.ftruncate(fd, self._good_offset + len(data))

    # -- reading -------------------------------------------------------
    def records(self) -> list[JournalRecord]:
        """Every live (acknowledged, uncompacted) record, by sequence."""
        self.open()
        assert self._segments is not None
        out = [record for records in self._segments.values() for record in records]
        out.sort(key=lambda record: record.seq)
        return out

    def replay(self, after_seq: int = 0) -> list[JournalRecord]:
        """The records with ``seq > after_seq``, oldest first.

        Emits one ``journal.replay`` trace event per call — the chaos
        site for recovery-path faults.
        """
        suffix = [r for r in self.records() if r.seq > after_seq]
        tracer = self.tracer
        if tracer.enabled:
            tracer.event(
                "journal.replay",
                records=len(suffix),
                after_seq=after_seq,
                last_seq=self._last_seq,
            )
        return suffix

    def lag(self, covered_seq: int | None = None) -> int:
        """How many acknowledged records a covering base has NOT
        absorbed yet (the daemon's ``journal_lag`` health field)."""
        covered = self._covered if covered_seq is None else covered_seq
        return sum(1 for record in self.records() if record.seq > covered)

    # -- compaction ----------------------------------------------------
    def compact(self, covered_seq: int) -> int:
        """Drop segments fully covered by a base.

        ``covered_seq`` is the highest record sequence whose rows the
        newest base holds.  A segment is deleted only
        when *every* record in it is covered; a partially covered
        segment stays (replay is idempotent, so re-seeing covered
        records is harmless).  Returns the number of segments removed.
        """
        self.open()
        self._covered = max(self._covered, covered_seq)
        assert self._segments is not None
        removed = 0
        for path, records in list(self._segments.items()):
            if not records or max(r.seq for r in records) > self._covered:
                continue
            if path == self._active:
                if self._pending is not None:
                    continue  # never drop an in-flight frame
                self._close_fd()
                self._active = None
                self._good_offset = 0
            del self._segments[path]
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        if removed:
            tracer = self.tracer
            if tracer.enabled:
                tracer.event(
                    "journal.compact",
                    covered_seq=self._covered,
                    segments_removed=removed,
                    records_live=len(self.records()),
                )
        return removed

    # -- diagnostics ---------------------------------------------------
    def info(self) -> dict:
        """A JSON-ready summary for ``session inspect`` and ``/stats``."""
        self.open()
        records = self.records()
        return {
            "directory": str(self.directory),
            "segments": len(self._segment_paths()),
            "records": len(records),
            "last_seq": self._last_seq,
            "covered_seq": self._covered,
            "lag": sum(1 for r in records if r.seq > self._covered),
        }

    def _close_fd(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def close(self) -> None:
        self._close_fd()

    def __enter__(self) -> "IngestJournal":
        return self.open()

    def __exit__(self, *exc: object) -> None:
        self.close()


def _segment_number(path: Path) -> int | None:
    stem = path.name.removeprefix("journal-").removesuffix(".log")
    return int(stem) if stem.isdigit() else None


class FlakyJournal(FlakyIO):
    """An :class:`IngestJournal` whose ``append``, ``sync`` and
    ``replay`` fail on command (sites ``journal.append`` /
    ``journal.fsync`` / ``journal.replay``); a *torn* append lands the
    first half of the frame at the acknowledged offset — a write
    interrupted mid-frame — for torn-tail truncation to find on
    reopen."""

    @property
    def journal(self) -> IngestJournal:
        return self.inner  # type: ignore[return-value]

    def append(self, record: JournalRecord) -> int:
        def tear() -> None:
            frame = record.encode()
            self.journal.spill(frame[: len(frame) // 2])

        self._fault("journal.append", tear)
        return self.journal.append(record)

    def sync(self) -> None:
        self._fault("journal.fsync")
        self.journal.sync()

    def commit(self, record: JournalRecord) -> int:
        size = self.append(record)
        self.sync()
        return size

    def replay(self, after_seq: int = 0) -> list[JournalRecord]:
        self._fault("journal.replay")
        return self.journal.replay(after_seq)


def commit_with_retry(
    journal: "IngestJournal | FlakyJournal",
    record: JournalRecord,
    *,
    policy: RetryPolicy | None = None,
    governor: Governor | None = None,
    sleep=time.sleep,
) -> int:
    """Commit ``record`` under :func:`~repro.persist.store.with_retry`;
    returns the acknowledged frame's size in bytes.  An exhausted
    attempt budget raises :class:`JournalUnavailable` — the ingest is
    then NOT acknowledged and the session takes the staged batch back.
    Re-attempts are safe: :meth:`IngestJournal.append` always writes at
    the last acknowledged offset, so a failed attempt's frame is
    overwritten, never duplicated."""
    return with_retry(
        journal,
        journal.commit,
        record,
        phase="journal",
        what="journal commit",
        unavailable=JournalUnavailable,
        policy=policy,
        governor=governor,
        sleep=sleep,
    )
