"""The ingest journal: the one durable format of a session's EDB.

A session's durable state is its EDB (the fixpoint is a function of
it, and recovery re-derives it).  :class:`IngestJournal` holds that EDB
in one directory of numbered segments ``journal-<n>.log``, each a
sequence of CRC-framed lines ``J1 <crc32> <len> <canonical json>``.
Every frame is one :class:`JournalRecord`, of one of two kinds:

* an **ingest record** — sequence number, the *pre-ingest* workload
  digest, and the deduplicated rows one acknowledged
  :meth:`Session.ingest <repro.persist.session.Session.ingest>` added;
* a **base** — the session's whole EDB, that EDB's workload digest and
  the time it was written.

The write-ahead contract:

* **fsync before ack** — :meth:`IngestJournal.commit` writes the frame
  and ``fsync``\\ s the segment before the caller acknowledges anything;
  a record is *acknowledged* exactly when the fsync returned;
* **torn-tail truncation on open** — scanning a segment stops at the
  first frame that fails CRC/shape verification and truncates the file
  there, so a crash mid-append costs at most the unacknowledged tail,
  never a parse error;
* **one base per directory** — :meth:`IngestJournal.write_base` starts
  a fresh segment with the base and fsyncs it, and only then does
  :meth:`IngestJournal.compact` unlink every older segment.  A
  directory therefore holds one base plus the ingest records after it
  (a new directory starts with ingest records alone: no base is
  written before one is due).

Frames are written as version 2, which marks a base by its
``written`` time; a version-1 frame (an older build's ingest record)
is read as an ingest record.  An older build truncates a segment at
the first version-2 frame it meets, so a directory this build has
written is not for it.

An older build also kept bases beside the journal, in the parent
directory, as ``ckpt-*.json`` files.  :func:`legacy_bases` reads them
for recovery, which consults them only when no base frame binds;
:meth:`IngestJournal.compact` deletes them once a base frame covers
them.

:meth:`Session.recover <repro.persist.session.Session.recover>` is the
journal's only reader.  :class:`FlakyJournal` is the journal under the
chaos harness (:class:`~repro.robustness.faults.FlakyIO`);
:func:`with_retry` is the retry loop of both durable writes, and
:func:`commit_with_retry` / :func:`save_with_retry` are that loop
around an ingest commit and a base write.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, TypeVar

from ..observability.trace import Tracer, get_tracer
from ..robustness.budget import Governor, RetryPolicy
from ..robustness.errors import ReproError
from ..robustness.faults import FlakyIO

Item = TypeVar("Item")
T = TypeVar("T")

__all__ = [
    "JOURNAL_VERSION",
    "JournalRecord",
    "JournalError",
    "JournalCorrupt",
    "JournalMismatch",
    "JournalUnavailable",
    "IngestJournal",
    "FlakyJournal",
    "RetryPolicy",
    "commit_with_retry",
    "legacy_bases",
    "save_with_retry",
    "with_retry",
]

#: Format version written into every frame; version 1 is still read.
JOURNAL_VERSION = 2

_MAGIC = b"J1"


class JournalError(ReproError):
    """Base class of every persistence-layer error."""


class JournalCorrupt(JournalError):
    """A journal frame failed structural or CRC verification."""


class JournalMismatch(JournalError):
    """A record does not chain onto the session's workload digest."""


class JournalUnavailable(JournalError):
    """Every retry of a durable write failed: an ingest is NOT acked, a
    base is not written."""


@dataclass(frozen=True)
class JournalRecord:
    """One frame: an acknowledged ingest, or a base.

    For an ingest record, ``workload`` is the digest of the session's
    workload *before* its rows were applied — the chain link that lets
    recovery position the record against the initial EDB and the base
    — and ``rows`` are the deduplicated ``(predicate, row)`` pairs that
    were genuinely new at append time, in sorted-predicate order.

    A base has ``written`` set (seconds since the epoch), ``rows``
    holding the session's whole EDB and ``workload`` that EDB's digest.
    """

    seq: int
    workload: str
    rows: tuple[tuple[str, tuple], ...]
    written: float | None = None

    @property
    def base(self) -> bool:
        return self.written is not None

    def to_payload(self) -> dict:
        payload = {
            "version": JOURNAL_VERSION,
            "seq": self.seq,
            "workload": self.workload,
            "rows": [[predicate, list(row)] for predicate, row in self.rows],
        }
        if self.base:
            payload["written"] = self.written
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "JournalRecord":
        try:
            version = int(payload["version"])
            if version not in (1, JOURNAL_VERSION):
                raise JournalCorrupt(
                    f"unsupported journal record version {version} "
                    f"(this build reads versions 1 and {JOURNAL_VERSION})"
                )
            written = payload.get("written")
            return cls(
                seq=int(payload["seq"]),
                workload=str(payload["workload"]),
                rows=tuple(
                    (str(predicate), tuple(row)) for predicate, row in payload["rows"]
                ),
                written=None if written is None else float(written),
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

    def __init__(self, directory: str | os.PathLike, *, tracer: Tracer | None = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._tracer = tracer
        self._segments: "dict[Path, list[JournalRecord]] | None" = None
        self._active: Path | None = None
        self._fd: int | None = None
        self._good_offset = 0
        self._pending: "tuple[JournalRecord, int] | None" = None
        self._last_seq = 0
        self._next_segment = 1

    @property
    def tracer(self) -> Tracer:
        # Resolved per call: the journal must see a tracer installed
        # globally (e.g. by chaos()) after construction.
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
        for path in self._segment_paths():
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
        """One past the highest frame sequence number on disk."""
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

    def _fresh_segment(self) -> None:
        """Make the active segment one that holds no acknowledged frame:
        a new one, unless the active one already holds none (a failed
        base write left it, and its retry reuses it)."""
        self.open()
        assert self._segments is not None
        if self._active is not None and not self._segments[self._active]:
            return
        self._close_fd()
        self._active = None
        self._pending = None
        self._ensure_fd()

    def _acknowledge(self, record: JournalRecord, size: int) -> None:
        assert self._segments is not None and self._active is not None
        self._good_offset += size
        self._last_seq = max(self._last_seq, record.seq)
        self._segments[self._active].append(record)

    def append(self, record: JournalRecord) -> int:
        """Write (but do not yet fsync) one frame; returns its size.

        The frame always lands at the last *acknowledged* offset, so a
        failed or unsynced earlier attempt is simply overwritten — the
        retry loop in :func:`commit_with_retry` needs no special
        truncation step.
        """
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
        self._pending = None
        self._acknowledge(record, size)
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

    def write_base(self, base: JournalRecord) -> int:
        """Write ``base`` as the first frame of a fresh segment and
        ``fsync`` it; returns the frame's size.  Older segments stay
        until :meth:`compact`."""
        self._fresh_segment()
        frame = base.encode()
        self.spill(frame)
        assert self._fd is not None and self._active is not None
        os.fsync(self._fd)
        self._acknowledge(base, len(frame))
        tracer = self.tracer
        if tracer.enabled:
            tracer.event(
                "checkpoint.save",
                seq=base.seq,
                edb_facts=len(base.rows),
                bytes=len(frame),
                segment=self._active.name,
            )
        return len(frame)

    def spill(self, data: bytes) -> None:
        """Write raw bytes at the acknowledged offset without acking:
        the write of :meth:`append` and :meth:`write_base`, and on its
        own a write interrupted mid-frame (:class:`FlakyJournal`'s
        ``torn`` flavor) — the next scan truncates the bytes away, the
        next write overwrites them."""
        self.open()
        fd = self._ensure_fd()
        os.lseek(fd, self._good_offset, os.SEEK_SET)
        os.write(fd, data)
        os.ftruncate(fd, self._good_offset + len(data))

    # -- reading -------------------------------------------------------
    def frames(self) -> list[JournalRecord]:
        """Every live (acknowledged, uncompacted) frame, bases included,
        by sequence."""
        self.open()
        assert self._segments is not None
        out = [record for records in self._segments.values() for record in records]
        out.sort(key=lambda record: record.seq)
        return out

    def records(self) -> list[JournalRecord]:
        """The live ingest records, by sequence."""
        return [frame for frame in self.frames() if not frame.base]

    def replay(self) -> list[JournalRecord]:
        """:meth:`frames`, read for recovery.

        Emits one ``journal.replay`` trace event per call — the chaos
        site for recovery-path faults.
        """
        frames = self.frames()
        tracer = self.tracer
        if tracer.enabled:
            tracer.event(
                "journal.replay",
                records=sum(1 for frame in frames if not frame.base),
                last_seq=self._last_seq,
            )
        return frames

    def lag(self, covered_seq: int) -> int:
        """How many live ingest records have a sequence number above
        ``covered_seq`` — those no base has absorbed yet (the daemon's
        ``journal_lag`` health field)."""
        return sum(1 for record in self.records() if record.seq > covered_seq)

    # -- compaction ----------------------------------------------------
    def compact(self, base_seq: int) -> int:
        """Unlink every segment older than the one base ``base_seq``
        starts, and every legacy ``ckpt-*.json`` base beside the
        journal: that base holds their rows.  Returns the number of
        segments removed (none when no segment starts at that base)."""
        self.open()
        assert self._segments is not None
        paths = list(self._segments)
        for start, path in enumerate(paths):
            first = self._segments[path][:1]
            if first and first[0].base and first[0].seq == base_seq:
                break
        else:
            return 0
        removed = 0
        for path in paths[:start]:
            del self._segments[path]
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        for legacy in self.directory.parent.glob("ckpt-*.json"):
            try:
                legacy.unlink()
            except OSError:
                continue
        if removed:
            tracer = self.tracer
            if tracer.enabled:
                tracer.event(
                    "journal.compact",
                    base_seq=base_seq,
                    segments_removed=removed,
                    records_live=len(self.records()),
                )
        return removed

    # -- diagnostics ---------------------------------------------------
    def info(self) -> dict:
        """A JSON-ready summary for ``session inspect`` and ``/stats``."""
        self.open()
        return {
            "directory": str(self.directory),
            "segments": len(self._segment_paths()),
            "records": len(self.records()),
            "last_seq": self._last_seq,
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


def legacy_bases(directory: Path) -> Iterator[JournalRecord]:
    """The ``ckpt-*.json`` bases an older build wrote into ``directory``,
    newest first, each as a base record (``written`` is the file's
    modification time).

    Such a file is ``{"checksum": <sha256>, "payload": <canonical
    json>}``.  A version-3 payload is ``{version, seq, workload, edb}``;
    a version-2 payload is read for its ``edb`` only, and only when
    ``complete``: its ingested rows may exist nowhere else once the
    journal compacted their records.  A file that does not verify or
    holds no EDB is passed over, and left where it is.
    """
    for path in sorted(directory.glob("ckpt-*.json"), reverse=True):
        try:
            envelope = json.loads(path.read_text())
            payload = envelope["payload"]
            canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            if hashlib.sha256(canonical.encode()).hexdigest() != envelope["checksum"]:
                continue
            version = payload["version"]
            if version == 3:
                edb = payload["edb"]
            elif version == 2 and payload["snapshot"].get("complete"):
                edb = payload["snapshot"]["edb"]
            else:
                continue
            yield JournalRecord(
                seq=int(payload["seq"]),
                workload=str(payload["workload"]),
                rows=tuple(
                    (str(predicate), tuple(row))
                    for predicate, rows in edb.items()
                    for row in rows
                ),
                written=path.stat().st_mtime,
            )
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            continue


class FlakyJournal(FlakyIO):
    """An :class:`IngestJournal` whose ``append``, ``sync``,
    ``write_base`` and ``replay`` fail on command (sites
    ``journal.append`` / ``journal.fsync`` / ``checkpoint.save`` /
    ``journal.replay``); a *torn* append or base write lands the first
    half of the frame at the acknowledged offset — a write interrupted
    mid-frame — for torn-tail truncation to find on reopen."""

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

    def write_base(self, base: JournalRecord) -> int:
        def tear() -> None:
            frame = base.encode()
            self.journal._fresh_segment()
            self.journal.spill(frame[: len(frame) // 2])

        self._fault("checkpoint.save", tear)
        return self.journal.write_base(base)

    def replay(self) -> list[JournalRecord]:
        self._fault("journal.replay")
        return self.journal.replay()


def with_retry(
    target: object,
    write: Callable[[Item], T],
    item: Item,
    *,
    phase: str,
    what: str,
    policy: RetryPolicy | None = None,
    governor: Governor | None = None,
    sleep=time.sleep,
) -> T:
    """``write(item)`` — one durable write to ``target`` of a numbered
    (``.seq``) item — retrying transient ``OSError`` failures.

    Before every attempt the governor (if any) is consulted, so a
    deadline that expires mid-backoff aborts with the usual
    :class:`~repro.robustness.errors.BudgetExceededError` instead of
    burning the remaining budget on sleeps; each sleep is clamped to
    the governor's remaining time and traced as ``<phase>.retry``.
    An exhausted attempt budget raises :class:`JournalUnavailable`.
    """
    policy = policy if policy is not None else RetryPolicy()
    delays = policy.delays()
    last_error: OSError | None = None
    for attempt in range(1, max(1, policy.attempts) + 1):
        if governor is not None:
            governor.check(phase)
        try:
            return write(item)
        except OSError as exc:
            last_error = exc
            delay = next(delays, None)
            if delay is None:
                break
            remaining = governor.remaining() if governor is not None else None
            if remaining is not None:
                delay = max(0.0, min(delay, remaining))
            tracer = target.tracer  # type: ignore[attr-defined]
            if tracer.enabled:
                tracer.event(
                    f"{phase}.retry",
                    seq=item.seq,  # type: ignore[attr-defined]
                    attempt=attempt,
                    delay=round(delay, 6),
                    error=str(exc),
                )
            sleep(delay)
    raise JournalUnavailable(
        f"{what} failed after {policy.attempts} attempts: {last_error}"
    ) from last_error


def commit_with_retry(
    journal: "IngestJournal | FlakyJournal",
    record: JournalRecord,
    *,
    policy: RetryPolicy | None = None,
    governor: Governor | None = None,
    sleep=time.sleep,
) -> int:
    """Commit ``record`` under :func:`with_retry`; returns the
    acknowledged frame's size in bytes.  An exhausted attempt budget
    raises :class:`JournalUnavailable` — the ingest is then NOT
    acknowledged and the session takes the staged batch back.
    Re-attempts are safe: :meth:`IngestJournal.append` always writes at
    the last acknowledged offset, so a failed attempt's frame is
    overwritten, never duplicated."""
    return with_retry(
        journal,
        journal.commit,
        record,
        phase="journal",
        what="journal commit",
        policy=policy,
        governor=governor,
        sleep=sleep,
    )


def save_with_retry(
    journal: "IngestJournal | FlakyJournal",
    base: JournalRecord,
    *,
    policy: RetryPolicy | None = None,
    governor: Governor | None = None,
    sleep=time.sleep,
) -> int:
    """Write ``base`` under :func:`with_retry`; returns the frame's
    size.  An exhausted attempt budget raises :class:`JournalUnavailable`
    — the caller's cue to degrade to in-memory evaluation.  A retry
    reuses the segment a failed attempt started."""
    return with_retry(
        journal,
        journal.write_base,
        base,
        phase="checkpoint",
        what="base write",
        policy=policy,
        governor=governor,
        sleep=sleep,
    )
