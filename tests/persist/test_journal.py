"""IngestJournal mechanics: framing, torn tails, bases, compaction.

The journal is the durability substrate under ``Session`` — an
append-only log of CRC-framed records where a record is *acknowledged*
exactly when its fsync returns, and where a base starts a fresh
segment.  These tests pin the format and the recovery-relevant
invariants directly; crash/recovery semantics through the session layer
live in ``test_recover.py``.
"""

import json
import zlib

import pytest

from repro.observability import RingBufferSink, Tracer
from repro.persist.journal import (
    FlakyJournal,
    IngestJournal,
    JournalRecord,
    JournalUnavailable,
    RetryPolicy,
    commit_with_retry,
)
from repro.robustness import FaultInjector


def _record(seq, rows=((("edge"), (1, 2)),)):
    return JournalRecord(
        seq=seq, workload="w" * 64, rows=tuple((p, tuple(r)) for p, r in rows)
    )


def _base(seq):
    return JournalRecord(
        seq=seq, workload="b" * 64, rows=(("edge", (1, 2)),), written=1.0
    )


def test_record_payload_round_trip():
    record = _record(3, rows=[("edge", (1, 2)), ("edge", ("a", "b"))])
    assert JournalRecord.from_payload(record.to_payload()) == record


def test_frame_is_crc_checked():
    record = _record(1)
    frame = record.encode()
    magic, crc, length, payload = frame.split(b" ", 3)
    assert magic == b"J1"
    assert payload.endswith(b"\n")
    body = payload[:-1]
    assert int(length) == len(body)
    assert int(crc, 16) == zlib.crc32(body) & 0xFFFFFFFF


def test_commit_then_reopen_replays_in_order(tmp_path):
    with IngestJournal(tmp_path) as journal:
        for seq in (1, 2, 3):
            journal.commit(_record(seq))
    reopened = IngestJournal(tmp_path)
    assert [r.seq for r in reopened.replay()] == [1, 2, 3]
    assert reopened.next_seq() == 4


def test_a_version_1_frame_is_read_as_an_ingest_record(tmp_path):
    """An older build's frames are version 1; a reopen reads them, and
    this build's frames continue the same segment after them."""
    payload = json.dumps(
        {"version": 1, "seq": 1, "workload": "w" * 64, "rows": [["edge", [1, 2]]]},
        sort_keys=True, separators=(",", ":"),
    ).encode()
    frame = b"J1 %08x %d %s\n" % (zlib.crc32(payload) & 0xFFFFFFFF, len(payload), payload)
    (tmp_path / "journal-00000001.log").write_bytes(frame)
    journal = IngestJournal(tmp_path)
    assert journal.records() == [_record(1)]
    journal.commit(_record(2))
    assert [r.seq for r in IngestJournal(tmp_path).records()] == [1, 2]


def test_torn_tail_is_truncated_on_open(tmp_path):
    sink = RingBufferSink()
    with IngestJournal(tmp_path) as journal:
        journal.commit(_record(1))
        journal.commit(_record(2))
    (segment,) = sorted(tmp_path.glob("journal-*.log"))
    data = segment.read_bytes()
    # A crash mid-append leaves a partial frame after the fsynced ones.
    segment.write_bytes(data + _record(3).encode()[:11])
    reopened = IngestJournal(tmp_path, tracer=Tracer([sink]))
    assert [r.seq for r in reopened.replay()] == [1, 2]
    assert "journal.truncate" in [event.name for event in sink]
    # The truncated tail is gone from disk, not just skipped in memory.
    assert segment.read_bytes() == data
    # Appending after the truncation extends the clean prefix.
    reopened.commit(_record(3))
    assert [r.seq for r in IngestJournal(tmp_path).replay()] == [1, 2, 3]


def test_corrupted_middle_frame_drops_the_suffix(tmp_path):
    with IngestJournal(tmp_path) as journal:
        journal.commit(_record(1))
        journal.commit(_record(2))
    (segment,) = sorted(tmp_path.glob("journal-*.log"))
    data = bytearray(segment.read_bytes())
    data[len(data) // 4] ^= 0xFF  # flip a bit inside the first frame
    segment.write_bytes(bytes(data))
    # Everything from the corrupt frame on is indistinguishable from a
    # torn tail: replay stops at the last verifiable prefix.
    assert IngestJournal(tmp_path).replay() == []


def test_segment_rotation_and_info(tmp_path):
    """Only a base starts a segment: ingest records share one."""
    journal = IngestJournal(tmp_path)
    for seq in range(1, 4):
        journal.commit(_record(seq))
    journal.write_base(_base(4))
    journal.commit(_record(5))
    first, second = sorted(tmp_path.glob("journal-*.log"))
    assert [r.seq for r in IngestJournal(tmp_path).frames()] == [1, 2, 3, 4, 5]
    assert [f.base for f in IngestJournal(tmp_path).frames()] == [False] * 3 + [True, False]
    info = journal.info()
    assert info["segments"] == 2
    assert info["records"] == 4  # the base is not an ingest record
    assert info["last_seq"] == 5
    assert journal.lag(0) == 4 and journal.lag(4) == 1


def test_compaction_removes_every_segment_older_than_the_base(tmp_path):
    journal = IngestJournal(tmp_path)
    for seq in range(1, 3):
        journal.commit(_record(seq))
    journal.write_base(_base(3))
    journal.commit(_record(4))
    journal.write_base(_base(5))
    journal.commit(_record(6))
    assert journal.compact(3) == 1  # the segment of records 1 and 2
    assert journal.compact(99) == 0  # no segment starts at such a base
    assert journal.compact(5) == 1
    assert [r.seq for r in journal.frames()] == [5, 6]
    assert journal.lag(5) == 1
    # A fresh open sees the same surviving base and suffix.
    assert [r.seq for r in IngestJournal(tmp_path).frames()] == [5, 6]
    assert IngestJournal(tmp_path).next_seq() == 7


def test_append_without_sync_is_not_acknowledged(tmp_path):
    journal = IngestJournal(tmp_path)
    journal.commit(_record(1))
    journal.append(_record(2))  # written, never fsynced
    # The unsynced record is invisible to a recovery-style reopen scan
    # of acknowledged state: replay on a fresh handle may see it only
    # if the bytes happened to land, but this handle has not acked it.
    assert journal.last_seq == 1
    journal.sync()
    assert journal.last_seq == 2


def test_retry_after_failed_append_does_not_duplicate(tmp_path):
    journal = IngestJournal(tmp_path)
    journal.commit(_record(1))
    # Simulate a failed attempt: append lands bytes but the fsync never
    # runs (crash window).  The re-attempt must overwrite, not append.
    journal.append(_record(2))
    journal.commit(_record(2))
    assert [r.seq for r in IngestJournal(tmp_path).replay()] == [1, 2]


@pytest.mark.parametrize("site", ["journal.append", "journal.fsync"])
def test_transient_fault_is_retried_to_success(tmp_path, site):
    injector = FaultInjector().arm(site, at=1)
    journal = FlakyJournal(IngestJournal(tmp_path), injector)
    commit_with_retry(
        journal,
        _record(1),
        policy=RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0),
        sleep=lambda _s: None,
    )
    assert [r.seq for r in journal.replay()] == [1]


def test_exhausted_retries_raise_journal_unavailable(tmp_path):
    injector = FaultInjector().arm_random("journal.append", rate=1.0)
    journal = FlakyJournal(IngestJournal(tmp_path), injector)
    with pytest.raises(JournalUnavailable):
        commit_with_retry(
            journal,
            _record(1),
            policy=RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0),
            sleep=lambda _s: None,
        )
    # Nothing was acknowledged: a recovery replay sees an empty journal.
    assert IngestJournal(tmp_path).replay() == []


def test_fsync_fault_leaves_unacked_record_in_indeterminate_window(tmp_path):
    """A fault *at fsync* means the frame's bytes may already be durable
    even though the commit was never acknowledged.  The journal does not
    pretend otherwise: a reopen may surface the record, and the session
    layer absorbs such un-acked records idempotently during recovery."""
    injector = FaultInjector().arm_random("journal.fsync", rate=1.0)
    journal = FlakyJournal(IngestJournal(tmp_path), injector)
    with pytest.raises(JournalUnavailable):
        commit_with_retry(
            journal,
            _record(1),
            policy=RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0),
            sleep=lambda _s: None,
        )
    # Not acknowledged on this handle...
    assert journal.journal.last_seq == 0
    # ...but the complete frame landed, so a reopen sees it.
    assert [r.seq for r in IngestJournal(tmp_path).replay()] == [1]


def test_torn_flavor_leaves_half_frame_that_reopen_truncates(tmp_path):
    inner = IngestJournal(tmp_path)
    inner.commit(_record(1))  # acknowledged before the faults start
    injector = FaultInjector().arm_random("journal.append", rate=1.0)
    journal = FlakyJournal(inner, injector, flavors=("torn",))
    with pytest.raises(JournalUnavailable):
        commit_with_retry(
            journal,
            _record(2),
            policy=RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0),
            sleep=lambda _s: None,
        )
    # The spilled half-frame is scrubbed on the next open; the
    # acknowledged prefix survives byte-for-byte.
    assert [r.seq for r in IngestJournal(tmp_path).replay()] == [1]


def test_enospc_flavor_surfaces_as_oserror(tmp_path):
    import errno

    injector = FaultInjector().arm("journal.append", at=1)
    journal = FlakyJournal(
        IngestJournal(tmp_path), injector, flavors=("enospc",)
    )
    with pytest.raises(OSError) as info:
        journal.commit(_record(1))
    assert info.value.errno == errno.ENOSPC


def test_journal_trace_events(tmp_path):
    sink = RingBufferSink()
    journal = IngestJournal(tmp_path, tracer=Tracer([sink]))
    journal.commit(_record(1))
    journal.write_base(_base(2))
    journal.replay()
    journal.compact(2)
    names = [event.name for event in sink]
    for expected in (
        "journal.append",
        "journal.fsync",
        "journal.replay",
        "journal.compact",
        "checkpoint.save",
    ):
        assert expected in names, names
