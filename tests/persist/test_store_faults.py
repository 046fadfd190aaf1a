"""Base writes: one base per directory, torn writes, fault flavors, retry policy."""

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.observability import RingBufferSink, Tracer
from repro.persist import Session, workload_digest
from repro.persist.journal import (
    FlakyJournal,
    IngestJournal,
    JournalRecord,
    JournalUnavailable,
    RetryPolicy,
    save_with_retry,
)
from repro.robustness import Budget, BudgetExceededError, FaultInjector, Governor

PROGRAM = parse_program(
    """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    q(Y) :- path(1, Y).
    """,
    query="q",
)


def _database(extra=()):
    return Database.from_rows({"edge": [(1, 2), (2, 3), (3, 4), *extra]})


def _base(seq, extra=()):
    database = _database(extra)
    return JournalRecord(
        seq=seq,
        workload=workload_digest(PROGRAM, database),
        rows=tuple(("edge", row) for row in sorted(database.relation("edge").rows())),
        written=1.0,
    )


def _segments(root):
    return sorted((root / "journal").glob("journal-*.log"))


def _recovered_from(root):
    """The seq of the base a fresh session's recovery folds in."""
    session = Session(PROGRAM, _database(), journal=IngestJournal(root / "journal"))
    session.recover()
    summary = session.base_summary()
    return None if summary is None else summary["seq"]


def test_save_load_latest_round_trip(tmp_path):
    journal = IngestJournal(tmp_path / "journal")
    journal.write_base(_base(1))
    journal.write_base(_base(2, [(4, 5)]))
    assert len(_segments(tmp_path)) == 2  # a base starts a fresh segment
    assert journal.next_seq() == 3
    assert journal.compact(2) == 1  # only once it is fsynced do older ones go
    assert [frame.seq for frame in IngestJournal(tmp_path / "journal").frames()] == [2]
    assert _recovered_from(tmp_path) == 2


def test_save_leaves_no_temp_files(tmp_path):
    session = Session(PROGRAM, _database(), journal=IngestJournal(tmp_path / "journal"))
    session.ingest([("edge", (4, 5))])
    assert session.checkpoint()
    assert [path.name for path in (tmp_path / "journal").iterdir()] == [
        _segments(tmp_path)[0].name
    ]


def test_a_torn_base_frame_is_truncated_on_open(tmp_path):
    sink = RingBufferSink()
    journal = IngestJournal(tmp_path / "journal")
    journal.write_base(_base(1))
    [segment] = _segments(tmp_path)
    segment.write_bytes(segment.read_bytes()[:50])
    reopened = IngestJournal(tmp_path / "journal", tracer=Tracer([sink]))
    assert reopened.frames() == []
    assert "journal.truncate" in [event.name for event in sink]
    assert segment.read_bytes() == b""
    assert _recovered_from(tmp_path) is None


def test_recovery_walks_past_a_torn_base_to_the_older_one(tmp_path):
    """A crash mid-way through a base write leaves the older segments,
    compaction never having run: recovery folds in the older base."""
    journal = IngestJournal(tmp_path / "journal")
    journal.write_base(_base(1))
    journal.write_base(_base(2, [(4, 5)]))
    newest = _segments(tmp_path)[-1]
    newest.write_text("garbage")
    assert _recovered_from(tmp_path) == 1


def test_workload_mismatch_is_never_quarantined(tmp_path):
    """A valid base of another workload is not folded in by recovery,
    and is left untouched on disk."""
    IngestJournal(tmp_path / "journal").write_base(_base(1))
    [segment] = _segments(tmp_path)
    before = segment.read_bytes()
    other = parse_program("q(X) :- edge(X, Y).", query="q")
    outcome = Session(
        other, _database(), journal=IngestJournal(tmp_path / "journal")
    ).recover()
    assert outcome.mode == "fresh"
    assert _segments(tmp_path) == [segment] and segment.read_bytes() == before
    assert _recovered_from(tmp_path) == 1


def test_empty_store_latest_is_none(tmp_path):
    assert _recovered_from(tmp_path) is None
    session = Session(PROGRAM, _database(), journal=IngestJournal(tmp_path / "journal"))
    assert session.inspect()["latest"] is None
    assert IngestJournal(tmp_path / "made" / "up").next_seq() == 1


# ----------------------------------------------------------------------
# FlakyJournal fault flavors at checkpoint.save
# ----------------------------------------------------------------------
def test_flaky_transient_then_success(tmp_path):
    injector = FaultInjector().arm("checkpoint.save", at=1)
    journal = FlakyJournal(IngestJournal(tmp_path / "journal"), injector)
    with pytest.raises(OSError):
        journal.write_base(_base(1))
    assert journal.write_base(_base(1)) > 0
    assert injector.fired == [("checkpoint.save", 1)]
    assert [frame.seq for frame in IngestJournal(tmp_path / "journal").frames()] == [1]


def test_flaky_enospc_flavor(tmp_path):
    import errno

    injector = FaultInjector().arm("checkpoint.save", at=1)
    journal = FlakyJournal(
        IngestJournal(tmp_path / "journal"), injector, flavors=("enospc",)
    )
    with pytest.raises(OSError) as info:
        journal.write_base(_base(1))
    assert info.value.errno == errno.ENOSPC
    assert IngestJournal(tmp_path / "journal").frames() == []


def test_flaky_torn_write_lands_truncated_bytes(tmp_path):
    injector = FaultInjector().arm("checkpoint.save", at=1)
    inner = IngestJournal(tmp_path / "journal")
    inner.commit(JournalRecord(seq=1, workload="w" * 64, rows=(("edge", (4, 5)),)))
    journal = FlakyJournal(inner, injector, flavors=("torn",))
    with pytest.raises(OSError):
        journal.write_base(_base(2))
    first, torn = _segments(tmp_path)  # the half frame landed in a fresh segment
    assert 0 < torn.stat().st_size < len(_base(2).encode())
    assert [frame.seq for frame in IngestJournal(tmp_path / "journal").frames()] == [1]
    assert torn.stat().st_size == 0  # truncated on reopen
    # A retry on the same handle reuses the segment the torn write started.
    journal.write_base(_base(2))
    assert _segments(tmp_path) == [first, torn]


def test_flaky_rejects_unknown_flavor(tmp_path):
    with pytest.raises(ValueError, match="flavor"):
        FlakyJournal(IngestJournal(tmp_path), FaultInjector(), flavors=("explode",))


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
def test_retry_policy_delays_capped_exponential_with_jitter():
    policy = RetryPolicy(attempts=5, base_delay=0.1, max_delay=0.3, jitter=0.5, seed=7)
    delays = list(policy.delays())
    assert len(delays) == 4
    caps = [0.1, 0.2, 0.3, 0.3]
    for delay, cap in zip(delays, caps):
        assert 0.5 * cap <= delay <= 1.5 * cap
    # deterministic for a fixed seed
    assert delays == list(policy.delays())
    # jitter actually varies across attempts
    assert len({round(d / c, 6) for d, c in zip(delays, caps)}) > 1


def test_save_with_retry_recovers(tmp_path):
    injector = FaultInjector().arm("checkpoint.save", at=1, times=2)
    sink = RingBufferSink()
    journal = FlakyJournal(
        IngestJournal(tmp_path / "journal", tracer=Tracer([sink])), injector
    )
    sleeps = []
    size = save_with_retry(
        journal,
        _base(1),
        policy=RetryPolicy(attempts=4, base_delay=0.001, max_delay=0.002),
        sleep=sleeps.append,
    )
    assert size == _segments(tmp_path)[-1].stat().st_size
    assert len(sleeps) == 2
    retries = [event for event in sink if event.name == "checkpoint.retry"]
    assert len(retries) == 2
    assert retries[0].attrs["attempt"] == 1


def test_save_with_retry_exhaustion_raises_unavailable(tmp_path):
    injector = FaultInjector().arm_random("checkpoint.save", rate=1.0)
    journal = FlakyJournal(IngestJournal(tmp_path / "journal"), injector)
    with pytest.raises(JournalUnavailable, match="after 3 attempts"):
        save_with_retry(
            journal,
            _base(1),
            policy=RetryPolicy(attempts=3, base_delay=0.001, max_delay=0.002),
            sleep=lambda _s: None,
        )


def test_save_with_retry_respects_governor_deadline(tmp_path):
    injector = FaultInjector().arm_random("checkpoint.save", rate=1.0)
    journal = FlakyJournal(IngestJournal(tmp_path / "journal"), injector)
    clock = [0.0]
    governor = Governor(Budget(timeout=10.0), clock=lambda: clock[0])
    sleeps = []

    def sleep(delay):
        sleeps.append(delay)
        clock[0] += delay

    # backoff sleeps are clamped to the remaining deadline
    clock[0] = 9.999
    with pytest.raises(JournalUnavailable):
        save_with_retry(
            journal,
            _base(1),
            policy=RetryPolicy(attempts=2, base_delay=5.0, max_delay=5.0, jitter=0.0),
            governor=governor,
            sleep=sleep,
        )
    assert sleeps and sleeps[0] <= 10.0 - 9.999 + 1e-9

    # and once the deadline passes, the governor aborts before retrying
    clock[0] = 10.5
    with pytest.raises(BudgetExceededError):
        save_with_retry(
            journal,
            _base(1),
            policy=RetryPolicy(attempts=2, base_delay=0.001, max_delay=0.002),
            governor=governor,
            sleep=sleep,
        )
