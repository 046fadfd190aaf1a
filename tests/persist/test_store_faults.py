"""Store behavior: atomicity, quarantine, fault flavors, retry policy."""

import os

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.observability import RingBufferSink, Tracer
from repro.persist.checkpoint import Checkpoint, CheckpointCorrupt, workload_digest
from repro.persist import Session
from repro.persist.store import (
    CheckpointStore,
    CheckpointStoreUnavailable,
    FlakyStore,
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


def _database():
    return Database.from_rows({"edge": [(1, 2), (2, 3), (3, 4)]})


def _checkpoints(n=2):
    digest = workload_digest(PROGRAM, _database())
    edb = {"edge": _database().relation("edge").rows()}
    return [Checkpoint(seq=i + 1, workload=digest, edb=edb) for i in range(n)]


def _recovered_from(store):
    """The seq of the base a fresh session's recovery folds in."""
    session = Session(PROGRAM, _database(), store=store)
    session.recover()
    summary = session.base_summary()
    return None if summary is None else summary["seq"]


def test_save_load_latest_round_trip(tmp_path):
    store = CheckpointStore(tmp_path)
    first, second = _checkpoints(2)
    store.save(first)
    store.save(second)
    assert len(store.paths()) == 2
    assert store.next_seq() == 3
    assert store.load(store.paths()[-1]) == second
    loaded = store.load(store.paths()[0])
    assert loaded.seq == 1
    assert _recovered_from(store) == 2


def test_save_leaves_no_temp_files(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(_checkpoints(1)[0])
    assert not list(tmp_path.glob("*.tmp"))


def test_corrupt_checkpoint_quarantined_on_load(tmp_path):
    sink = RingBufferSink()
    store = CheckpointStore(tmp_path, tracer=Tracer([sink]))
    (ckpt,) = _checkpoints(1)
    path = store.save(ckpt)
    # Torn write: truncate the file in place.
    path.write_bytes(path.read_bytes()[:50])
    with pytest.raises(CheckpointCorrupt):
        store.load(path)
    assert not path.exists()
    assert path.with_name(path.name + ".corrupt").exists()
    names = [event.name for event in sink]
    assert "checkpoint.quarantine" in names


def test_latest_walks_past_quarantined_to_older_valid(tmp_path):
    store = CheckpointStore(tmp_path)
    first, second = _checkpoints(2)
    store.save(first)
    newest = store.save(second)
    newest.write_text("garbage")
    assert _recovered_from(store) == first.seq
    assert newest.with_name(newest.name + ".corrupt").exists()
    # the corrupt file is never considered again
    assert len(store.paths()) == 1


def test_double_quarantine_keeps_both_forensic_copies(tmp_path):
    """Regression: quarantining a *recreated* file of the same name must
    not clobber the earlier ``.corrupt`` copy — each gets a unique
    suffix and both stay on disk for forensics."""
    store = CheckpointStore(tmp_path)
    (ckpt,) = _checkpoints(1)
    path = store.save(ckpt)
    first_bytes = path.read_bytes()[:50]
    path.write_bytes(first_bytes)
    with pytest.raises(CheckpointCorrupt):
        store.load(path)
    # The same sequence number is written again (a retry after the
    # torn save) and gets corrupted again.
    path = store.save(ckpt)
    second_bytes = path.read_bytes()[:60]
    path.write_bytes(second_bytes)
    with pytest.raises(CheckpointCorrupt):
        store.load(path)
    first = path.with_name(path.name + ".corrupt")
    second = path.with_name(path.name + ".corrupt.1")
    assert first.exists() and second.exists()
    assert first.read_bytes() == first_bytes
    assert second.read_bytes() == second_bytes
    # Neither forensic copy is ever offered as a checkpoint again.
    assert store.paths() == []


def test_workload_mismatch_is_never_quarantined(tmp_path):
    """A valid base of another workload is not folded in by recovery,
    and is left untouched on disk."""
    store = CheckpointStore(tmp_path)
    (ckpt,) = _checkpoints(1)
    path = store.save(ckpt)
    other = parse_program("q(X) :- edge(X, Y).", query="q")
    outcome = Session(other, _database(), store=store).recover()
    assert outcome.mode == "fresh"
    assert path.exists()
    assert not list(tmp_path.glob("*.corrupt*"))
    assert store.load(path) == ckpt  # still loadable, and its own workload's
    assert _recovered_from(store) == ckpt.seq


def test_empty_store_latest_is_none(tmp_path):
    assert _recovered_from(CheckpointStore(tmp_path)) is None
    assert Session(PROGRAM, _database(), store=CheckpointStore(tmp_path)).inspect()[
        "latest"
    ] is None
    assert CheckpointStore(tmp_path / "made" / "up").next_seq() == 1


# ----------------------------------------------------------------------
# FlakyStore fault flavors
# ----------------------------------------------------------------------
def test_flaky_transient_then_success(tmp_path):
    injector = FaultInjector().arm("checkpoint.save", at=1)
    store = FlakyStore(CheckpointStore(tmp_path), injector)
    (ckpt,) = _checkpoints(1)
    with pytest.raises(OSError):
        store.save(ckpt)
    assert store.save(ckpt).exists()
    assert injector.fired == [("checkpoint.save", 1)]


def test_flaky_enospc_flavor(tmp_path):
    import errno

    injector = FaultInjector().arm("checkpoint.save", at=1)
    store = FlakyStore(CheckpointStore(tmp_path), injector, flavors=("enospc",))
    with pytest.raises(OSError) as info:
        store.save(_checkpoints(1)[0])
    assert info.value.errno == errno.ENOSPC
    assert not list(tmp_path.glob("ckpt-*.json"))


def test_flaky_torn_write_lands_truncated_bytes(tmp_path):
    injector = FaultInjector().arm("checkpoint.save", at=1)
    base = CheckpointStore(tmp_path)
    store = FlakyStore(base, injector, flavors=("torn",))
    (ckpt,) = _checkpoints(1)
    with pytest.raises(OSError):
        store.save(ckpt)
    torn = list(tmp_path.glob("ckpt-*.json"))
    assert len(torn) == 1  # truncated bytes really landed on the final path
    with pytest.raises(CheckpointCorrupt):
        base.load(torn[0])
    assert torn[0].with_name(torn[0].name + ".corrupt").exists()


def test_flaky_rejects_unknown_flavor(tmp_path):
    with pytest.raises(ValueError, match="flavor"):
        FlakyStore(CheckpointStore(tmp_path), FaultInjector(), flavors=("explode",))


def test_flaky_load_faults_and_recovery_walks_past(tmp_path):
    base = CheckpointStore(tmp_path)
    first, second = _checkpoints(2)
    base.save(first)
    base.save(second)
    injector = FaultInjector().arm("checkpoint.load", at=1)
    store = FlakyStore(base, injector)
    with pytest.raises(OSError):
        store.load(base.paths()[-1])
    # the newest load faults transiently; the one reader of the store,
    # Session.recover(), falls through to the older checkpoint
    injector.arm("checkpoint.load", at=2)
    session = Session(PROGRAM, _database(), store=store)
    assert session.recover().mode == "recovered"
    assert session.base_summary()["seq"] == first.seq


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
    store = FlakyStore(
        CheckpointStore(tmp_path, tracer=Tracer([sink])), injector
    )
    sleeps = []
    path = save_with_retry(
        store,
        _checkpoints(1)[0],
        policy=RetryPolicy(attempts=4, base_delay=0.001, max_delay=0.002),
        sleep=sleeps.append,
    )
    assert path.exists()
    assert len(sleeps) == 2
    retries = [event for event in sink if event.name == "checkpoint.retry"]
    assert len(retries) == 2
    assert retries[0].attrs["attempt"] == 1


def test_save_with_retry_exhaustion_raises_unavailable(tmp_path):
    injector = FaultInjector().arm_random("checkpoint.save", rate=1.0)
    store = FlakyStore(CheckpointStore(tmp_path), injector)
    with pytest.raises(CheckpointStoreUnavailable, match="after 3 attempts"):
        save_with_retry(
            store,
            _checkpoints(1)[0],
            policy=RetryPolicy(attempts=3, base_delay=0.001, max_delay=0.002),
            sleep=lambda _s: None,
        )


def test_save_with_retry_respects_governor_deadline(tmp_path):
    injector = FaultInjector().arm_random("checkpoint.save", rate=1.0)
    store = FlakyStore(CheckpointStore(tmp_path), injector)
    clock = [0.0]
    governor = Governor(Budget(timeout=10.0), clock=lambda: clock[0])
    sleeps = []

    def sleep(delay):
        sleeps.append(delay)
        clock[0] += delay

    # backoff sleeps are clamped to the remaining deadline
    clock[0] = 9.999
    with pytest.raises(CheckpointStoreUnavailable):
        save_with_retry(
            store,
            _checkpoints(1)[0],
            policy=RetryPolicy(attempts=2, base_delay=5.0, max_delay=5.0, jitter=0.0),
            governor=governor,
            sleep=sleep,
        )
    assert sleeps and sleeps[0] <= 10.0 - 9.999 + 1e-9

    # and once the deadline passes, the governor aborts before retrying
    clock[0] = 10.5
    with pytest.raises(BudgetExceededError):
        save_with_retry(
            store,
            _checkpoints(1)[0],
            policy=RetryPolicy(attempts=2, base_delay=0.001, max_delay=0.002),
            governor=governor,
            sleep=sleep,
        )
