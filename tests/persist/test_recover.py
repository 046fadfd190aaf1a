"""Crash recovery: journal replay after faults at every durability site.

Each test stages a crash — an injected fault at ``journal.append`` /
``journal.fsync`` / ``journal.replay`` or at a checkpoint boundary —
then recovers into a *fresh* session (simulating a restart) and checks
the recovered fixpoint digest against a cold recompute over the initial
EDB plus every *acknowledged* ingest.  That digest equality is the
crash-consistency contract: an acked ingest is never lost, an un-acked
one never half-applied.
"""

import hashlib
import json

import pytest

from reference_model import model_fixpoint
from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_program
from repro.persist import Session, fixpoint_digest, workload_digest
from repro.persist.journal import (
    FlakyJournal,
    IngestJournal,
    JournalMismatch,
    JournalUnavailable,
    legacy_bases,
)
from repro.robustness import Budget, BudgetExceededError, FaultInjector

PROGRAM_TEXT = """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    q(Y) :- path(1, Y).
"""
EDGES = [(1, 2), (2, 3), (3, 4)]

def _program():
    return parse_program(PROGRAM_TEXT, query="q")


def _database(extra=()):
    return Database.from_rows({"edge": list(EDGES) + list(extra)})


def _cold_digest(extra=(), program=None, database=None):
    """Digest of a from-scratch recompute over initial EDB + ``extra``."""
    result = evaluate(program or _program(), database or _database(extra))
    return fixpoint_digest([("recovery", result.idb)])


def _digest(outcome):
    return fixpoint_digest([("recovery", outcome.result.idb)])


def _journal(root):
    return IngestJournal(root / "journal")


def _bases(root):
    return [frame for frame in _journal(root).frames() if frame.base]


@pytest.mark.parametrize("reference", ["slots", "model"])
@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_checkpoint_crash_recovers_every_acked_ingest(tmp_path, reference, storage, fast_retry):
    """Kill after ack but before the covering checkpoint: the journal
    suffix alone must carry the ingest across the restart — on a
    database of either backend, against a cold recompute by the engine
    and by the independent model."""
    injector = FaultInjector()
    session = Session(
        _program(),
        _database().to_storage(storage),
        journal=FlakyJournal(_journal(tmp_path), injector),
    )
    session.run()
    session.ingest([("edge", (4, 5))])
    assert session.checkpoint()  # acked and checkpoint-covered
    injector.arm_random("checkpoint.save", rate=1.0)
    session.ingest([("edge", (5, 6))])  # acked by its journal fsync alone
    assert not session.checkpoint()  # degraded: no durable checkpoint
    # -- restart --------------------------------------------------------
    fresh = Session(
        _program(), _database().to_storage(storage), journal=_journal(tmp_path)
    )
    recovered = fresh.recover()
    assert recovered.mode == "recovered"
    assert recovered.replayed >= 1
    if reference == "model":
        expected = model_fixpoint(_program(), _database([(4, 5), (5, 6)]))
        assert {pred: rel.rows() for pred, rel in recovered.result.idb.items()} == expected
    else:
        assert _digest(recovered) == _cold_digest([(4, 5), (5, 6)])


def test_append_crash_leaves_state_unmutated(tmp_path, fast_retry):
    """A journal failure *before* the fsync is a clean refusal: nothing
    is acknowledged, nothing is mutated, recovery sees no trace."""
    session = Session(_program(), _database(), journal=_journal(tmp_path))
    session.run()
    injector = FaultInjector().arm_random("journal.append", rate=1.0)
    session.journal = FlakyJournal(session.journal, injector)
    with pytest.raises(JournalUnavailable):
        session.ingest([("edge", (4, 5))])
    assert (4, 5) not in session.database.relation("edge").rows()
    recovered = Session(_program(), _database(), journal=_journal(tmp_path)).recover()
    assert recovered.replayed == 0
    assert _digest(recovered) == _cold_digest()


def test_fsync_crash_window_recovers_acked_or_acked_plus_inflight(tmp_path, fast_retry):
    """A crash at fsync is indeterminate: the frame may or may not be
    durable.  Recovery must land on exactly one of the two admissible
    states — acked-only, or acked plus the in-flight record — never a
    torn hybrid."""
    session = Session(_program(), _database(), journal=_journal(tmp_path))
    session.run()
    injector = FaultInjector().arm_random("journal.fsync", rate=1.0)
    session.journal = FlakyJournal(session.journal, injector)
    with pytest.raises(JournalUnavailable):
        session.ingest([("edge", (4, 5))])
    recovered = Session(_program(), _database(), journal=_journal(tmp_path)).recover()
    assert _digest(recovered) in {_cold_digest(), _cold_digest([(4, 5)])}


def test_crash_during_replay_is_retryable(tmp_path):
    """A fault while *reading* the journal during recovery aborts that
    recovery without consuming anything: the next attempt replays the
    identical suffix."""
    Session(_program(), _database(), journal=_journal(tmp_path)).run()
    # One small ingest stays below the lag limit: acked but never
    # base-covered, exactly the state a crash leaves behind.
    writer = Session(_program(), _database(), journal=_journal(tmp_path))
    writer.ingest([("edge", (4, 5))])
    injector = FaultInjector().arm("journal.replay", at=1)
    crashed = Session(
        _program(), _database(), journal=FlakyJournal(_journal(tmp_path), injector)
    )
    with pytest.raises(OSError):
        crashed.recover()
    retry = Session(_program(), _database(), journal=_journal(tmp_path))
    recovered = retry.recover()
    assert recovered.replayed == 1
    assert _digest(recovered) == _cold_digest([(4, 5)])


def test_recover_twice_is_idempotent(tmp_path):
    Session(_program(), _database(), journal=_journal(tmp_path)).run()
    writer = Session(_program(), _database(), journal=_journal(tmp_path))
    writer.ingest([("edge", (4, 5))])
    first = Session(_program(), _database(), journal=_journal(tmp_path)).recover()
    assert first.replayed == 1
    second = Session(_program(), _database(), journal=_journal(tmp_path)).recover()
    # The first recovery wrote a base and compacted; the second folds it
    # in with nothing left to replay — and the fixpoint is unchanged.
    assert second.replayed == 0
    assert _digest(second) == _digest(first) == _cold_digest([(4, 5)])


def test_foreign_journal_raises_mismatch(tmp_path):
    """A journal whose records chain from a different workload must be
    rejected, not silently replayed into the wrong fixpoint."""
    Session(_program(), _database(), journal=_journal(tmp_path)).run()
    writer = Session(_program(), _database(), journal=_journal(tmp_path))
    writer.ingest([("edge", (9, 10))])
    foreign = parse_program(
        PROGRAM_TEXT + "\n    r(X) :- edge(X, X).\n", query="q"
    )
    impostor = Session(foreign, _database(), journal=_journal(tmp_path))
    with pytest.raises(JournalMismatch):
        impostor.recover()


def test_budget_trip_mid_recompute_fallback_is_recoverable(tmp_path):
    """Regression for the mutate-before-decision ordering bug: an ingest
    that trips its budget inside the recompute fallback was never
    acknowledged, so it leaves nothing behind — no journal record, no
    EDB row — and a restart recovers the fixpoint without it; retried
    with budget to spare it is acknowledged and survives the restart."""
    negation = parse_program(
        """
        reach(X) :- source(X).
        reach(Y) :- reach(X), edge(X, Y).
        ok(X) :- reach(X), not blocked(X).
        """,
        query="ok",
    )
    database = Database.from_rows(
        {"source": [(1,)], "edge": list(EDGES), "blocked": [(3,)]}
    )
    Session(negation, database, journal=_journal(tmp_path)).run()
    # Negation forces the recompute fallback on ingest; a one-fact budget
    # trips it before the journal fsync.
    tripper = Session(
        negation, database, journal=_journal(tmp_path), budget=Budget(max_facts=1)
    )
    with pytest.raises(BudgetExceededError):
        tripper.ingest([("blocked", (4,))])
    assert tripper.journal.last_seq == 0  # nothing was acknowledged
    assert not database.contains("blocked", (4,))
    recovered = Session(negation, database, journal=_journal(tmp_path)).recover()
    assert _digest(recovered) == _cold_digest(program=negation, database=database)
    tripper.budget = None
    assert tripper.ingest([("edge", (4, 5))]).mode == "incremental"
    tripper.journal.close()
    recovered = Session(negation, database, journal=_journal(tmp_path)).recover()
    cold = evaluate(
        negation,
        Database.from_rows(
            {
                "source": [(1,)],
                "edge": list(EDGES) + [(4, 5)],
                "blocked": [(3,)],
            }
        ),
    )
    assert _digest(recovered) == fixpoint_digest([("recovery", cold.idb)])


@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_recovery_after_compaction_uses_self_contained_checkpoint(
    tmp_path, storage
):
    """Once a covering checkpoint lands and the journal is compacted,
    the checkpoint itself must carry the ingested EDB rows — recovery
    from the initial database alone still yields the full fixpoint."""
    session = Session(
        _program(), _database().to_storage(storage), journal=_journal(tmp_path)
    )
    session.run()
    session.ingest([("edge", (4, 5))])
    session.ingest([("edge", (5, 6))])
    assert session.checkpoint()
    assert session.journal_info()["lag"] == 0  # fully compacted
    recovered = Session(
        _program(), _database().to_storage(storage), journal=_journal(tmp_path)
    ).recover()
    assert recovered.replayed == 0
    assert _digest(recovered) == _cold_digest([(4, 5), (5, 6)])


def test_journal_only_recovery_without_any_checkpoint(tmp_path, fast_retry):
    """No base at all (every save failed): recovery is the same
    evaluation as always, over initial EDB + journal suffix, and writes
    the base the replay is owed."""
    injector = FaultInjector().arm_random("checkpoint.save", rate=1.0)
    session = Session(
        _program(),
        _database(),
        journal=FlakyJournal(_journal(tmp_path), injector),
    )
    session.run()
    session.ingest([("edge", (4, 5))])
    recovered = Session(
        _program(), _database(), journal=_journal(tmp_path)
    ).recover()
    assert recovered.mode == "recovered" and recovered.replayed == 1
    assert recovered.checkpoints_written == 1
    assert _digest(recovered) == _cold_digest([(4, 5)])


@pytest.mark.parametrize(
    "steps",
    [
        pytest.param(["start", (4, 5), "restart"], id="A-restart-after-ingest"),
        pytest.param(["start", (4, 5), (5, 6), "restart"], id="B-ingest-after-ingest"),
        pytest.param(["start", (4, 5), "restart", "restart"], id="C-restart-twice"),
    ],
)
def test_every_step_a_fresh_session_on_the_initial_edb(tmp_path, steps):
    """The CLI's shape — each step a new process that knows only the
    initial files and the directory: every acknowledged fact is answered
    after every step, and no valid checkpoint is ever renamed."""
    ingested = []
    for step in steps:
        session = Session(_program(), _database(), journal=_journal(tmp_path))
        if isinstance(step, tuple):
            ingested.append(step)
            outcome = session.ingest([("edge", step)])
            assert outcome.mode == "incremental"
            assert session.checkpoint()
        else:
            outcome = session.recover()
            assert outcome.mode == ("fresh" if step == "start" else "recovered")
        session.journal.close()
        assert _digest(outcome) == _cold_digest(ingested), step
        assert not list(tmp_path.glob("*.corrupt*"))


def test_recovery_reruns_a_killed_evaluation_of_the_journal_chain(tmp_path, fast_retry):
    """No self-contained checkpoint, only journal records, and an
    evaluation killed while it was re-deriving them: the kill left
    nothing on disk, and the next recovery evaluates the chain again."""
    injector = FaultInjector().arm_random("checkpoint.save", rate=1.0)
    writer = Session(
        _program(),
        _database(),
        journal=FlakyJournal(_journal(tmp_path), injector),
    )
    writer.run()
    writer.ingest([("edge", (4, 5))])  # acknowledged; nothing else is on disk
    writer.journal.close()
    with pytest.raises(BudgetExceededError):  # "killed" after two rounds
        Session(
            _program(),
            _database(),
            journal=_journal(tmp_path),
            budget=Budget(max_iterations=2),
        ).recover()
    assert _bases(tmp_path) == []
    recovered = Session(_program(), _database(), journal=_journal(tmp_path)).recover()
    assert recovered.mode == "recovered" and recovered.replayed == 1
    assert recovered.checkpoints_written == 1
    assert _digest(recovered) == _cold_digest([(4, 5)])


def test_parent_frontier_is_skipped_not_trusted(tmp_path):
    """An older build's per-round frontier (``complete`` false, with a
    ``delta``) still loads, but recovery runs fresh instead of resuming
    from it — and leaves the valid file where it is."""
    payload = {
        "version": 2,
        "seq": 1,
        "workload": workload_digest(_program(), _database()),
        "snapshot": {
            "strategy": "seminaive",
            "complete": False,
            "completed_sccs": 0,
            "scc_index": 0,
            "iteration": 1,
            "idb": {"path": [[1, 2], [1, 3], [2, 3], [2, 4], [3, 4]], "q": []},
            "delta": {"path": [[1, 3], [2, 4]]},
            "edb": None,
            "interner": None,
            "stats": {"iterations": 1, "facts_derived": 5, "rule_firings": 5},
        },
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(canonical.encode()).hexdigest()
    frontier = tmp_path / f"ckpt-00000001-{checksum[:12]}.json"
    frontier.write_text(f'{{"checksum":"{checksum}","payload":{canonical}}}')
    assert list(legacy_bases(tmp_path)) == []  # valid, but holds no EDB
    outcome = Session(_program(), _database(), journal=_journal(tmp_path)).recover()
    assert outcome.mode == "fresh"
    assert {pred: rel.rows() for pred, rel in outcome.result.idb.items()} == (
        model_fixpoint(_program(), _database())
    )
    assert frontier.exists() and not list(tmp_path.glob("*.corrupt*"))
    assert outcome.checkpoints_written == 0 and _bases(tmp_path) == []


def test_failed_recovery_leaves_the_session_as_constructed(tmp_path):
    """A budget trip inside recovery's replay takes the folded rows back
    out: the same session can recover again — or ingest, which does."""
    writer = Session(_program(), _database(), journal=_journal(tmp_path))
    writer.run()
    writer.ingest([("edge", (4, 5))])
    writer.ingest([("edge", (5, 6))])  # acknowledged, not checkpoint-covered
    writer.journal.close()
    session = Session(
        _program(), _database(), journal=_journal(tmp_path), budget=Budget(max_facts=1)
    )
    with pytest.raises(BudgetExceededError):
        session.recover()
    assert session._last is None
    assert session.database.relation("edge").rows() == set(EDGES)
    assert session.workload() == Session(_program(), _database()).workload()
    session.budget = None
    outcome = session.ingest([("edge", (6, 7))])
    assert _digest(outcome) == _cold_digest([(4, 5), (5, 6), (6, 7)])
    session.journal.close()
    recovered = Session(_program(), _database(), journal=_journal(tmp_path)).recover()
    assert _digest(recovered) == _cold_digest([(4, 5), (5, 6), (6, 7)])


def test_a_parent_checkpoint_and_a_compacted_journal_recover_every_row(tmp_path):
    """A directory an older build left: its version-2 checkpoint holds an
    ingested row whose journal record was compacted away, and its
    journal the ingests since.  Recovery from the initial EDB returns
    every one of them and leaves a base frame in place of the file, and
    the next restart replays nothing."""
    from pathlib import Path

    from repro.persist.journal import JournalRecord

    fixture = Path(__file__).resolve().parent / "fixtures" / "ckpt-00000001-c12db7abedef.json"
    (tmp_path / fixture.name).write_text(fixture.read_text())
    program = parse_program(
        """
        p(X, Y) :- e(X, Y).
        p(X, Y) :- e(X, Z), p(Z, Y).
        r(X, Y) :- p(X, Y).
        r(X, Y) :- f(X, Y).
        """,
        query="r",
    )
    initial = {"e": [(1, 2), (2, 3), (3, 4)]}
    covered = Database.from_rows({**initial, "f": [(7, 8)]})
    journal = _journal(tmp_path)
    # The compacted record's sequence is gone; the journal resumes after it.
    for seq, row in ((2, (4, 5)), (3, (5, 6))):
        journal.commit(
            JournalRecord(seq=seq, workload=workload_digest(program, covered), rows=(("e", row),))
        )
        covered.add_row("e", row)
    journal.close()
    for want_replayed in (2, 0):
        outcome = Session(
            program, Database.from_rows(initial), journal=_journal(tmp_path)
        ).recover()
        assert outcome.mode == "recovered" and outcome.replayed == want_replayed
        assert outcome.result.database.to_dict() == covered.to_dict()
        assert {pred: outcome.result.rows(pred) for pred in ("p", "r")} == (
            model_fixpoint(program, covered)
        )
        assert not list(tmp_path.glob("ckpt-*.json")) and len(_bases(tmp_path)) == 1


def test_a_stale_record_with_no_base_is_kept_for_the_original_edb(tmp_path):
    """An ingest below the lag limit has only its journal record.  A
    restart that re-registers the ingested EDB finds the record stale,
    but with no base holding the row it must not compact it away: a
    later restart with the original EDB still answers the ingest."""
    first = Session(_program(), _database(), journal=_journal(tmp_path))
    first.recover()
    first.ingest([("edge", (4, 5))])
    first.journal.close()
    assert not _bases(tmp_path)  # below the lag limit
    grown = Session(_program(), _database([(4, 5)]), journal=_journal(tmp_path))
    assert grown.recover().replayed == 0
    grown.journal.close()
    original = Session(_program(), _database(), journal=_journal(tmp_path))
    recovered = original.recover()
    assert recovered.replayed == 1
    assert original.database.contains("edge", (4, 5))
    assert _digest(recovered) == _cold_digest([(4, 5)])
    assert {pred: rel.rows() for pred, rel in recovered.result.idb.items()} == (
        model_fixpoint(_program(), _database([(4, 5)]))
    )
