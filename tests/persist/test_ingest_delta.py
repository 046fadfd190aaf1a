"""Ingest priced by the delta: identities and counts, never a time.

An incremental ingest extends the session's live relations in place,
waits for one journal fsync and nothing else, and a covering base is
written exactly when the journal has grown by the last base's size (by
the size a base of the initial EDB would have, before the first).  After any interleaving of ingests, aborted ingests, dropped
sessions and recoveries, the fixpoint equals a cold recompute over the
initial EDB plus every acknowledged ingest.
"""

import os
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.datalog.atoms import IncomparableValues
from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_program
from repro.observability import RingBufferSink, tracing
from repro.persist import (
    IngestJournal,
    JournalRecord,
    Session,
    fixpoint_digest,
    workload_digest,
)
from repro.robustness import Budget, BudgetExceededError

PROGRAM_TEXT = """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    q(Y) :- path(1, Y).
"""
EDGES = [(1, 2), (2, 3), (3, 4)]


def _program():
    return parse_program(PROGRAM_TEXT, query="q")


def _database(edges=EDGES):
    return Database.from_rows({"edge": list(edges)})


def _digest(result):
    return fixpoint_digest([("delta", result.idb)])


def _cold_digest(edges):
    return _digest(evaluate(_program(), _database(edges)))


def _journal(root):
    return IngestJournal(root / "journal")


def _journal_records(root) -> int:
    """How many ingest records the journal under ``root`` holds right now."""
    journal = _journal(root)
    try:
        return len(journal.records())
    finally:
        journal.close()


def _bases(root):
    return [frame for frame in _journal(root).frames() if frame.base]


def _segments(root):
    return sorted((root / "journal").glob("journal-*.log"))


def _journal_bytes(root):
    """The bytes of the segments, the base frame's excepted."""
    total = sum(path.stat().st_size for path in _segments(root))
    return total - sum(len(base.encode()) for base in _bases(root))



@pytest.fixture
def fsyncs(monkeypatch):
    """Counts ``os.fsync`` calls made while the test runs."""
    calls = Counter()
    real = os.fsync

    def counting(fd):
        calls["n"] += 1
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_ingest_extends_the_live_relations_in_place(storage):
    session = Session(_program(), _database().to_storage(storage))
    first = session.run().result
    relations = dict(first.idb)
    session.ingest([("edge", (4, 5))])  # builds whatever indexes ingests probe
    for node in range(5, 12):
        builds = session._last.stats.index_builds
        facts = session._last.stats.facts_derived
        with tracing(RingBufferSink()) as tracer:
            result = session.ingest([("edge", (node, node + 1))]).result
        assert result.idb is first.idb
        assert all(result.idb[pred] is rel for pred, rel in relations.items())
        # No live relation, EDB or IDB, is indexed again; what is built
        # is an index over a frontier, whose size is the delta's.
        built = [e.attrs for e in tracer.sinks[0] if e.name == "index_build"]
        derived = result.stats.facts_derived - facts
        assert all(attrs["delta"] and attrs["rows"] <= derived for attrs in built)
        assert result.stats.index_builds == builds + len(built)
    # ...and the relations every earlier result shares are the fixpoint.
    edges = EDGES + [(n, n + 1) for n in range(4, 12)]
    assert _digest(first) == _cold_digest(edges)


def test_ingest_keeps_compiled_plans_between_ingests(monkeypatch):
    import repro.datalog.evaluation as evaluation

    compiled = Counter()
    real = evaluation.compile_rule

    def counting(*args, **kwargs):
        compiled["n"] += 1
        return real(*args, **kwargs)

    session = Session(_program(), _database())
    session.run()
    session.ingest([("edge", (4, 5))])
    monkeypatch.setattr(evaluation, "compile_rule", counting)
    for node in range(5, 9):
        session.ingest([("edge", (node, node + 1))])
    assert compiled["n"] == 0


def test_one_fsync_and_no_checkpoint_below_the_lag_threshold(tmp_path, fsyncs):
    # A wide EDB: a base of it dwarfs a few journal frames.
    edges = [(n, n + 1) for n in range(1000, 1200)]
    session = Session(_program(), _database(edges), journal=_journal(tmp_path))
    session.run()
    for node in range(1200, 1206):
        before = fsyncs["n"]
        outcome = session.ingest([("edge", (node, node + 1))])
        assert outcome.mode == "incremental"
        assert outcome.checkpoints_written == 0
        assert fsyncs["n"] - before == 1  # the journal's: the acknowledgment
        assert not _bases(tmp_path)
    assert session.journal_info()["lag"] == 6
    assert _journal_bytes(tmp_path) < session._lag_limit()


def test_checkpoint_and_compaction_exactly_when_lag_reaches_checkpoint_size(tmp_path):
    session = Session(_program(), _database(), journal=_journal(tmp_path))
    session.run()
    covered_at = []
    for step, node in enumerate(range(4, 40)):
        threshold = session._lag_limit()
        bases = _bases(tmp_path)
        lag_before = _journal_bytes(tmp_path)
        outcome = session.ingest([("edge", (node, node + 1))])
        if outcome.checkpoints_written:
            covered_at.append(step)
            # Due: the acknowledged journal bytes reached the last
            # base's size, and not one ingest earlier.
            assert lag_before < threshold
            # Compacted: one segment, holding the new base alone.
            [segment] = _segments(tmp_path)
            [base] = _bases(tmp_path)
            assert base not in bases
            assert session._lag_limit() == segment.stat().st_size
            assert len(base.rows) == len(EDGES) + step + 1
            assert _journal_bytes(tmp_path) == 0
            assert session.journal_info()["lag"] == 0
        else:
            assert _bases(tmp_path) == bases
            assert lag_before < _journal_bytes(tmp_path) < threshold
    # A tiny EDB crosses the threshold within a few ingests, repeatedly,
    # and less often as the base (and so the threshold) grows.
    assert len(covered_at) >= 2 and covered_at[0] <= 10
    gaps = [b - a for a, b in zip(covered_at, covered_at[1:])]
    assert gaps == sorted(gaps)


def test_explicit_checkpoint_covers_and_is_idempotent(tmp_path):
    session = Session(
        _program(), _database([(n, n + 1) for n in range(1, 30)]), journal=_journal(tmp_path)
    )
    assert not session.checkpoint()  # no fixpoint yet
    session.run()
    assert session.checkpoint() and not _bases(tmp_path)  # nothing uncovered
    session.ingest([("edge", (30, 31))])
    assert session.journal_info()["lag"] == 1
    assert session.checkpoint()
    [base] = _bases(tmp_path)
    assert session.journal_info()["lag"] == 0
    assert session.checkpoint() and _bases(tmp_path) == [base]
    assert not Session(_program(), _database()).checkpoint()  # no journal


@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_aborted_ingest_hands_back_exactly_the_prior_fixpoint(storage):
    session = Session(_program(), _database().to_storage(storage))
    held = session.run().result
    session.ingest([("edge", (4, 5))])
    before = {pred: rel.rows() for pred, rel in held.idb.items()}
    session.budget = Budget(max_facts=held.stats.facts_derived + 5)
    chain = [("edge", (node, node + 1)) for node in range(5, 15)]
    with pytest.raises(BudgetExceededError) as info:
        session.ingest(chain)
    # The abort's partial result kept what it had derived so far...
    assert sum(len(rel) for rel in info.value.partial.idb.values()) > sum(
        map(len, before.values())
    )
    # ...while the shared live relations are the pre-ingest fixpoint
    # again, probes included (their indexes rebuild on demand).
    assert {pred: rel.rows() for pred, rel in held.idb.items()} == before
    assert sorted(held.idb["path"].probe((0,), (1,))) == sorted(
        row for row in before["path"] if row[0] == 1
    )
    # The batch was never acknowledged, so it left the EDB with its
    # consequences: the next ingest extends the same fixpoint.
    assert session.database.relation("edge").rows() == frozenset(EDGES + [(4, 5)])
    session.budget = None
    outcome = session.ingest([("edge", (15, 16))])
    assert outcome.mode == "incremental" and outcome.result.idb is held.idb
    assert _digest(outcome.result) == _cold_digest(EDGES + [(4, 5), (15, 16)])


def _tree_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_rejected_ingest_leaves_session_and_journal_untouched(tmp_path):
    """``n("abc")`` meets ``X > 3``: the derivation raises a typed error
    *before* the journal commit, so nothing of the batch survives — in
    memory, on disk, or across a restart (open since PR 13)."""
    program = parse_program("big(X) :- n(X), X > 3.", query="big")

    def database():
        return Database.from_rows({"n": [(1,), (5,)]})

    session = Session(program, database(), journal=_journal(tmp_path))
    live = session.run().result
    before = (
        session.workload(),
        session.database.to_dict(),
        {pred: rel.rows() for pred, rel in live.idb.items()},
        _tree_bytes(tmp_path),
    )
    with pytest.raises(IncomparableValues, match="types int and str are not order-comparable"):
        session.ingest([("n", ("abc",)), ("n", (7,)), ("fresh", (1,))])
    assert session._last is live
    assert before == (
        session.workload(),
        session.database.to_dict(),
        {pred: rel.rows() for pred, rel in live.idb.items()},
        _tree_bytes(tmp_path),
    )
    # The session keeps ingesting and running...
    outcome = session.ingest([("n", (9,))])
    assert outcome.mode == "incremental"
    assert outcome.result.rows("big") == {(5,), (9,)}
    assert session.run().result.rows("big") == {(5,), (9,)}
    session.journal.close()
    # ...and a fresh process recovers every acknowledged ingest, only those.
    recovered = Session(program, database(), journal=_journal(tmp_path)).recover()
    assert recovered.result.rows("big") == {(5,), (9,)}
    assert recovered.result.database.relation("n").rows() == {(1,), (5,), (9,)}


def test_rejected_recompute_ingest_is_taken_back_too():
    """The same on the recompute path (an ingested predicate occurs
    negated), from a session that never ran: it recovers first."""
    program = parse_program("big(X) :- n(X), not hidden(X), X > 3.", query="big")
    session = Session(program, Database.from_rows({"n": [(1,), (5,)]}))
    workload = session.workload()
    with pytest.raises(IncomparableValues):
        session.ingest([("n", ("abc",)), ("hidden", (5,))])
    assert session.workload() == workload
    assert session.database.predicates() == {"n"}
    assert session.database.relation("n").rows() == {(1,), (5,)}
    assert session._last.rows("big") == {(5,)}
    outcome = session.ingest([("n", (9,)), ("hidden", (5,))])
    assert outcome.mode == "recompute" and outcome.result.rows("big") == {(9,)}


def test_recover_reads_each_checkpoint_file_at_most_once(tmp_path, monkeypatch):
    initial = [(n, n + 1) for n in range(1, 30)]
    session = Session(_program(), _database(initial), journal=_journal(tmp_path))
    session.run()
    for node in range(30, 33):
        session.ingest([("edge", (node, node + 1))])
    assert session.checkpoint()  # a covering base
    for node in range(33, 36):
        session.ingest([("edge", (node, node + 1))])
    # Another workload's base lands last, uncompacted: recovery reads
    # past it.
    other = _database(initial[:5])
    session.journal.write_base(
        JournalRecord(
            seq=session.journal.next_seq(),
            workload=workload_digest(_program(), other),
            rows=tuple(("edge", row) for row in sorted(other.relation("edge").rows())),
            written=1.0,
        )
    )
    uncovered = session.journal_info()["lag"]
    assert uncovered == 3 and len(_bases(tmp_path)) == 2
    reads = Counter()
    real = Path.read_bytes

    def counting(path):
        reads[path.name] += 1
        return real(path)

    monkeypatch.setattr(Path, "read_bytes", counting)
    recovered = Session(_program(), _database(initial), journal=_journal(tmp_path)).recover()
    assert recovered.replayed == uncovered
    assert reads and max(reads.values()) == 1
    edges = initial + [(n, n + 1) for n in range(30, 36)]
    assert _digest(recovered.result) == _cold_digest(edges)


@pytest.mark.parametrize("seed", range(4))
def test_any_interleaving_equals_a_cold_recompute(tmp_path, seed):
    """Ingest / aborted ingest / drop the session (a SIGKILL: nothing but
    the directory survives) / recover, in seeded random order, with many
    records left uncovered; after every step the fixpoint is the cold
    recompute over the initial EDB plus every acknowledged ingest."""
    rng = random.Random(seed)
    # A chain plus disjoint edges: a base of it outweighs a dozen
    # journal frames, so restarts find long uncovered suffixes.
    initial = [(n, n + 1) for n in range(1, 40)] + [(n, n + 1) for n in range(1000, 1400, 2)]
    acked = list(initial)  # every row whose journal fsync returned

    def fresh_rows():
        rows = []
        while not rows:
            for _ in range(rng.randint(1, 3)):
                row = (rng.randint(1, 60), rng.randint(1, 60))
                if row not in acked and row not in rows:
                    rows.append(row)
        return rows

    def open_session():
        return Session(_program(), _database(initial), journal=_journal(tmp_path))

    session = open_session()
    session.recover()
    most_replayed = 0
    kill_at = rng.randint(5, 15)  # uncovered records that trigger the next kill
    for _ in range(60):
        step = rng.choice(["ingest"] * 5 + ["abort"])
        if _journal_records(tmp_path) >= kill_at:
            step, kill_at = "kill", rng.randint(5, 15)
        if step == "kill":
            session.journal.close()
            session = open_session()
            uncovered = _journal_records(tmp_path)
            outcome = session.recover()
            assert outcome.replayed == uncovered
            most_replayed = max(most_replayed, uncovered)
            assert _journal_records(tmp_path) == 0  # covered
        elif step == "abort":
            rows = fresh_rows()
            held = session._last
            before = held and _digest(held)
            slack = rng.choice([0, 3, 10])  # trip at once, or part-way through
            session.budget = Budget(max_facts=(held.stats.facts_derived if held else 0) + slack)
            try:
                session.ingest([("edge", row) for row in rows])
            except BudgetExceededError:
                # Tripped before the journal commit: never acknowledged,
                # so the session is where it was — and so is whoever
                # still holds the previous result.
                assert session._last is held
                assert held is None or _digest(held) == before
            else:
                acked += rows  # the budget was enough after all
            finally:
                session.budget = None
        else:
            rows = fresh_rows()
            outcome = session.ingest([("edge", row) for row in rows])
            acked += rows
            assert outcome.mode in ("incremental", "recompute")
        # Lag never outgrows one base's worth of journal.
        assert session._lag_bytes < session._lag_limit()
        assert session.workload() == Session(_program(), _database(acked)).workload()
        assert _digest(session._last) == _cold_digest(acked), step
    assert most_replayed >= 5  # recoveries really replayed long suffixes
