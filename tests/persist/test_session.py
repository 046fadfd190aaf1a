"""Session life cycle: run, recover, ingest, inspect, degradation."""

import pytest

from reference_model import model_fixpoint
from repro.datalog.database import ArityMismatch, Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_facts, parse_program
from repro.persist import FlakyJournal, IngestJournal, RetryPolicy, Session
from repro.robustness import Budget, BudgetExceededError, FaultInjector

PROGRAM_TEXT = """
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, Z), edge(Z, Y).
q(Y) :- path(1, Y).
"""
EDGES = [(1, 2), (2, 3), (3, 4), (4, 5)]


def _program():
    return parse_program(PROGRAM_TEXT, query="q")


def _database(extra=()):
    return Database.from_rows({"edge": list(EDGES) + list(extra)})


def _rows(result):
    return {pred: rel.rows() for pred, rel in result.idb.items()}


def _journal(root):
    return IngestJournal(root / "journal")


def _bases(root):
    return [frame for frame in _journal(root).frames() if frame.base]


def test_run_writes_nothing(tmp_path):
    """A run evaluates the EDB it was given; the caller re-supplies that
    EDB on every start, so there is nothing to make durable."""
    outcome = Session(_program(), _database(), journal=_journal(tmp_path)).run()
    assert outcome.mode == "fresh"
    assert outcome.checkpoints_written == 0
    assert not list(tmp_path.rglob("*.log"))


def _with_base(tmp_path, extra):
    """A directory holding one base: the initial EDB plus ``extra``."""
    session = Session(_program(), _database(), journal=_journal(tmp_path))
    session.ingest([("edge", row) for row in extra])
    assert session.checkpoint()
    session.journal.close()
    [base] = _bases(tmp_path)
    return base


def test_resume_from_store_is_row_identical(tmp_path):
    baseline = _rows(Session(_program(), _database(extra=[(5, 6)])).run().result)
    base = _with_base(tmp_path, [(5, 6)])
    resumed = Session(_program(), _database(), journal=_journal(tmp_path))
    outcome = resumed.recover()
    assert outcome.mode == "recovered" and outcome.replayed == 0
    assert resumed.base_summary()["seq"] == base.seq
    # The fixpoint is re-derived, so its counters are this evaluation's.
    cold = evaluate(_program(), _database(extra=[(5, 6)])).stats.as_dict()
    derived = outcome.stats.as_dict()
    assert derived.pop("wall_time_seconds") > 0.0
    cold.pop("wall_time_seconds")
    assert derived == cold
    assert _rows(outcome.result) == baseline


def test_resume_empty_store_falls_back_to_fresh(tmp_path):
    outcome = Session(_program(), _database(), journal=_journal(tmp_path)).recover()
    assert outcome.mode == "fresh"
    assert outcome.checkpoints_written == 0


def test_resume_ignores_checkpoint_of_other_workload(tmp_path):
    foreign = _with_base(tmp_path, [(5, 6)])
    other_db = _database(extra=[(7, 8)])
    outcome = Session(_program(), other_db, journal=_journal(tmp_path)).recover()
    # a foreign base is ignored — and stays where it is: it is
    # somebody's perfectly valid base
    assert outcome.mode == "fresh"
    assert _bases(tmp_path) == [foreign]


@pytest.mark.parametrize("reference", ("slots", "model"))
def test_ingest_incremental_row_identical_to_recompute(tmp_path, reference):
    session = Session(_program(), _database(), journal=_journal(tmp_path))
    session.run()
    outcome = session.ingest([("edge", (5, 6)), ("edge", (0, 1))])
    assert outcome.mode == "incremental"
    assert not outcome.fallback_chain
    # against a cold recompute by the session's own engine and by the
    # independent model
    database = _database(extra=[(5, 6), (0, 1)])
    if reference == "model":
        recomputed = model_fixpoint(_program(), database)
    else:
        recomputed = _rows(evaluate(_program(), database))
    assert _rows(outcome.result) == recomputed


def test_ingest_from_store_without_in_memory_result(tmp_path):
    _with_base(tmp_path, [(0, 1)])
    # a brand-new session (fresh process) recovers the stored EDB, then ingests
    session = Session(_program(), _database(), journal=_journal(tmp_path))
    outcome = session.ingest(parse_facts("edge(5, 6)."))
    assert outcome.mode == "incremental"
    recomputed = _rows(
        Session(_program(), _database(extra=[(0, 1), (5, 6)])).run().result
    )
    assert _rows(outcome.result) == recomputed


def test_ingest_duplicate_facts_is_noop(tmp_path):
    session = Session(_program(), _database(), journal=_journal(tmp_path))
    before = _rows(session.run().result)
    outcome = session.ingest([("edge", (1, 2))])
    assert _rows(outcome.result) == before
    assert outcome.result.stats.iterations == session._last.stats.iterations


def test_ingest_negated_predicate_falls_back_to_recompute():
    program = parse_program(
        """
        p(X, Y) :- e(X, Y), not blocked(X).
        p(X, Y) :- p(X, Z), e(Z, Y), not blocked(Z).
        q(Y) :- p(1, Y).
        """,
        query="q",
    )
    database = Database.from_rows({"e": EDGES, "blocked": [(9,)]})
    session = Session(program, database)
    session.run()
    # blocking node 2 RETRACTS q facts: incremental delta-seeding cannot do that
    outcome = session.ingest([("blocked", (2,))])
    assert outcome.mode == "recompute"
    assert any(s.fell_back_to == "recompute" for s in outcome.fallback_chain)
    fresh_db = Database.from_rows({"e": EDGES, "blocked": [(9,), (2,)]})
    assert _rows(outcome.result) == _rows(Session(program, fresh_db).run().result)


def test_ingest_without_prior_fixpoint_recovers_first():
    """No fixpoint in memory: the ingest starts from ``recover()`` — with
    nothing on disk, a fresh run — and is then an ordinary delta."""
    session = Session(_program(), _database())
    outcome = session.ingest([("edge", (5, 6))])
    assert outcome.mode == "incremental" and not outcome.fallback_chain
    assert _rows(outcome.result) == _rows(
        Session(_program(), _database(extra=[(5, 6)])).run().result
    )


def test_ingest_rejects_idb_predicate():
    session = Session(_program(), _database())
    session.run()
    with pytest.raises(ValueError, match="IDB"):
        session.ingest([("path", (1, 9))])


def test_ingest_takes_atoms_pairs_and_parsed_rows_alike(built):
    from repro.datalog.atoms import Atom
    from repro.datalog.terms import Constant

    atom = Atom("edge", (Constant(5), Constant(6)))
    for facts in ([atom], [("edge", [5, 6])], parse_facts("edge(5, 6). edge(5, 6).")):
        session = Session(_program(), _database())
        session.run()
        for instances in built.values():
            instances.clear()
        outcome = session.ingest(facts)
        # The loader's own normaliser: rows are read off, no atom is rebuilt.
        assert built[Atom] == [] and built[Constant] == []
        assert outcome.mode == "incremental"
        assert session.database.relation("edge", 2).rows() == set(EDGES) | {(5, 6)}


def test_ingest_rejects_a_non_ground_atom_with_the_loaders_typed_error():
    from repro.datalog.atoms import Atom
    from repro.datalog.database import NonGroundFact
    from repro.datalog.terms import Constant, Variable

    session = Session(_program(), _database())
    session.run()
    before = session.database.to_dict()
    with pytest.raises(NonGroundFact, match=r"^fact edge\(5, X\) is not ground$"):
        session.ingest([("edge", (5, 6)), Atom("edge", (Constant(5), Variable("X")))])
    assert session.database.to_dict() == before


def test_ingest_rejects_wrong_arity_before_journaling_anything(tmp_path):
    journal = IngestJournal(tmp_path / "journal")
    session = Session(_program(), _database(), journal=journal)
    session.run()
    before = session.database.to_dict()
    for batch in ([("edge", (5, 6)), ("edge", (6,))], [("fresh", (1,)), ("fresh", (1, 2))]):
        with pytest.raises(ArityMismatch, match="arity mismatch for (edge|fresh): expected"):
            session.ingest(batch)
    assert session.database.to_dict() == before
    assert journal.info()["records"] == 0


def test_unrecoverable_store_degrades_to_in_memory(tmp_path):
    injector = FaultInjector().arm_random("checkpoint.save", rate=1.0)
    # An acknowledged ingest no base covers: the recovery that replays
    # it owes the directory a base, and cannot write one.
    writer = Session(_program(), _database(), journal=_journal(tmp_path))
    writer.ingest([("edge", (5, 6))])
    writer.journal.close()
    session = Session(
        _program(),
        _database(),
        journal=FlakyJournal(_journal(tmp_path), injector),
        retry=RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0),
    )
    outcome = session.recover()
    assert outcome.replayed == 1
    assert outcome.checkpoints_written == 0
    assert not session.checkpoint()
    assert len(outcome.fallback_chain) == 1
    step = outcome.fallback_chain[0]
    assert step.stage == "session.checkpoint" and step.fell_back_to == "in-memory"
    # the ingest itself still completed correctly in memory
    assert _rows(outcome.result) == _rows(
        Session(_program(), _database(extra=[(5, 6)])).run().result
    )


def test_budget_trip_during_run_propagates(tmp_path):
    with pytest.raises(BudgetExceededError) as info:
        Session(
            _program(),
            _database(),
            journal=_journal(tmp_path),
            budget=Budget(max_facts=1),
        ).run()
    assert info.value.partial is not None


def test_inspect_summarizes_store(tmp_path):
    session = Session(_program(), _database(), journal=_journal(tmp_path))
    info = session.inspect()
    assert set(info) == {"workload", "latest", "journal"}
    assert info["latest"] is None and info["journal"]["records"] == 0
    session.run()
    assert session.inspect()["latest"] is None  # a run writes nothing
    session.ingest([("edge", (5, 6))])
    assert session.checkpoint()
    info = session.inspect()
    assert info["latest"]["seq"] == 2 and info["latest"]["edb_facts"] == 5
    assert info["journal"]["segments"] == 1 and info["journal"]["records"] == 0
    assert info["workload"] == session.workload()
    assert info["journal"]["lag"] == 0


def test_inspect_reports_the_base_recovery_uses(tmp_path):
    """Inspecting from the initial files reports the base recovery would
    fold in — the newest that binds — not the newest whose digest is the
    initial EDB's."""
    writer = Session(_program(), _database(), journal=_journal(tmp_path))
    writer.ingest([("edge", (5, 6))])
    assert writer.checkpoint()
    writer.ingest([("edge", (6, 7))])
    assert writer.checkpoint()
    writer.journal.close()
    inspected = Session(_program(), _database(), journal=_journal(tmp_path)).inspect()
    restarted = Session(_program(), _database(), journal=_journal(tmp_path))
    restarted.recover()
    assert inspected["latest"]["seq"] == restarted.base_summary()["seq"] == 4
    assert inspected["latest"]["edb_facts"] == len(EDGES) + 2


def test_inspect_is_read_only_across_workloads(tmp_path):
    """Inspecting with a different data file (e.g. pre-ingest) must not
    touch the other workload's valid bases."""
    session = Session(_program(), _database(), journal=_journal(tmp_path))
    session.run()
    session.ingest([("edge", (5, 6))])
    assert session.checkpoint()  # a base, new digest
    bases = _bases(tmp_path)
    stale = Session(_program(), _database(), journal=_journal(tmp_path))
    info = stale.inspect()
    assert _bases(tmp_path) == bases
    # the pre-ingest view still resolves the base recovery would use...
    assert info["latest"]["edb_facts"] == len(EDGES) + 1
    # ...and so does the post-ingest one
    combined = Session(
        _program(), _database(extra=[(5, 6)]), journal=_journal(tmp_path)
    )
    assert combined.inspect()["latest"]["seq"] == info["latest"]["seq"] == 2
    foreign = Session(
        _program(), _database(extra=[(7, 8)]), journal=_journal(tmp_path)
    )
    assert foreign.inspect()["latest"] is None


def test_inspect_without_store():
    info = Session(_program(), _database()).inspect()
    assert info["latest"] is None and info["journal"] is None


def test_session_stats_cumulative_and_monotone(tmp_path):
    # Counters start afresh with every process; within one, an ingest
    # adds to what the evaluation before it counted.
    session = Session(_program(), _database(), journal=_journal(tmp_path))
    first = session.recover()
    assert first.stats.wall_time_seconds > 0.0
    first = first.stats.as_dict()
    grown = session.ingest([("edge", (5, 6))])
    for key in ("facts_derived", "rule_firings", "rows_scanned", "iterations"):
        assert getattr(grown.stats, key) > first[key]
    assert grown.stats.wall_time_seconds > first["wall_time_seconds"]


def test_budget_trip_inside_ingest_does_not_leave_a_stale_prior():
    """A trip mid-ingest rejects the batch whole — rows and consequences
    leave with it — so the prior fixpoint the next ingest extends is
    exactly the fixpoint of the session's EDB, never a stale one."""
    session = Session(_program(), _database(), budget=Budget(max_facts=20))
    session.run()
    chain = [("edge", (node, node + 1)) for node in range(5, 15)]
    with pytest.raises(BudgetExceededError) as info:
        session.ingest(chain)
    exc = info.value
    assert exc.phase == "ingest" and exc.limit == "max_facts"
    assert exc.stats is not None and exc.stats.budget_trips == 1
    # the shared abort handler attached the partial fixpoint: a subset
    # of the full one that already holds some of the new consequences
    full = _rows(evaluate(_program(), _database(extra=[row for _, row in chain])))
    partial = _rows(exc.partial)
    assert all(partial[pred] <= full[pred] for pred in full)
    assert sum(map(len, partial.values())) > 20
    assert session.database.relation("edge").rows() == _database().relation("edge").rows()
    session.budget = None
    outcome = session.ingest([("edge", (15, 16))])
    assert _rows(outcome.result) == _rows(evaluate(_program(), session.database))
