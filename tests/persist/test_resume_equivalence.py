"""Property: ingesting facts incrementally, or replaying them from the
journal at a restart, matches a cold recompute, row for row, by the
engine and by the independent model — across random workloads.  (A
killed evaluation is simply run again.)

``random_workload`` programs include negated EDB literals and order
atoms, so both properties also exercise non-monotone updates (seeds
that negate ``blocked`` and then ingest ``blocked`` facts): an ingest
falls back to a recompute, and a recovery re-derives as it always does.
"""

import pytest

from reference_model import model_fixpoint
from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.persist import CheckpointStore, IngestJournal, Session
from repro.workloads.generators import random_workload


def _fixpoint(result):
    # Every IDB predicate, union views (stored nowhere) included.
    return {pred: result.rows(pred) for pred in result.program.idb_predicates}


def _split(full_db):
    """Two thirds of every EDB relation, and the rest as facts to ingest."""
    base_rows, extra = {}, []
    for pred in sorted(full_db.predicates()):
        rows = sorted(full_db.relation(pred).rows(), key=repr)
        keep = max(1, (2 * len(rows)) // 3)
        base_rows[pred] = rows[:keep]
        extra.extend((pred, row) for row in rows[keep:])
    return base_rows, extra


@pytest.mark.parametrize("reference", ("slots", "model"))
@pytest.mark.parametrize("seed", range(12))
def test_ingest_matches_cold_recompute(seed, reference):
    """Hold back a third of every EDB relation, evaluate, then ingest
    the held-back facts: the session fixpoint must equal the full
    database's from scratch — by the engine the session itself runs and
    by the independent model — incrementally when the workload is
    monotone, via the recompute fallback otherwise."""
    program, full_db, _ = random_workload(seed)
    base_rows, extra = _split(full_db)
    session = Session(program, Database.from_rows(base_rows))
    session.run()
    outcome = session.ingest(extra)
    assert outcome.mode in ("incremental", "recompute")
    negated = {
        literal.predicate
        for rule in program.rules
        for literal in rule.negative_literals
    }
    if negated & {pred for pred, _ in extra}:
        assert outcome.mode == "recompute"
    if reference == "model":
        baseline = model_fixpoint(program, full_db)
    else:
        baseline = _fixpoint(evaluate(program, full_db.copy()))
    assert _fixpoint(outcome.result) == baseline


#: Seeds whose held-back facts include ``blocked``, which they negate.
NON_MONOTONE = (0, 1, 2, 7, 9, 10)


@pytest.mark.parametrize("seed", NON_MONOTONE)
def test_non_monotone_journal_replay_matches_cold_recompute(tmp_path, seed):
    """The held-back facts are acknowledged into the journal one batch
    per predicate and never covered by a base; a restart from the
    initial EDB replays them — retracting what the negated ``blocked``
    rows block — and equals the full database's model fixpoint."""
    program, full_db, _ = random_workload(seed)
    base_rows, extra = _split(full_db)
    negated = {lit.predicate for rule in program.rules for lit in rule.negative_literals}
    assert "blocked" in negated & {pred for pred, _ in extra}
    writer = Session(
        program, Database.from_rows(base_rows), journal=IngestJournal(tmp_path / "journal")
    )
    for pred in sorted({pred for pred, _ in extra}):
        writer.ingest([(p, row) for p, row in extra if p == pred])
    writer.journal.close()
    outcome = Session(
        program, Database.from_rows(base_rows), store=CheckpointStore(tmp_path)
    ).recover()
    assert outcome.mode == "recovered" and outcome.replayed >= 1
    assert not outcome.fallback_chain
    assert _fixpoint(outcome.result) == model_fixpoint(program, full_db)
