"""Property: resuming from any checkpoint reproduces the from-scratch
fixpoint, row for row, and ingesting facts incrementally matches a cold
recompute — across random workloads, both engines, both strategies.

``random_workload`` programs include negated EDB literals and order
atoms, so the ingest property also exercises the non-monotone
recompute fallback (seeds that negate ``blocked`` and then ingest
``blocked`` facts).
"""

import pytest

from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.persist import Session
from repro.workloads.generators import good_path_database, random_workload
from repro.workloads.programs import good_path

ENGINES = ("slots", "interpreted")
STRATEGIES = ("seminaive", "naive")


def _fixpoint(result):
    return {pred: rel.rows() for pred, rel in result.idb.items()}


def _snapshots(program, database, **kwargs):
    snaps = []
    evaluate(
        program,
        database.copy(),
        checkpoint_every=1,
        checkpoint_sink=snaps.append,
        **kwargs,
    )
    return snaps


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", range(6))
def test_resume_from_every_round_matches_scratch(seed, engine, strategy):
    program, database, _ = random_workload(seed)
    baseline = _fixpoint(
        evaluate(program, database.copy(), engine=engine, strategy=strategy)
    )
    snaps = _snapshots(program, database, engine=engine, strategy=strategy)
    assert snaps and snaps[-1].complete
    for snap in snaps:
        resumed = evaluate(
            program,
            database.copy(),
            engine=engine,
            strategy=strategy,
            resume_from=snap,
        )
        assert _fixpoint(resumed) == baseline


@pytest.mark.parametrize("seed", range(6, 10))
def test_resume_across_engines(seed):
    """Snapshots are engine-agnostic: a frontier captured under the
    compiled engine resumes under the interpreter, and vice versa."""
    program, database, _ = random_workload(seed)
    baseline = _fixpoint(evaluate(program, database.copy()))
    for source, target in (("slots", "interpreted"), ("interpreted", "slots")):
        for snap in _snapshots(program, database, engine=source):
            resumed = evaluate(
                program, database.copy(), engine=target, resume_from=snap
            )
            assert _fixpoint(resumed) == baseline


def test_resume_wrong_strategy_rejected():
    program, database, _ = random_workload(0)
    snap = _snapshots(program, database, strategy="naive")[0]
    with pytest.raises(ValueError, match="strategy"):
        evaluate(program, database.copy(), resume_from=snap)


def test_resume_with_provenance_rejected():
    program, database, _ = random_workload(0)
    snap = _snapshots(program, database)[0]
    with pytest.raises(ValueError, match="provenance"):
        evaluate(program, database.copy(), resume_from=snap, provenance=True)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", range(12))
def test_ingest_matches_cold_recompute(seed, engine):
    """Hold back a third of every EDB relation, evaluate, then ingest
    the held-back facts: the session fixpoint must equal evaluating the
    full database from scratch — on the engine the session itself runs
    and on the interpreter reference — incrementally when the workload
    is monotone, via the recompute fallback otherwise."""
    program, full_db, _ = random_workload(seed)
    base_rows, extra = {}, []
    for pred in sorted(full_db.predicates()):
        rows = sorted(full_db.relation(pred).rows(), key=repr)
        keep = max(1, (2 * len(rows)) // 3)
        base_rows[pred] = rows[:keep]
        extra.extend((pred, row) for row in rows[keep:])
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
    baseline = _fixpoint(evaluate(program, full_db.copy(), engine=engine))
    assert _fixpoint(outcome.result) == baseline


def test_example31_resume_every_round_monotone_stats():
    """Example 3.1: resuming from every round boundary yields the same
    fixpoint, and the cumulative counters never decrease — neither
    along the snapshot sequence nor across the resume boundary."""
    program, _ = good_path()
    database = good_path_database(num_chains=2, chain_length=8, seed=3)
    baseline = evaluate(program, database.copy())
    snaps = _snapshots(program, database)
    assert len(snaps) >= 3  # enough round boundaries to be interesting

    monotone_keys = ("facts_derived", "rule_firings", "rows_scanned", "iterations")
    for earlier, later in zip(snaps, snaps[1:]):
        for key in monotone_keys:
            assert getattr(later.stats, key) >= getattr(earlier.stats, key)
        assert later.stats.wall_time_seconds >= earlier.stats.wall_time_seconds

    for snap in snaps:
        resumed = evaluate(program, database.copy(), resume_from=snap)
        assert _fixpoint(resumed) == _fixpoint(baseline)
        # cumulative across the boundary: the resumed run continues the
        # snapshot's counters instead of starting over...
        for key in monotone_keys:
            assert getattr(resumed.stats, key) >= getattr(snap.stats, key)
        assert resumed.stats.wall_time_seconds >= snap.stats.wall_time_seconds
    # ...and resuming from the complete snapshot re-derives nothing.
    final = evaluate(program, database.copy(), resume_from=snaps[-1])
    assert final.stats.facts_derived == snaps[-1].stats.facts_derived
    assert _fixpoint(final) == _fixpoint(baseline)
