"""Property: resuming from any checkpoint reproduces the from-scratch
fixpoint, row for row, and ingesting facts incrementally matches a cold
recompute by the engine and by the independent model — across random
workloads.

``random_workload`` programs include negated EDB literals and order
atoms, so the ingest property also exercises the non-monotone
recompute fallback (seeds that negate ``blocked`` and then ingest
``blocked`` facts).
"""

import hashlib
import json

import pytest

from reference_model import model_fixpoint
from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.persist import Checkpoint, CheckpointStore, Session
from repro.workloads.generators import good_path_database, random_workload
from repro.workloads.programs import good_path


def _fixpoint(result):
    return {pred: rel.rows() for pred, rel in result.idb.items()}


def _snapshots(program, database):
    snaps = []
    evaluate(program, database.copy(), checkpoint_every=1, checkpoint_sink=snaps.append)
    return snaps


@pytest.mark.parametrize("seed", range(6))
def test_resume_from_every_round_matches_scratch(seed):
    program, database, _ = random_workload(seed)
    baseline = _fixpoint(evaluate(program, database.copy()))
    assert baseline == model_fixpoint(program, database)
    snaps = _snapshots(program, database)
    assert snaps and snaps[-1].complete
    for snap in snaps:
        resumed = evaluate(program, database.copy(), resume_from=snap)
        assert _fixpoint(resumed) == baseline


def test_naive_checkpoint_is_quarantined(tmp_path):
    """Older builds could also write naive snapshots, which carry no
    frontier: resumed semi-naively they would under-derive.  Recovery
    treats one as corrupt — quarantined, and the restart falls back to
    the checkpoint before it."""
    program, database, _ = random_workload(0)
    Session(
        program, database.copy(), store=CheckpointStore(tmp_path), checkpoint_every=1
    ).run()
    paths = CheckpointStore(tmp_path).paths()
    assert len(paths) >= 3
    paths[-1].unlink()  # the complete checkpoint
    naive = paths[-2]
    payload = Checkpoint.decode(naive.read_text()).to_payload()
    payload["snapshot"].update(strategy="naive", delta=None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(canonical.encode()).hexdigest()
    naive.write_text(f'{{"checksum":"{checksum}","payload":{canonical}}}')

    outcome = Session(program, database.copy(), store=CheckpointStore(tmp_path)).recover()
    assert outcome.mode == "resumed"
    assert _fixpoint(outcome.result) == model_fixpoint(program, database)
    assert naive.name + ".corrupt" in {path.name for path in tmp_path.glob("*.corrupt")}


def test_resume_with_provenance_rejected():
    program, database, _ = random_workload(0)
    snap = _snapshots(program, database)[0]
    with pytest.raises(ValueError, match="provenance"):
        evaluate(program, database.copy(), resume_from=snap, provenance=True)


@pytest.mark.parametrize("reference", ("slots", "model"))
@pytest.mark.parametrize("seed", range(12))
def test_ingest_matches_cold_recompute(seed, reference):
    """Hold back a third of every EDB relation, evaluate, then ingest
    the held-back facts: the session fixpoint must equal the full
    database's from scratch — by the engine the session itself runs and
    by the independent model — incrementally when the workload is
    monotone, via the recompute fallback otherwise."""
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
    if reference == "model":
        baseline = model_fixpoint(program, full_db)
    else:
        baseline = _fixpoint(evaluate(program, full_db.copy()))
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
