"""Property: ingesting facts incrementally matches a cold recompute, row
for row, by the engine and by the independent model — across random
workloads.  (Resuming a killed evaluation from a per-round frontier is
gone: a killed evaluation is simply run again.)

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
from repro.workloads.generators import random_workload


def _fixpoint(result):
    # Every IDB predicate, union views (stored nowhere) included.
    return {pred: result.rows(pred) for pred in result.program.idb_predicates}


def test_naive_checkpoint_is_quarantined(tmp_path):
    """Older builds could also write naive snapshots, which no build
    restores from.  Recovery treats one as corrupt — quarantined — and
    the restart falls back to a fresh run."""
    program, database, _ = random_workload(0)
    Session(program, database.copy(), store=CheckpointStore(tmp_path)).run()
    [naive] = CheckpointStore(tmp_path).paths()
    payload = Checkpoint.decode(naive.read_text()).to_payload()
    payload["snapshot"]["strategy"] = "naive"
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(canonical.encode()).hexdigest()
    naive.write_text(f'{{"checksum":"{checksum}","payload":{canonical}}}')

    outcome = Session(program, database.copy(), store=CheckpointStore(tmp_path)).recover()
    assert outcome.mode == "fresh"
    assert _fixpoint(outcome.result) == model_fixpoint(program, database)
    assert naive.name + ".corrupt" in {path.name for path in tmp_path.glob("*.corrupt")}


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
