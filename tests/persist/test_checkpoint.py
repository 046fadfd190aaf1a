"""Base format: round trips, checksums, digests, the version-2 read."""

import hashlib
import json
import random
import shutil
from pathlib import Path

import pytest

from reference_model import model_fixpoint
from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_program
from repro.digest import bind_edb, edb_hash, program_digest, rows_hash
from repro.persist import CheckpointStore, Session
from repro.persist.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointCorrupt,
    fixpoint_digest,
    workload_digest,
)

PROGRAM = parse_program(
    """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    q(Y) :- path(1, Y).
    """,
    query="q",
)

#: Written by ``Session(p/r program, e: (1, 2) (2, 3) (3, 4), f: (7, 8)).run()``
#: in a build whose checkpoints (format version 2) held the fixpoint,
#: its counters and the keys older builds read, beside the EDB.
PARENT_CHECKPOINT = Path(__file__).resolve().parent / "fixtures" / "ckpt-00000001-c12db7abedef.json"
PARENT_PROGRAM = parse_program(
    """
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
    r(X, Y) :- p(X, Y).
    r(X, Y) :- f(X, Y).
    """,
    query="r",
)


def _database():
    return Database.from_rows({"edge": [(1, 2), (2, 3), (3, 4)]})


def _checkpoint(seq=1):
    return Checkpoint(
        seq=seq,
        workload=workload_digest(PROGRAM, _database()),
        edb={"edge": _database().relation("edge").rows()},
    )


def _signed(payload: dict) -> str:
    """A checkpoint file's text for ``payload``, with a valid checksum."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(canonical.encode()).hexdigest()
    return f'{{"checksum":"{checksum}","payload":{canonical}}}'


def test_encode_decode_round_trip():
    original = _checkpoint()
    text, checksum = original.encode()
    restored = Checkpoint.decode(text)
    assert restored == original
    assert restored.edb_facts == 3
    assert json.loads(text)["payload"] == {
        "version": CHECKPOINT_VERSION,
        "seq": 1,
        "workload": original.workload,
        "edb": {"edge": [[1, 2], [2, 3], [3, 4]]},
    }
    # content addressing: re-encoding reproduces the same checksum
    assert restored.encode()[1] == checksum
    assert original.filename() == f"ckpt-00000001-{checksum[:12]}.json"


def test_parent_format_payload_loads():
    """A version-2 file is read for its EDB, and nothing else of it."""
    text = PARENT_CHECKPOINT.read_text()
    payload = json.loads(text)["payload"]
    assert payload["version"] == 2 and payload["snapshot"]["idb"]
    restored = Checkpoint.decode(text)
    assert restored.seq == 1 and restored.workload == payload["workload"]
    assert restored.edb == {"e": {(1, 2), (2, 3), (3, 4)}, "f": {(7, 8)}}
    # Its EDB reproduces its digest, so recovery may fold it in...
    edb = Database.from_rows(restored.edb)
    assert workload_digest(PARENT_PROGRAM, edb) == restored.workload
    # ...and re-encoded it is a version-3 base: no fixpoint, no counters.
    rewritten = json.loads(restored.encode()[0])["payload"]
    assert set(rewritten) == {"version", "seq", "workload", "edb"}
    assert rewritten["version"] == CHECKPOINT_VERSION == 3


def test_a_parent_checkpoint_recovers_its_edb_and_re_derives(tmp_path):
    """The committed version-2 fixture, under the initial EDB ``e``
    alone: recovery folds in its ``f`` row and derives the fixpoint."""
    shutil.copy(PARENT_CHECKPOINT, tmp_path / PARENT_CHECKPOINT.name)
    initial = {"e": [(1, 2), (2, 3), (3, 4)]}
    outcome = Session(
        PARENT_PROGRAM, Database.from_rows(initial), store=CheckpointStore(tmp_path)
    ).recover()
    assert outcome.mode == "recovered" and outcome.replayed == 0
    assert outcome.result.database.relation("f").rows() == {(7, 8)}
    full = Database.from_rows({**initial, "f": [(7, 8)]})
    assert outcome.result.rows("r") == model_fixpoint(PARENT_PROGRAM, full)["r"]


def test_a_parent_checkpoints_idb_is_never_read(tmp_path):
    """A version-2 file with a valid checksum whose ``idb`` holds a row
    that does not derive: recovery returns the re-derived fixpoint."""
    payload = json.loads(PARENT_CHECKPOINT.read_text())["payload"]
    payload["snapshot"]["idb"]["p"].append([4, 1])
    payload["snapshot"]["idb"]["r"].append([4, 1])
    (tmp_path / "ckpt-00000001-000000000000.json").write_text(_signed(payload))
    database = Database.from_rows({"e": [(1, 2), (2, 3), (3, 4)], "f": [(7, 8)]})
    outcome = Session(
        PARENT_PROGRAM, database.copy(), store=CheckpointStore(tmp_path)
    ).recover()
    fixpoint = {pred: outcome.result.rows(pred) for pred in ("p", "r")}
    assert fixpoint == model_fixpoint(PARENT_PROGRAM, database)
    assert (4, 1) not in fixpoint["p"]


def test_summary_reports_one_number_per_fact(tmp_path):
    """A base is summarised by its EDB facts, not by a fixpoint."""
    store = CheckpointStore(tmp_path)
    session = Session(PROGRAM, _database(), store=store)
    session.run()
    session.ingest([("edge", (4, 5))])
    assert session.checkpoint()
    [path] = store.paths()
    summary = session.base_summary()
    assert set(summary) == {"seq", "edb_facts", "bytes", "age_seconds"}
    assert summary["seq"] == store.load(path).seq == 1
    assert summary["edb_facts"] == 4
    assert summary["bytes"] == path.stat().st_size
    assert summary["age_seconds"] >= 0


def test_decode_rejects_bit_flip():
    text, _ = _checkpoint().encode()
    flipped = text.replace('"seq":1', '"seq":2', 1)
    assert flipped != text
    with pytest.raises(CheckpointCorrupt, match="checksum mismatch"):
        Checkpoint.decode(flipped)


def test_decode_rejects_truncation_and_garbage():
    text, _ = _checkpoint().encode()
    with pytest.raises(CheckpointCorrupt):
        Checkpoint.decode(text[: len(text) // 2])
    with pytest.raises(CheckpointCorrupt):
        Checkpoint.decode("not json at all")
    with pytest.raises(CheckpointCorrupt, match="envelope"):
        Checkpoint.decode(json.dumps({"payload": {}}))


def test_unsupported_version_is_corrupt():
    payload = _checkpoint().to_payload()
    payload["version"] = CHECKPOINT_VERSION + 1
    with pytest.raises(CheckpointCorrupt, match="version"):
        Checkpoint.from_payload(payload)


def test_malformed_payload_is_corrupt_not_keyerror():
    payload = _checkpoint().to_payload()
    del payload["edb"]
    with pytest.raises(CheckpointCorrupt, match="malformed"):
        Checkpoint.from_payload(payload)
    parent = json.loads(PARENT_CHECKPOINT.read_text())["payload"]
    del parent["snapshot"]
    with pytest.raises(CheckpointCorrupt, match="malformed"):
        Checkpoint.from_payload(parent)


def test_old_checkpoint_stats_missing_new_fields_load():
    """A version-2 file's counters are never read: whatever its stats
    hold, it loads for its EDB — and only a complete one does."""
    payload = json.loads(PARENT_CHECKPOINT.read_text())["payload"]
    for key in ("budget_trips", "wall_time_seconds"):
        del payload["snapshot"]["stats"][key]
    assert Checkpoint.from_payload(payload).edb_facts == 4
    payload["snapshot"]["stats"] = "not counters"
    assert Checkpoint.from_payload(payload).edb_facts == 4
    payload["snapshot"]["complete"] = False
    assert Checkpoint.from_payload(payload).edb is None


def test_workload_digest_sensitivity():
    base = workload_digest(PROGRAM, _database())
    assert base == workload_digest(PROGRAM, _database())  # deterministic
    other_db = _database()
    other_db.add_row("edge", (4, 5))
    assert workload_digest(PROGRAM, other_db) != base
    other_program = parse_program("q(X) :- edge(X, Y).", query="q")
    assert workload_digest(other_program, _database()) != base
    assert workload_digest(PROGRAM, _database(), constraints=("ic1",)) != base


def test_fixpoint_digest_survives_serialization():
    """A base's EDB round trip re-derives the identical fixpoint."""
    before = fixpoint_digest([("unit", evaluate(PROGRAM, _database()).idb)])
    restored = Checkpoint.decode(_checkpoint().encode()[0])
    database = Database.from_rows(restored.edb)
    assert workload_digest(PROGRAM, database) == restored.workload
    assert fixpoint_digest([("unit", evaluate(PROGRAM, database).idb)]) == before


def test_payload_is_serialized_once_per_checkpoint(tmp_path, monkeypatch):
    """encode / filename / save share one canonical serialization, and
    the checksum is of exactly the payload bytes the file embeds."""
    from repro.persist import CheckpointStore

    calls = []
    real = Checkpoint.to_payload
    monkeypatch.setattr(
        Checkpoint, "to_payload", lambda self: calls.append(1) or real(self)
    )
    ckpt = _checkpoint()
    text, checksum = ckpt.encode()
    path = CheckpointStore(tmp_path).save(ckpt)
    assert path.name == ckpt.filename() and path.read_text() == text
    assert len(calls) == 1
    prefix = f'{{"checksum":"{checksum}","payload":'
    assert text.startswith(prefix) and text.endswith("}")
    embedded = text[len(prefix):-1]
    assert hashlib.sha256(embedded.encode()).hexdigest() == checksum
    assert json.loads(embedded) == real(ckpt)


@pytest.mark.parametrize("seed", range(5))
def test_multiset_digest_tracks_any_sequence_of_adds(seed):
    """The carried EDB hash equals a from-scratch ``workload_digest``
    after every batch of adds, whatever the insertion order."""
    rng = random.Random(seed)
    rows = list(
        {(rng.choice(["edge", "node", "label"]), (rng.randint(0, 30), rng.choice([1, "a", None, 2.5])))
         for _ in range(60)}
    )
    shape = program_digest(PROGRAM)
    digests = set()
    for _ in range(3):
        rng.shuffle(rows)
        database, carried = Database(), 0
        position = 0
        while position < len(rows):
            batch = rows[position : position + rng.randint(1, 7)]
            position += len(batch)
            for predicate, row in batch:
                assert database.add_row(predicate, row)
            carried = rows_hash(batch, carried)
            assert carried == edb_hash(database)
            assert bind_edb(shape, carried) == workload_digest(PROGRAM, database)
        digests.add(bind_edb(shape, carried))
    assert len(digests) == 1  # independent of insertion order
    assert workload_digest(PROGRAM, Database()) == bind_edb(shape, 0) != shape
