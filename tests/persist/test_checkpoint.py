"""Base format: the base frame, the legacy ``ckpt-*.json`` read, digests."""

import hashlib
import json
import random
import shutil
import time
from pathlib import Path

import pytest

from reference_model import model_fixpoint
from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_program
from repro.digest import bind_edb, edb_hash, program_digest, rows_hash
from repro.persist import IngestJournal, Session, fixpoint_digest, workload_digest
from repro.persist.journal import (
    JOURNAL_VERSION,
    JournalCorrupt,
    JournalRecord,
    _parse_frame,
    legacy_bases,
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


def _base(seq=1):
    return JournalRecord(
        seq=seq,
        workload=workload_digest(PROGRAM, _database()),
        rows=tuple(("edge", row) for row in sorted(_database().relation("edge").rows())),
        written=1_700_000_000.5,
    )


def _signed(payload: dict) -> str:
    """A legacy base file's text for ``payload``, with a valid checksum."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(canonical.encode()).hexdigest()
    return f'{{"checksum":"{checksum}","payload":{canonical}}}'


def _legacy(directory):
    return list(legacy_bases(Path(directory)))


def test_encode_decode_round_trip():
    original = _base()
    frame = original.encode()
    restored, end = _parse_frame(frame, 0)
    assert restored == original and end == len(frame)
    assert restored.base and len(restored.rows) == 3
    assert json.loads(frame.split(b" ", 3)[3]) == {
        "version": JOURNAL_VERSION,
        "seq": 1,
        "workload": original.workload,
        "rows": [["edge", [1, 2]], ["edge", [2, 3]], ["edge", [3, 4]]],
        "written": 1_700_000_000.5,
    }
    # An ingest record carries no ``written``: that is what marks a base.
    record = JournalRecord(seq=2, workload="w" * 64, rows=(("edge", (4, 5)),))
    assert not record.base and "written" not in record.to_payload()


def test_parent_format_payload_loads(tmp_path):
    """A version-2 file is read for its EDB, and nothing else of it."""
    shutil.copy(PARENT_CHECKPOINT, tmp_path / PARENT_CHECKPOINT.name)
    payload = json.loads(PARENT_CHECKPOINT.read_text())["payload"]
    assert payload["version"] == 2 and payload["snapshot"]["idb"]
    [restored] = _legacy(tmp_path)
    assert restored.base and restored.seq == 1
    assert restored.workload == payload["workload"]
    assert set(restored.rows) == {("e", (1, 2)), ("e", (2, 3)), ("e", (3, 4)), ("f", (7, 8))}
    # Its EDB reproduces its digest, so recovery may fold it in.
    edb = Database.from_rows({"e": [(1, 2), (2, 3), (3, 4)], "f": [(7, 8)]})
    assert workload_digest(PARENT_PROGRAM, edb) == restored.workload


def test_a_parent_checkpoint_recovers_its_edb_and_re_derives(tmp_path):
    """The committed version-2 fixture, under the initial EDB ``e``
    alone: recovery folds in its ``f`` row, derives the fixpoint and
    leaves the row in a base frame instead of the file."""
    shutil.copy(PARENT_CHECKPOINT, tmp_path / PARENT_CHECKPOINT.name)
    initial = {"e": [(1, 2), (2, 3), (3, 4)]}
    outcome = Session(
        PARENT_PROGRAM,
        Database.from_rows(initial),
        journal=IngestJournal(tmp_path / "journal"),
    ).recover()
    assert outcome.mode == "recovered" and outcome.replayed == 0
    assert outcome.checkpoints_written == 1
    assert outcome.result.database.relation("f").rows() == {(7, 8)}
    full = Database.from_rows({**initial, "f": [(7, 8)]})
    assert outcome.result.rows("r") == model_fixpoint(PARENT_PROGRAM, full)["r"]
    assert not list(tmp_path.glob("ckpt-*.json"))
    [base] = IngestJournal(tmp_path / "journal").frames()
    assert base.base and ("f", (7, 8)) in base.rows


def test_a_parent_checkpoints_idb_is_never_read(tmp_path):
    """A version-2 file with a valid checksum whose ``idb`` holds a row
    that does not derive: recovery returns the re-derived fixpoint."""
    payload = json.loads(PARENT_CHECKPOINT.read_text())["payload"]
    payload["snapshot"]["idb"]["p"].append([4, 1])
    payload["snapshot"]["idb"]["r"].append([4, 1])
    (tmp_path / "ckpt-00000001-000000000000.json").write_text(_signed(payload))
    database = Database.from_rows({"e": [(1, 2), (2, 3), (3, 4)], "f": [(7, 8)]})
    outcome = Session(
        PARENT_PROGRAM, database.copy(), journal=IngestJournal(tmp_path / "journal")
    ).recover()
    fixpoint = {pred: outcome.result.rows(pred) for pred in ("p", "r")}
    assert fixpoint == model_fixpoint(PARENT_PROGRAM, database)
    assert (4, 1) not in fixpoint["p"]


def test_summary_reports_one_number_per_fact(tmp_path):
    """A base is summarised by its EDB facts, not by a fixpoint."""
    session = Session(PROGRAM, _database(), journal=IngestJournal(tmp_path / "journal"))
    session.run()
    session.ingest([("edge", (4, 5))])
    assert session.checkpoint()
    [segment] = sorted((tmp_path / "journal").glob("journal-*.log"))
    summary = session.base_summary()
    assert set(summary) == {"seq", "edb_facts", "bytes", "age_seconds"}
    assert summary["seq"] == 2  # the ingest record was 1
    assert summary["edb_facts"] == 4
    assert summary["bytes"] == segment.stat().st_size  # the segment is the base
    assert 0 <= summary["age_seconds"] < 60
    # A session that has not recovered yet reports the same base.
    fresh = Session(PROGRAM, _database(), journal=IngestJournal(tmp_path / "journal"))
    assert {**fresh.base_summary(), "age_seconds": 0} == {**summary, "age_seconds": 0}


def test_decode_rejects_bit_flip(tmp_path):
    """A legacy file whose checksum does not verify is passed over, and
    left where it is."""
    text = _signed({"version": 3, "seq": 1, "workload": "w", "edb": {"e": [[1, 2]]}})
    flipped = text.replace('"seq":1', '"seq":2', 1)
    assert flipped != text
    path = tmp_path / "ckpt-00000001-000000000000.json"
    path.write_text(flipped)
    assert _legacy(tmp_path) == []
    path.write_text(text)
    assert [base.seq for base in _legacy(tmp_path)] == [1]
    assert path.exists()


def test_decode_rejects_truncation_and_garbage(tmp_path):
    text = _signed({"version": 3, "seq": 1, "workload": "w", "edb": {"e": [[1, 2]]}})
    for bad in (text[: len(text) // 2], "not json at all", json.dumps({"payload": {}})):
        (tmp_path / "ckpt-00000001-000000000000.json").write_text(bad)
        assert _legacy(tmp_path) == []
    # A frame that fails its CRC is a torn tail, never a record.
    frame = bytearray(_base().encode())
    frame[20] ^= 0xFF
    assert _parse_frame(bytes(frame), 0) is None


def test_unsupported_version_is_corrupt():
    payload = _base().to_payload()
    payload["version"] = JOURNAL_VERSION + 1
    with pytest.raises(JournalCorrupt, match="version"):
        JournalRecord.from_payload(payload)
    payload["version"] = 1  # an older build's ingest record is read
    assert JournalRecord.from_payload(payload).seq == 1


def test_malformed_payload_is_corrupt_not_keyerror(tmp_path):
    payload = _base().to_payload()
    del payload["rows"]
    with pytest.raises(JournalCorrupt, match="malformed"):
        JournalRecord.from_payload(payload)
    parent = json.loads(PARENT_CHECKPOINT.read_text())["payload"]
    del parent["snapshot"]
    (tmp_path / "ckpt-00000001-000000000000.json").write_text(_signed(parent))
    assert _legacy(tmp_path) == []


def test_old_checkpoint_stats_missing_new_fields_load(tmp_path):
    """A version-2 file's counters are never read: whatever its stats
    hold, it loads for its EDB — and only a complete one does."""
    payload = json.loads(PARENT_CHECKPOINT.read_text())["payload"]
    path = tmp_path / "ckpt-00000001-000000000000.json"
    for key in ("budget_trips", "wall_time_seconds"):
        del payload["snapshot"]["stats"][key]
    path.write_text(_signed(payload))
    assert [len(base.rows) for base in _legacy(tmp_path)] == [4]
    payload["snapshot"]["stats"] = "not counters"
    path.write_text(_signed(payload))
    assert [len(base.rows) for base in _legacy(tmp_path)] == [4]
    payload["snapshot"]["complete"] = False
    path.write_text(_signed(payload))
    assert _legacy(tmp_path) == []


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
    restored, _ = _parse_frame(_base().encode(), 0)
    rows: dict = {}
    for predicate, row in restored.rows:
        rows.setdefault(predicate, []).append(row)
    database = Database.from_rows(rows)
    assert workload_digest(PROGRAM, database) == restored.workload
    assert fixpoint_digest([("unit", evaluate(PROGRAM, database).idb)]) == before


def test_payload_is_serialized_once_per_checkpoint(tmp_path, monkeypatch):
    """A base write serializes the EDB once, and the size it reports —
    the next lag limit — is that of the frame on disk."""
    session = Session(PROGRAM, _database(), journal=IngestJournal(tmp_path / "journal"))
    session.run()
    session.ingest([("edge", (4, 5))])
    calls = []
    real = JournalRecord.to_payload
    monkeypatch.setattr(
        JournalRecord, "to_payload", lambda self: calls.append(self.base) or real(self)
    )
    before = time.time()
    assert session.checkpoint()
    assert calls == [True]
    [segment] = sorted((tmp_path / "journal").glob("journal-*.log"))
    assert session._lag_limit() == segment.stat().st_size
    [base] = IngestJournal(tmp_path / "journal").frames()
    assert base.base and before <= base.written <= time.time()


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
