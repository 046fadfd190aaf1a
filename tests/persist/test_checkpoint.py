"""Checkpoint format: round trips, checksums, digests, version gates."""

import hashlib
import json
import random
from dataclasses import replace

import pytest

from repro.datalog.database import Database
from repro.datalog.evaluation import EvaluationStats, evaluate
from repro.datalog.parser import parse_program
from repro.digest import bind_edb, edb_hash, program_digest, rows_hash
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


def _database():
    return Database.from_rows({"edge": [(1, 2), (2, 3), (3, 4)]})


def _snapshot(**overrides):
    snaps = []
    evaluate(PROGRAM, _database(), checkpoint_every=1, checkpoint_sink=snaps.append)
    snap = snaps[0]
    return replace(snap, **overrides) if overrides else snap


def _checkpoint(seq=1):
    return Checkpoint(
        seq=seq, workload=workload_digest(PROGRAM, _database()), snapshot=_snapshot()
    )


def test_encode_decode_round_trip():
    original = _checkpoint()
    text, checksum = original.encode()
    restored = Checkpoint.decode(text)
    assert restored.seq == original.seq
    assert restored.workload == original.workload
    assert restored.version == CHECKPOINT_VERSION
    snap, orig = restored.snapshot, original.snapshot
    assert snap.completed_sccs == orig.completed_sccs
    assert snap.scc_index == orig.scc_index
    assert snap.iteration == orig.iteration
    assert snap.complete == orig.complete
    assert dict(snap.idb) == {p: frozenset(r) for p, r in orig.idb.items()}
    assert dict(snap.delta) == {p: frozenset(r) for p, r in orig.delta.items()}
    assert snap.stats.as_dict() == orig.stats.as_dict()
    # content addressing: re-encoding reproduces the same checksum
    assert restored.encode()[1] == checksum
    assert original.filename() == f"ckpt-00000001-{checksum[:12]}.json"


#: The checksum a build that still had a naive strategy wrote for
#: ``_checkpoint()`` with its wall time zeroed: the format is unchanged.
PARENT_CHECKSUM = "e8cc5485cfee906ef7e2d79e7249d67581d7c50dc7cc80a8a0b04b6075c4d0e2"


def test_parent_format_payload_loads():
    checkpoint = _checkpoint()
    stats = {**checkpoint.snapshot.stats.as_dict(), "wall_time_seconds": 0.0}
    checkpoint = replace(
        checkpoint,
        snapshot=replace(checkpoint.snapshot, stats=EvaluationStats.from_dict(stats)),
    )
    text, checksum = checkpoint.encode()
    assert checksum == PARENT_CHECKSUM
    # Builds before one strategy read the key unconditionally, so it is
    # still written; a payload with it or without it restores the state.
    payload = checkpoint.to_payload()
    assert payload["snapshot"]["strategy"] == "seminaive"
    del payload["snapshot"]["strategy"]
    for restored in (Checkpoint.decode(text), Checkpoint.from_payload(payload)):
        assert restored.encode() == (text, checksum)
    assert "strategy" not in checkpoint.summary()


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
    del payload["snapshot"]["idb"]
    with pytest.raises(CheckpointCorrupt, match="malformed"):
        Checkpoint.from_payload(payload)


def test_old_checkpoint_stats_missing_new_fields_load():
    payload = _checkpoint().to_payload()
    # Simulate a checkpoint written before PR-4 counters existed.
    for key in ("budget_trips", "wall_time_seconds"):
        del payload["snapshot"]["stats"][key]
    restored = Checkpoint.from_payload(payload)
    assert restored.snapshot.stats.budget_trips == 0
    assert restored.snapshot.stats.wall_time_seconds == 0.0
    # ...and it still merges/compares cleanly against current stats.
    current = EvaluationStats()
    current.merge(restored.snapshot.stats)
    assert current.compare(restored.snapshot.stats)


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
    """JSON round trip of the IDB must not change the digest."""
    from repro.datalog.database import Relation

    result = evaluate(PROGRAM, _database())
    before = fixpoint_digest([("unit", result.idb)])
    ckpt = Checkpoint(
        seq=1,
        workload=workload_digest(PROGRAM, _database()),
        snapshot=_snapshot(idb={p: r.rows() for p, r in result.idb.items()}),
    )
    restored = Checkpoint.decode(ckpt.encode()[0])
    idb = {
        pred: Relation(len(next(iter(rows))) if rows else 1, rows)
        for pred, rows in restored.snapshot.idb.items()
    }
    assert fixpoint_digest([("unit", idb)]) == before


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
