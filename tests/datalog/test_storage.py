"""Columnar storage: interner semantics, relation ops, serialization
round trips, and checkpoints that hold values, never codes.

The contract under test is written up in ``docs/storage.md``: a
columnar relation is a :class:`Relation` of interner codes, so the
stored-encoding API (``all_rows``/``index_for``/``add_fresh``) speaks
codes while the value API (``add``/``probe``/``rows``/``in``/...)
matches the rows storage; digests are computed over *decoded* rows, so
they agree across storages unless ``1``, ``1.0`` and ``True`` meet.
"""

import hashlib
import json

import pytest

from repro.datalog.database import (
    _MISSING,
    STORAGES,
    ColumnarRelation,
    Database,
    Interner,
    Relation,
)
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_facts, parse_program
from repro.digest import fixpoint_digest, workload_digest
from repro.persist.journal import legacy_bases
from repro.workloads.generators import random_workload


# ------------------------------------------------------------- bulk load
INTERLEAVED = """
a(3, x). b(x, 1.5). a(4, "Two words"). c(). b(y, 3). a(3, x). a(1, y). b(x, 1.5).
c(). d(1). d(1.0). d(true).
"""


@pytest.mark.parametrize("storage", STORAGES)
def test_bulk_load_equals_fact_by_fact_load(storage):
    """Same relations, same first-appearance interner codes (the worker
    hand-off gate compares ``Interner.digest()``)."""
    facts = parse_facts(INTERLEAVED)
    bulk = Database(facts, storage=storage)
    one_by_one = Database(storage=storage)
    for fact in facts:
        one_by_one.add_fact(fact)
    assert bulk.to_dict() == one_by_one.to_dict()
    assert workload_digest(parse_program("p(X) :- d(X).", query="p"), bulk) == workload_digest(
        parse_program("p(X) :- d(X).", query="p"), one_by_one
    )
    if storage == "columnar":
        assert bulk.interner.to_list() == one_by_one.interner.to_list()
        assert bulk.interner.digest() == one_by_one.interner.digest()
        assert bulk.interner.hits == one_by_one.interner.hits
        for predicate in bulk.predicates():
            assert (
                bulk.relation(predicate).all_rows()
                == one_by_one.relation(predicate).all_rows()
            )


@pytest.mark.parametrize("storage", STORAGES)
def test_conversion_and_from_rows_load_in_bulk_with_the_same_codes(storage):
    source = Database(parse_facts(INTERLEAVED), storage=storage)
    other = "columnar" if storage == "rows" else "rows"
    converted = source.to_storage(other)
    assert converted.to_dict() == source.to_dict()
    rebuilt = Database.from_rows(
        {p: source.relation(p).to_rows() for p in sorted(source.predicates())}, storage=other
    )
    assert rebuilt.to_dict() == source.to_dict()
    if other == "columnar":
        assert rebuilt.interner.digest() == converted.interner.digest()


# ---------------------------------------------------------------- interner
def test_intern_is_idempotent_and_dense():
    interner = Interner()
    a = interner.intern("a")
    b = interner.intern("b")
    assert (a, b) == (0, 1)
    assert interner.intern("a") == a
    assert len(interner) == 2
    assert interner.decode(a) == "a"
    assert interner.to_list() == ["a", "b"]


def test_intern_counts_hits_only_for_repeats():
    interner = Interner()
    interner.intern("x")
    assert interner.hits == 0
    interner.intern("x")
    interner.intern("x")
    assert interner.hits == 2


def test_code_of_missing_value_is_a_probe_miss_sentinel():
    """``code_of`` on a never-interned constant returns a sentinel that
    hashes fine but equals nothing — so a probe key built from it
    misses every index bucket instead of raising."""
    interner = Interner()
    interner.intern("present")
    missing = interner.code_of("absent")
    assert missing is _MISSING
    assert missing != interner.intern("present")
    assert hash(missing) is not None  # usable as a dict key


def test_interner_collapses_numeric_equals_like_row_sets_do():
    """``1 == 1.0 == True`` in Python, so the interner maps them to one
    code — exactly mirroring what a row *set* does with ``(1,)`` and
    ``(True,)``.  Backends therefore collapse these identically."""
    interner = Interner()
    assert interner.intern(1) == interner.intern(1.0) == interner.intern(True)
    rows = Relation(1, [(1,), (True,)])
    columnar = ColumnarRelation(1, Interner(), [(1,), (True,)])
    assert len(rows) == len(columnar) == 1


def test_interner_seeded_from_values_reproduces_codes():
    seeded = Interner(["a", "b", "c"])
    assert seeded.code_of("b") == 1
    assert seeded.to_list() == ["a", "b", "c"]


# ------------------------------------------------------------- relations
def test_columnar_relation_matches_row_relation_api():
    rows = [("a", 1), ("b", 2), ("a", 3)]
    plain = Relation(2, rows)
    interner = Interner()
    columnar = ColumnarRelation(2, interner, rows)

    assert len(columnar) == len(plain) == 3
    assert columnar.rows() == plain.rows() == set(columnar)
    assert ("a", 1) in columnar
    assert ("z", 9) not in columnar
    assert sorted(columnar.to_rows()) == sorted(plain.to_rows())
    assert sorted(columnar.probe((0,), ("a",))) == sorted(plain.probe((0,), ("a",)))
    # What the kernels read is the same rows and index, in codes.
    decode = interner.decode

    def decoded(rows):
        return {tuple(map(decode, row)) for row in rows}

    assert decoded(columnar.all_rows()) == plain.all_rows()
    assert {decode(key): decoded(bucket) for key, bucket in columnar.index_for((0,)).items()} == {
        key: set(bucket) for key, bucket in plain.index_for((0,)).items()
    }


def test_equal_numbers_agree_under_eq_but_not_in_spelling():
    """``1 == 1.0``: rows keep each row's own spelling, columnar storage
    decodes both rows to whichever was interned first.  Answers agree
    under ``==``; ``fixpoint_digest``, which hashes ``repr``, does not."""
    facts = parse_facts("e(1.0, 2). e(1, 3).")
    program = parse_program("p(X, Y) :- e(X, Y).", query="p")
    rows = Database(facts)
    results = {
        "rows": evaluate(program, rows),
        "converted": evaluate(program, rows.to_storage("columnar")),
        "loaded": evaluate(program, Database(facts, storage="columnar")),
    }
    spelled = {name: result.relation("p").to_rows() for name, result in results.items()}
    assert spelled == {
        "rows": [(1, 3), (1.0, 2)],
        "converted": [(1, 2), (1, 3)],  # to_storage interns in repr order
        "loaded": [(1.0, 2), (1.0, 3)],  # fact order: 1.0 comes first
    }
    answers = {name: result.query_rows() for name, result in results.items()}
    assert answers["rows"] == answers["converted"] == answers["loaded"]
    # ``p`` only renames ``e``: a union view, read from ``e`` itself.
    digests = {
        fixpoint_digest([("p", {"p": result.relation("p")})])
        for result in results.values()
    }
    assert len(digests) == 3


def test_columnar_add_rejects_duplicates_and_wrong_arity():
    rel = ColumnarRelation(2, Interner())
    assert rel.add(("a", "b"))
    assert not rel.add(("a", "b"))
    with pytest.raises(ValueError):
        rel.add(("a",))


def test_columnar_probe_with_unknown_constant_misses():
    rel = ColumnarRelation(2, Interner(), [("a", "b")])
    assert rel.probe((0,), ("never-seen",)) == []


def test_columnar_copy_shares_the_interner():
    interner = Interner()
    rel = ColumnarRelation(2, interner, [("a", "b")])
    clone = rel.copy()
    assert clone.interner is interner
    clone.add(("c", "d"))
    assert len(rel) == 1  # rows are independent...
    assert interner.code_of("c") is not _MISSING  # ...the dictionary is shared


# -------------------------------------------------------------- database
def test_database_storage_selection_and_relation_classes():
    db_rows = Database.from_rows({"e": [(1, 2)]})
    db_col = Database.from_rows({"e": [(1, 2)]}, storage="columnar")
    assert db_rows.storage == "rows"
    assert db_col.storage == "columnar"
    assert isinstance(db_rows.relation("e"), Relation)
    assert isinstance(db_col.relation("e"), ColumnarRelation)
    assert db_rows.interner is None
    assert db_col.interner is not None


def test_unknown_storage_is_rejected():
    with pytest.raises(ValueError):
        Database(storage="parquet")
    with pytest.raises(ValueError):
        Database.from_rows({"e": [(1, 2)]}).to_storage("parquet")


def test_to_storage_round_trip_preserves_every_row():
    _, database, _ = random_workload(3)
    columnar = database.to_storage("columnar")
    back = columnar.to_storage("rows")
    for pred in database.predicates():
        assert columnar.relation(pred).rows() == database.relation(pred).rows()
        assert back.relation(pred).rows() == database.relation(pred).rows()
    # Converting to the storage a database is already in is the identity.
    assert columnar.to_storage("columnar") is columnar


def test_new_relation_shares_the_database_interner():
    db = Database.from_rows({"e": [("a", "b")]}, storage="columnar")
    fresh = db.new_relation(2)
    assert isinstance(fresh, ColumnarRelation)
    assert fresh.interner is db.interner


def test_workload_digest_is_storage_invariant():
    program, database, _ = random_workload(5)
    rows_digest = workload_digest(program, database)
    columnar_digest = workload_digest(program, database.to_storage("columnar"))
    assert rows_digest == columnar_digest


@pytest.mark.parametrize("storage", STORAGES)
def test_fixpoint_digest_is_storage_invariant(storage):
    program, database, _ = random_workload(7)
    baseline = evaluate(program, database.copy())
    result = evaluate(program, database.to_storage(storage))
    assert fixpoint_digest([("w", result.idb)]) == fixpoint_digest([("w", baseline.idb)])


# ---------------------------------------------------------- serialization
def test_to_dict_from_dict_round_trips_the_interner():
    db = Database.from_rows({"e": [("a", "b"), ("b", "c")]}, storage="columnar")
    payload = db.to_dict(include_interner=True)
    assert "__interner__" in payload
    restored = Database.from_dict(payload)
    # The interner key marks the payload as columnar; codes reproduce.
    assert restored.storage == "columnar"
    assert restored.relation("e").rows() == db.relation("e").rows()
    assert restored.interner.to_list() == db.interner.to_list()


def test_to_dict_without_interner_is_storage_agnostic():
    db = Database.from_rows({"e": [(1, 2)]}, storage="columnar")
    payload = db.to_dict()
    assert "__interner__" not in payload
    assert Database.from_dict(payload).storage == "rows"
    assert Database.from_dict(payload, storage="columnar").storage == "columnar"


def test_columnar_checkpoint_holds_values_not_codes(tmp_path):
    """A base is storage-agnostic: a session over a columnar database
    writes decoded rows and no interner table, and a rows session
    recovers it to the same fixpoint."""
    from repro.persist import IngestJournal, Session

    program = parse_program(
        "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).", query="t"
    )
    rows = {"e": [("a", "b"), ("b", "c")]}
    writer = Session(
        program,
        Database.from_rows(rows, storage="columnar"),
        journal=IngestJournal(tmp_path / "journal"),
    )
    writer.ingest([("e", ("c", "d"))])
    assert writer.checkpoint()
    writer.journal.close()
    [segment] = (tmp_path / "journal").glob("journal-*.log")
    payload = json.loads(segment.read_bytes().split(b" ", 3)[3])
    assert payload["rows"] == [["e", ["a", "b"]], ["e", ["b", "c"]], ["e", ["c", "d"]]]
    recovered = Session(
        program, Database.from_rows(rows), journal=IngestJournal(tmp_path / "journal")
    ).recover()
    assert recovered.mode == "recovered"
    assert recovered.result.rows("t") == {
        ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")
    }


def test_pre_columnar_checkpoints_load_without_interner(tmp_path):
    """Version-2 payloads written before the columnar backend carry no
    interner field and load all the same, for their EDB."""
    program = parse_program("t(X, Y) :- e(X, Y).", query="t")
    database = Database.from_rows({"e": [(1, 2)]})
    payload = {
        "version": 2,
        "seq": 1,
        "workload": workload_digest(program, database),
        "snapshot": {
            "complete": True,
            "idb": {"t": [[1, 2]]},
            "edb": {"e": [[1, 2]]},
            "stats": {},
        },
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(canonical.encode()).hexdigest()
    (tmp_path / "ckpt-00000001-000000000000.json").write_text(
        f'{{"checksum":"{checksum}","payload":{canonical}}}'
    )
    [restored] = legacy_bases(tmp_path)
    assert restored.rows == (("e", (1, 2)),)
    assert restored.workload == workload_digest(program, database)
