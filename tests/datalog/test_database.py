"""Storage-layer tests: relations, indexes, databases."""

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.database import (
    ArityMismatch,
    ColumnarRelation,
    Database,
    Interner,
    NonGroundFact,
    Relation,
)
from repro.robustness.errors import ReproError
from repro.datalog.terms import Constant


class TestRelation:
    def test_add_and_contains(self):
        rel = Relation(2)
        assert rel.add((1, 2))
        assert not rel.add((1, 2))  # duplicate
        assert (1, 2) in rel
        assert (2, 1) not in rel
        assert len(rel) == 1

    def test_arity_checked(self):
        rel = Relation(2)
        with pytest.raises(ValueError):
            rel.add((1,))

    def test_arity_error_is_typed(self):
        with pytest.raises(ArityMismatch) as caught:
            Relation(2).add((1,))
        assert isinstance(caught.value, ReproError)
        assert str(caught.value) == "arity mismatch: expected 2, got 1"

    @pytest.mark.parametrize(
        "make", [lambda: Relation(2), lambda: ColumnarRelation(2, Interner())]
    )
    def test_extend_checks_every_row_before_inserting_any(self, make):
        rel = make()
        assert rel.extend([(1, 2), (3, 4), (1, 2)]) == 2
        assert rel.extend([(3, 4), (5, 6)]) == 1
        with pytest.raises(ArityMismatch, match="expected 2, got 3"):
            rel.extend([(7, 8), (7, 8, 9), (1,)])
        assert rel.rows() == {(1, 2), (3, 4), (5, 6)}

    @pytest.mark.parametrize(
        "make", [lambda: Relation(3), lambda: ColumnarRelation(3, Interner())]
    )
    @pytest.mark.parametrize("positions", [(0,), (2,), (0, 2), (2, 0), (0, 1, 2)])
    def test_extend_and_add_keep_built_indexes_in_step(self, make, positions):
        rel = make()
        rel.extend([(1, 2, 3), (1, 5, 3)])
        index = rel.index_for(positions)
        rel.extend([(1, 2, 4), (1, 2, 3)])
        rel.add((9, 9, 9))
        expected = {}
        for row in rel.rows():
            # One position is keyed by the bare value, several by the tuple.
            key = tuple(row[i] for i in positions)
            expected.setdefault(key[0] if len(key) == 1 else key, set()).add(row)
        assert {key: set(rows) for key, rows in index.items()} == expected
        assert all(len(rows) == len(set(rows)) for rows in index.values())

    def test_add_fresh_leaves_the_state_row_by_row_add_would(self):
        rows = [(i % 7, i % 5, i) for i in range(40)]
        one_by_one, bulk = Relation(3, rows[:10]), Relation(3, rows[:10])
        for rel in (one_by_one, bulk):
            rel.index_for((0,))
            rel.index_for((1, 0))
        for row in rows[10:]:
            one_by_one.add(row)
        bulk.add_fresh(rows[10:])
        assert list(bulk) == list(one_by_one)  # same set layout, same scan order
        for positions in ((0,), (1, 0)):
            assert bulk.index_for(positions) == one_by_one.index_for(positions)

    def test_probe_full_scan(self):
        rel = Relation(2, [(1, 2), (3, 4)])
        assert sorted(rel.probe((), ())) == [(1, 2), (3, 4)]

    def test_probe_full_scan_builds_no_degenerate_index(self):
        rel = Relation(2, [(1, 2), (3, 4)])
        rel.probe((), ())
        assert not rel.has_index(())  # no empty-keyed index cached

    def test_index_for_caches_and_counts_builds(self):
        class Stats:
            index_builds = 0

        stats = Stats()
        rel = Relation(2, [(1, 2), (1, 3), (2, 3)])
        index = rel.index_for((0,), stats)
        assert sorted(index[1]) == [(1, 2), (1, 3)]
        assert stats.index_builds == 1
        assert rel.has_index((0,))
        # Cached: a second fetch builds nothing.
        assert rel.index_for((0,), stats) is index
        assert stats.index_builds == 1

    def test_index_for_rejects_empty_positions(self):
        rel = Relation(2, [(1, 2)])
        with pytest.raises(ValueError):
            rel.index_for(())

    def test_all_rows_is_the_live_row_set(self):
        rel = Relation(1, [(1,)])
        rows = rel.all_rows()
        assert rows == {(1,)}
        rel.add((2,))
        assert rows == {(1,), (2,)}

    def test_probe_indexed(self):
        rel = Relation(2, [(1, 2), (1, 3), (2, 3)])
        assert sorted(rel.probe((0,), (1,))) == [(1, 2), (1, 3)]
        assert rel.probe((0, 1), (2, 3)) == [(2, 3)]
        assert rel.probe((1,), (9,)) == []

    def test_index_updated_on_insert(self):
        rel = Relation(2, [(1, 2)])
        assert rel.probe((0,), (1,)) == [(1, 2)]  # builds the index
        rel.add((1, 5))
        assert sorted(rel.probe((0,), (1,))) == [(1, 2), (1, 5)]

    def test_copy_independent(self):
        rel = Relation(1, [(1,)])
        clone = rel.copy()
        clone.add((2,))
        assert len(rel) == 1 and len(clone) == 2

    def test_zero_arity(self):
        rel = Relation(0)
        rel.add(())
        assert () in rel and len(rel) == 1


class TestDatabase:
    def test_add_fact_and_contains(self):
        db = Database([Atom("e", (Constant(1), Constant(2)))])
        assert db.contains("e", (1, 2))
        assert not db.contains("e", (2, 1))
        assert not db.contains("missing", (1,))

    def test_nonground_fact_rejected(self):
        from repro.datalog.terms import Variable

        with pytest.raises(ValueError):
            Database([Atom("e", (Variable("X"),))])

    def test_nonground_fact_error_is_typed(self):
        from repro.datalog.terms import Variable

        nonground = Atom("e", (Constant(1), Variable("X")))
        for load in (lambda: Database([nonground]), lambda: Database().add_fact(nonground)):
            with pytest.raises(NonGroundFact) as caught:
                load()
            assert isinstance(caught.value, ReproError) and isinstance(caught.value, ValueError)
            assert str(caught.value) == "fact e(1, X) is not ground"

    @pytest.mark.parametrize("storage", ["rows", "columnar"])
    def test_pairs_and_atoms_load_alike_and_may_be_mixed(self, storage):
        """The class docstring's "ground atoms or (predicate, row) pairs"."""
        atoms = [Atom("e", (Constant(1), Constant(2))), Atom("v", (Constant("a"),)),
                 Atom("e", (Constant(2), Constant(3)))]
        pairs = [("e", (1, 2)), ("v", ("a",)), ("e", [2, 3])]
        expected = Database(atoms, storage=storage)
        for facts in (pairs, [atoms[0], pairs[1], atoms[2]], iter(pairs)):
            db = Database(facts, storage=storage)
            assert db.to_dict(include_interner=True) == expected.to_dict(include_interner=True)
        with pytest.raises(ArityMismatch, match="for e: expected 2, got 1"):
            Database([atoms[0], ("e", (1,))], storage=storage)

    @pytest.mark.parametrize("storage", ["rows", "columnar"])
    def test_mixed_arities_name_the_predicate(self, storage):
        facts = [Atom("e", (Constant(1), Constant(2))), Atom("e", (Constant(1),))]
        with pytest.raises(ArityMismatch) as caught:
            Database(facts, storage=storage)
        assert str(caught.value) == "arity mismatch for e: expected 2, got 1"
        db = Database(facts[:1], storage=storage)
        with pytest.raises(ArityMismatch, match="for e: expected 2, got 1"):
            db.add_fact(facts[1])
        with pytest.raises(ArityMismatch, match="for e: expected 2, got 3"):
            Database.from_rows({"e": [(1, 2), (1, 2, 3)]}, storage=storage)
        assert isinstance(caught.value, ValueError) and isinstance(caught.value, ReproError)

    def test_from_rows(self):
        db = Database.from_rows({"e": [(1, 2), (2, 3)], "v": [(1,)]})
        assert db.size() == 3
        assert db.predicates() == {"e", "v"}

    def test_relation_missing_needs_arity(self):
        db = Database()
        with pytest.raises(KeyError):
            db.relation("nope")
        assert len(db.relation("nope", 2)) == 0

    def test_facts_iteration_ground(self):
        db = Database.from_rows({"e": [(1, 2)]})
        facts = list(db.facts())
        assert facts == [Atom("e", (Constant(1), Constant(2)))]

    def test_copy_independent(self):
        db = Database.from_rows({"e": [(1, 2)]})
        clone = db.copy()
        clone.add_row("e", (3, 4))
        assert db.size() == 1 and clone.size() == 2


class TestSerialization:
    def test_relation_to_rows_sorted_and_stable(self):
        rel = Relation(2, [(3, 4), (1, 2), (1, 10)])
        rows = rel.to_rows()
        assert rows == sorted(rel.rows(), key=repr)
        assert rows == rel.to_rows()  # deterministic across calls
        rows.append((9, 9))  # a copy, not the live row set
        assert (9, 9) not in rel

    def test_database_round_trip(self):
        db = Database.from_rows(
            {"e": [(1, 2), (2, 3)], "label": [("a", 1)], "flag": [()]}
        )
        payload = db.to_dict()
        restored = Database.from_dict(payload)
        assert restored.predicates() == db.predicates()
        for pred in db.predicates():
            assert restored.relation(pred).rows() == db.relation(pred).rows()
            assert restored.relation(pred).arity == db.relation(pred).arity

    def test_to_dict_is_json_ready(self):
        import json

        db = Database.from_rows({"e": [(1, 2)], "name": [("x",)]})
        text = json.dumps(db.to_dict(), sort_keys=True)
        restored = Database.from_dict(json.loads(text))
        assert restored.relation("e").rows() == {(1, 2)}
        assert restored.relation("name").rows() == {("x",)}
        # deterministic: same database, same serialization
        assert json.dumps(db.to_dict(), sort_keys=True) == text

    def test_empty_relation_survives_round_trip_with_arity(self):
        payload = {"empty": {"arity": 3, "rows": []}}
        restored = Database.from_dict(payload)
        assert restored.relation("empty").arity == 3
        assert len(restored.relation("empty")) == 0
        assert restored.to_dict() == payload
