"""Evaluation-engine tests: semi-naive correctness, negation, order atoms,
statistics — cross-validated against networkx reachability."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate, evaluate_query
from repro.datalog.parser import parse_program

TC = parse_program(
    """
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, Z), t(Z, Y).
    """,
    query="t",
)


def edges_db(edges):
    return Database.from_rows({"e": edges})


class TestTransitiveClosure:
    def test_chain(self):
        rows = evaluate_query(TC, edges_db([(1, 2), (2, 3), (3, 4)]))
        assert rows == {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}

    def test_cycle_terminates(self):
        rows = evaluate_query(TC, edges_db([(1, 2), (2, 1)]))
        assert rows == {(1, 2), (2, 1), (1, 1), (2, 2)}

    def test_empty_edb(self):
        assert evaluate_query(TC, Database()) == frozenset()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            max_size=25,
        )
    )
    def test_matches_networkx(self, edges):
        rows = evaluate_query(TC, edges_db(edges))
        closure = nx.transitive_closure(nx.DiGraph(edges), reflexive=False)
        assert rows == set(closure.edges)


class TestNegationAndOrder:
    def test_safe_negation(self):
        program = parse_program(
            "p(X) :- v(X), not blocked(X).", query="p"
        )
        db = Database.from_rows({"v": [(1,), (2,)], "blocked": [(2,)]})
        assert evaluate_query(program, db) == {(1,)}

    def test_negated_predicate_absent_from_edb(self):
        program = parse_program("p(X) :- v(X), not blocked(X).", query="p")
        db = Database.from_rows({"v": [(1,)]})
        assert evaluate_query(program, db) == {(1,)}

    def test_order_filter(self):
        program = parse_program("p(X, Y) :- e(X, Y), X < Y.", query="p")
        db = edges_db([(1, 2), (3, 2), (5, 5)])
        assert evaluate_query(program, db) == {(1, 2)}

    def test_order_with_constant(self):
        program = parse_program("p(X) :- v(X), X >= 10.", query="p")
        db = Database.from_rows({"v": [(5,), (10,), (20,)]})
        assert evaluate_query(program, db) == {(10,), (20,)}

    def test_order_inside_recursion(self):
        program = parse_program(
            """
            up(X, Y) :- e(X, Y), X < Y.
            up(X, Y) :- e(X, Z), X < Z, up(Z, Y).
            """,
            query="up",
        )
        db = edges_db([(1, 2), (2, 3), (3, 1)])
        assert evaluate_query(program, db) == {(1, 2), (2, 3), (1, 3)}

    def test_equality_join(self):
        program = parse_program("p(X) :- v(X), X = 3.", query="p")
        db = Database.from_rows({"v": [(3,), (4,)]})
        assert evaluate_query(program, db) == {(3,)}


class TestStratifiedHierarchy:
    def test_idb_on_idb(self):
        program = parse_program(
            """
            t(X, Y) :- e(X, Y).
            t(X, Y) :- e(X, Z), t(Z, Y).
            roundtrip(X) :- t(X, X).
            answer(X) :- roundtrip(X), mark(X).
            """,
            query="answer",
        )
        db = Database.from_rows({"e": [(1, 2), (2, 1), (3, 4)], "mark": [(1,), (3,)]})
        assert evaluate_query(program, db) == {(1,)}

    def test_mutual_recursion(self):
        program = parse_program(
            """
            even(X) :- zero(X).
            even(Y) :- succ(X, Y), odd(X).
            odd(Y) :- succ(X, Y), even(X).
            """,
            query="even",
        )
        db = Database.from_rows(
            {"zero": [(0,)], "succ": [(i, i + 1) for i in range(6)]}
        )
        assert evaluate_query(program, db) == {(0,), (2,), (4,), (6,)}

    def test_zero_arity_head(self):
        program = parse_program("found() :- e(X, Y), X < Y.", query="found")
        assert evaluate_query(program, edges_db([(2, 1)])) == frozenset()
        assert evaluate_query(program, edges_db([(1, 2)])) == {()}


class TestConstantsInRules:
    def test_constant_in_body(self):
        program = parse_program("p(X) :- e(1, X).", query="p")
        assert evaluate_query(program, edges_db([(1, 5), (2, 6)])) == {(5,)}

    def test_constant_in_head(self):
        program = parse_program("p(7, X) :- v(X).", query="p")
        db = Database.from_rows({"v": [(1,)]})
        assert evaluate_query(program, db) == {(7, 1)}


class TestStats:
    def test_stats_counters_move(self):
        result = evaluate(TC, edges_db([(1, 2), (2, 3), (3, 4)]))
        assert result.stats.facts_derived == 6
        assert result.stats.probes > 0
        assert result.stats.rows_scanned > 0
        assert result.stats.iterations >= 2


class TestResultAccessors:
    def test_unknown_predicate(self):
        result = evaluate(TC, Database())
        with pytest.raises(KeyError):
            result.relation("missing")

    def test_query_rows_requires_query(self):
        program = parse_program("p(X) :- e(X, X).")
        result = evaluate(program, Database())
        with pytest.raises(ValueError):
            result.query_rows()

    def test_relation_of_underived_idb_is_empty(self):
        result = evaluate(TC, Database())
        assert len(result.relation("t")) == 0
