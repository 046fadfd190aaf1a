"""Evaluation edge cases not covered by the main engine tests."""

import inspect

import pytest

from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_facts, parse_program
from repro.robustness import Budget, BudgetExceededError


def _partial_after(program, db, rounds):
    """The partial fixpoint a ``rounds``-iteration budget leaves behind."""
    with pytest.raises(BudgetExceededError) as info:
        evaluate(program, db, budget=Budget(max_iterations=rounds))
    assert info.value.limit == "max_iterations"
    return info.value.partial


class TestMaxIterations:
    """Rounds are bounded by ``Budget(max_iterations=)`` only: it raises
    and carries the partial fixpoint; nothing truncates silently."""

    def test_bounded_iterations_truncate_closure(self):
        program = parse_program(
            "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).", query="t"
        )
        db = Database.from_rows({"e": [(i, i + 1) for i in range(10)]})
        full = evaluate(program, db)
        bounded = _partial_after(program, db, 2)
        assert bounded.rows("t") < full.rows("t")

    def test_unbounded_by_default(self):
        program = parse_program(
            "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).", query="t"
        )
        db = Database.from_rows({"e": [(i, i + 1) for i in range(10)]})
        assert len(evaluate(program, db).rows("t")) == 55
        assert "max_iterations" not in inspect.signature(evaluate).parameters

    def test_exact_boundary_round_reaches_the_fixpoint(self):
        # The bound is strict: a budget of exactly the rounds the
        # fixpoint takes never trips, one less does.
        program = parse_program(
            "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).", query="t"
        )
        db = Database.from_rows({"e": [(i, i + 1) for i in range(10)]})
        full = evaluate(program, db)
        rounds = full.stats.iterations
        at_boundary = evaluate(program, db, budget=Budget(max_iterations=rounds))
        assert at_boundary.rows("t") == full.rows("t")
        # The last semi-naive round only confirms the empty delta, so
        # tripping on it loses nothing; tripping a round earlier does.
        productive = rounds - 1
        assert productive > 1
        confirmed = _partial_after(program, db, productive)
        assert confirmed.rows("t") == full.rows("t")
        truncated = _partial_after(program, db, productive - 1)
        assert truncated.rows("t") < full.rows("t")

    def test_governed_budget_bounds_total_rounds_instead(self):
        # Two independent recursive SCCs, each needing R rounds: the
        # budget counts all 2R, so R is not enough.
        program = parse_program(
            """
            t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).
            u(X, Y) :- f(X, Y). u(X, Y) :- f(X, Z), u(Z, Y).
            """,
            query="t",
        )
        rows = [(i, i + 1) for i in range(10)]
        db = Database.from_rows({"e": rows, "f": rows})
        per_scc = evaluate(program, db).stats.iterations // 2
        with pytest.raises(BudgetExceededError):
            evaluate(program, db, budget=Budget(max_iterations=per_scc))

    def test_truncation_raises_partial_is_monotone(self):
        # Deeper bounds only add facts to the partial the abort carries.
        program = parse_program(
            "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).", query="t"
        )
        db = Database.from_rows({"e": [(i, i + 1) for i in range(10)]})
        previous = frozenset()
        for bound in (1, 2, 3, 4):
            rows = _partial_after(program, db, bound).rows("t")
            assert previous <= rows
            previous = rows


class TestDuplicateBodyItems:
    def test_repeated_literal_harmless(self):
        program = parse_program("q(X) :- e(X, Y), e(X, Y).", query="q")
        db = Database.from_rows({"e": [(1, 2)]})
        assert evaluate(program, db).query_rows() == {(1,)}

    def test_contradictory_filters_empty(self):
        program = parse_program("q(X) :- e(X, Y), X < Y, Y < X.", query="q")
        db = Database.from_rows({"e": [(1, 2)]})
        assert evaluate(program, db).query_rows() == frozenset()


class TestGroundRules:
    def test_fact_rule_derives(self):
        program = parse_program("q(1, 2). q(X, Y) :- e(X, Y).", query="q")
        db = Database.from_rows({"e": [(5, 6)]})
        assert evaluate(program, db).query_rows() == {(1, 2), (5, 6)}

    def test_ground_order_atom_filter(self):
        program = parse_program("q(X) :- e(X), 1 < 2.", query="q")
        db = Database.from_rows({"e": [(1,)]})
        assert evaluate(program, db).query_rows() == {(1,)}
        program2 = parse_program("q(X) :- e(X), 2 < 1.", query="q")
        assert evaluate(program2, db).query_rows() == frozenset()


class TestStringValues:
    def test_string_constants_flow(self):
        program = parse_program('q(X) :- name(X, "New York").', query="q")
        db = Database(parse_facts('name(1, "New York"). name(2, "Boston").'))
        assert evaluate(program, db).query_rows() == {(1,)}

    def test_string_order_comparison(self):
        program = parse_program("q(X) :- tag(X, T), T < zz.", query="q")
        db = Database(parse_facts("tag(1, aa). tag(2, zzz)."))
        assert evaluate(program, db).query_rows() == {(1,)}

    def test_mixed_type_comparison_raises(self):
        program = parse_program("q(X) :- tag(X, T), T < 5.", query="q")
        db = Database(parse_facts("tag(1, aa)."))
        with pytest.raises(TypeError):
            evaluate(program, db)
