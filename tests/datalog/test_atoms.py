"""Unit tests for atoms, order atoms and literals."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datalog.atoms import (
    COMPARISONS,
    Atom,
    Literal,
    OrderAtom,
    body_variables,
    evaluate_comparison,
    flip_comparison,
    negate_comparison,
    IncomparableValues,
)
from repro.datalog.terms import Constant, Substitution, Variable
from repro.robustness.errors import ReproError

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestComparisonAlgebra:
    def test_negation_is_involutive(self):
        for op in COMPARISONS:
            assert negate_comparison(negate_comparison(op)) == op

    def test_flip_is_involutive(self):
        for op in COMPARISONS:
            assert flip_comparison(flip_comparison(op)) == op

    @given(st.integers(-5, 5), st.integers(-5, 5), st.sampled_from(COMPARISONS))
    def test_negation_semantics(self, left, right, op):
        assert evaluate_comparison(left, right, op) != evaluate_comparison(
            left, right, negate_comparison(op)
        )

    @given(st.integers(-5, 5), st.integers(-5, 5), st.sampled_from(COMPARISONS))
    def test_flip_semantics(self, left, right, op):
        assert evaluate_comparison(left, right, op) == evaluate_comparison(
            right, left, flip_comparison(op)
        )

    def test_incomparable_families_raise(self):
        with pytest.raises(TypeError):
            evaluate_comparison(1, "a", "<")

    def test_incomparable_values_are_a_typed_input_error(self):
        with pytest.raises(IncomparableValues) as caught:
            evaluate_comparison("abc", 3, "<")
        assert isinstance(caught.value, ReproError)
        assert str(caught.value) == "values 'abc' and 3 are not order-comparable"

    NUMBERS = [(1, 2), (1, 2.5), (0.5, 1), (2.0, 2.0), (Fraction(1, 2), 1), (2, Fraction(3, 2))]
    OTHERS = [("a", "b"), ("b", "a"), (False, True), ("", "")]
    MIXED = [(1, "a"), ("a", 1.5), (True, 1), (2, False), (Fraction(1, 2), "a"), (None, 1)]

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_order_semantics_by_value_family(self, op):
        python = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}[op]
        # Within a family — exact int/float (the fast path), other
        # numbers.Real, strings, bools — it is Python's own order.
        for left, right in self.NUMBERS + self.OTHERS:
            assert evaluate_comparison(left, right, op) is python(left, right)
            assert evaluate_comparison(right, left, op) is python(right, left)
        # Across families (bool is not a number) it is an error,
        # as are same-family values Python itself cannot order.
        for left, right in self.MIXED + [(None, "a")]:
            with pytest.raises(IncomparableValues):
                evaluate_comparison(left, right, op)
            assert evaluate_comparison(left, right, "!=") is (left != right)

    def test_equality_across_families_allowed(self):
        assert not evaluate_comparison(1, "a", "=")
        assert evaluate_comparison(1, "a", "!=")


class TestAtom:
    def test_variables_and_constants(self):
        atom = Atom("e", (X, Constant(3), X))
        assert atom.variables() == {X}
        assert atom.constants() == {Constant(3)}
        assert atom.arity == 3

    def test_is_ground(self):
        assert Atom("e", (Constant(1), Constant(2))).is_ground()
        assert not Atom("e", (Constant(1), X)).is_ground()

    def test_substitute(self):
        theta = Substitution({X: Constant(5)})
        assert Atom("e", (X, Y)).substitute(theta) == Atom("e", (Constant(5), Y))

    def test_repr(self):
        assert repr(Atom("e", (X, Constant(1)))) == "e(X, 1)"


class TestOrderAtom:
    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            OrderAtom(X, "<<", Y)

    def test_negated(self):
        assert OrderAtom(X, "<=", Y).negated() == OrderAtom(X, ">", Y)

    def test_flipped(self):
        assert OrderAtom(X, "<", Y).flipped() == OrderAtom(Y, ">", X)

    def test_normalized_strict(self):
        assert OrderAtom(Y, ">", X).normalized() == OrderAtom(X, "<", Y)

    def test_normalized_symmetric_sorted(self):
        assert OrderAtom(Y, "=", X).normalized() == OrderAtom(X, "=", Y)
        assert OrderAtom(X, "=", Y).normalized() == OrderAtom(X, "=", Y)

    def test_holds_ground(self):
        assert OrderAtom(Constant(1), "<", Constant(2)).holds()
        assert not OrderAtom(Constant(2), "<", Constant(1)).holds()

    def test_holds_requires_ground(self):
        with pytest.raises(ValueError):
            OrderAtom(X, "<", Constant(2)).holds()

    def test_substitute(self):
        theta = Substitution({X: Constant(1)})
        assert OrderAtom(X, "<", Y).substitute(theta) == OrderAtom(Constant(1), "<", Y)


class TestLiteral:
    def test_negation(self):
        literal = Literal(Atom("e", (X, Y)))
        assert literal.positive
        assert not literal.negated().positive
        assert literal.negated().negated() == literal

    def test_repr(self):
        assert repr(Literal(Atom("e", (X,)), positive=False)) == "not e(X)"

    def test_body_variables(self):
        body = (
            Literal(Atom("e", (X, Y))),
            OrderAtom(Y, "<", Z),
        )
        assert body_variables(body) == {X, Y, Z}
