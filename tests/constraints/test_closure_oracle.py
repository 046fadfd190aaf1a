"""Closure reads against entailment by refutation.

``OrderConstraintSet.entails`` / ``project`` read one reachability
closure of the condensed constraint graph.  The reference kept here is
what they replaced: ``C |= a`` iff ``C and not a`` is unsatisfiable,
decided by building a fresh set per question, and the projection that
tries the six relations of each pair in turn.  The reference leans only
on ``is_satisfiable`` (union-find + condensation, itself checked
against a brute-force grid in ``test_dense_order.py``), never on the
closure.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.constraints.dense_order as dense_order
from repro.constraints.dense_order import (
    OrderConstraintSet,
    UnsatisfiableError,
    UnsupportedModelError,
    _condense,
)
from repro.datalog.atoms import COMPARISONS, OrderAtom
from repro.datalog.terms import Constant, Variable
from repro.robustness.errors import ReproError

# ----------------------------------------------------------------------
# The reference: refutation
# ----------------------------------------------------------------------


def refutation_entails(constraints: OrderConstraintSet, atom: OrderAtom) -> bool:
    if not constraints.is_satisfiable():
        return True
    return not OrderConstraintSet(constraints.atoms + (atom.negated(),)).is_satisfiable()


def refutation_project(constraints: OrderConstraintSet, terms) -> frozenset:
    if not constraints.is_satisfiable():
        raise UnsatisfiableError("projection of an unsatisfiable set is undefined")

    def entails(left, op, right):
        return refutation_entails(constraints, OrderAtom(left, op, right))

    entailed = set()
    items = list(dict.fromkeys(terms))
    for i, left in enumerate(items):
        for right in items[i + 1:]:
            if entails(left, "=", right):
                entailed.add(OrderAtom(left, "=", right).normalized())
                continue
            if entails(left, "<", right):
                entailed.add(OrderAtom(left, "<", right).normalized())
            elif entails(right, "<", left):
                entailed.add(OrderAtom(right, "<", left).normalized())
            else:
                if entails(left, "<=", right):
                    entailed.add(OrderAtom(left, "<=", right).normalized())
                elif entails(right, "<=", left):
                    entailed.add(OrderAtom(right, "<=", left).normalized())
                if entails(left, "!=", right):
                    entailed.add(OrderAtom(left, "!=", right).normalized())
    return frozenset(entailed)


def outcome(function, *args):
    """The result, or the type of the exception raised."""
    try:
        return function(*args)
    except Exception as error:  # noqa: BLE001 - the type is the compared value
        return type(error)


# ----------------------------------------------------------------------
# Differential property
# ----------------------------------------------------------------------

VARIABLES = [Variable(name) for name in "ABCDE"]
#: ints, floats between and equal to them, and two strings (the other family)
CONSTANTS = [Constant(v) for v in (0, 1, 7, 0.5, 1.0, -2.25, "a", "m")]
#: the set is drawn from these ...
SET_TERMS = VARIABLES[:4] + CONSTANTS[:2] + CONSTANTS[3:4] + CONSTANTS[6:7]
#: ... and questioned about all of them: E, 7, -2.25 and "m" are foreign
ALL_TERMS = VARIABLES + CONSTANTS
OPERATORS = sorted(COMPARISONS)


def atoms_over(terms, **kwargs):
    return st.lists(
        st.builds(
            OrderAtom, st.sampled_from(terms), st.sampled_from(OPERATORS),
            st.sampled_from(terms),
        ),
        **kwargs,
    )


@settings(max_examples=400, deadline=None)
@given(atoms_over(SET_TERMS, max_size=7), atoms_over(ALL_TERMS, min_size=1, max_size=12))
def test_entails_agrees_with_refutation(atoms, questions):
    constraints = OrderConstraintSet(atoms)
    for question in questions:
        # One set answers every question: constants of earlier
        # questions stay nodes and must not disturb later answers.
        assert outcome(constraints.entails, question) == outcome(
            refutation_entails, OrderConstraintSet(atoms), question
        ), (atoms, question)


@settings(max_examples=300, deadline=None)
@given(
    atoms_over(SET_TERMS, max_size=7),
    st.lists(st.sampled_from(ALL_TERMS), max_size=7),
)
def test_project_agrees_with_refutation(atoms, terms):
    got = outcome(OrderConstraintSet(atoms).project, terms)
    want = outcome(refutation_project, OrderConstraintSet(atoms), terms)
    assert got == want, (atoms, terms)


def test_unsatisfiable_sets_entail_everything_and_refuse_projection():
    unsat = OrderConstraintSet([OrderAtom(VARIABLES[0], "<", VARIABLES[0])])
    assert unsat.entails(OrderAtom(Constant(3), "<", Constant(1)))
    assert unsat.entails(OrderAtom(VARIABLES[4], "!=", VARIABLES[4]))
    with pytest.raises(UnsatisfiableError):
        unsat.project([VARIABLES[1], Constant(9)])


# ----------------------------------------------------------------------
# Strictness without a strict edge (the ROADMAP caveat), pinned
# ----------------------------------------------------------------------

A, B, M = Variable("A"), Variable("B"), Variable("M")
CHAIN = [OrderAtom(A, "<=", M), OrderAtom(M, "<=", B)]
BETWEEN_CASES = [
    pytest.param(CHAIN + [OrderAtom(A, "!=", B)], True, id="ends-unequal"),
    pytest.param(CHAIN + [OrderAtom(M, "!=", A)], True, id="middle-unequal"),
    pytest.param(CHAIN + [OrderAtom(B, "!=", M)], True, id="middle-unequal-high"),
    pytest.param([OrderAtom(A, "<=", B)], False, id="weak-alone"),
    pytest.param(CHAIN, False, id="weak-chain"),
    pytest.param(CHAIN + [OrderAtom(A, "!=", Variable("Z"))], False, id="pair-outside"),
]


@pytest.mark.parametrize("atoms, strict", BETWEEN_CASES)
def test_unequal_pair_between_two_nodes_makes_them_strict(atoms, strict):
    constraints = OrderConstraintSet(atoms)
    assert constraints.entails(OrderAtom(A, "<", B)) is strict
    assert constraints.entails(OrderAtom(B, ">", A)) is strict
    assert constraints.entails(OrderAtom(A, "!=", B)) is strict
    assert constraints.entails(OrderAtom(A, "<=", B))
    relation = OrderAtom(A, "<" if strict else "<=", B)
    assert relation in constraints.project([A, B])
    assert refutation_entails(constraints, OrderAtom(A, "<", B)) is strict


def test_dropping_the_unequal_pair_lookup_fails_the_pinned_cases(monkeypatch):
    """Mutation check: a closure that only looks for strict edges
    between two nodes must get the pinned cases wrong."""
    close = dense_order._Structure._close

    def without_pairs(self):
        reach, coreach, strict, _ = close(self)
        self._closure = reach, coreach, strict, set()
        return self._closure

    monkeypatch.setattr(dense_order._Structure, "_close", without_pairs)
    wrong = [
        case.id
        for case in BETWEEN_CASES
        for atoms, strict in [case.values]
        if OrderConstraintSet(atoms).entails(OrderAtom(A, "<", B)) is not strict
    ]
    assert wrong == ["ends-unequal", "middle-unequal", "middle-unequal-high"]


def test_foreign_constants_get_their_true_order():
    x = Variable("X")
    below_three = OrderConstraintSet([OrderAtom(x, "<", Constant(3))])
    assert below_three.entails(OrderAtom(x, "<", Constant(5)))
    assert below_three.entails(OrderAtom(x, "!=", Constant(3.5)))
    assert not below_three.entails(OrderAtom(x, "<", Constant(2)))
    # Being below a number does not make X a number: the families are
    # unordered against each other, not typed.
    assert not below_three.entails(OrderAtom(x, "!=", Constant("s")))
    assert below_three.entails(OrderAtom(Constant(3), "!=", Constant("s")))
    assert not OrderConstraintSet().entails(OrderAtom(x, "<", Constant(5)))
    assert OrderConstraintSet().entails(OrderAtom(Constant(3), "<", Constant(5)))
    assert OrderConstraintSet().project([x, Constant(5), Constant(3)]) == frozenset(
        {OrderAtom(Constant(3), "<", Constant(5))}
    )


# ----------------------------------------------------------------------
# What the closure pass relies on
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.booleans()), max_size=20
    )
)
def test_tarjan_ids_are_reverse_topological(raw_edges):
    nodes = [Variable(f"N{i}") for i in range(8)]
    edges = {(nodes[a], nodes[b], strict) for a, b, strict in raw_edges}
    scc_of, components = _condense(nodes, edges)
    assert set(scc_of) == set(nodes)
    assert [scc_of[m] for c in components for m in c] == [
        i for i, c in enumerate(components) for _ in c
    ]
    # An edge never leads to a component with a larger id: one pass over
    # range(len(components)) sees every successor before its source.
    for src, dst, _ in edges:
        assert scc_of[dst] <= scc_of[src]
    # Same id exactly when mutually reachable.
    reach = {n: {n} for n in nodes}
    for _ in nodes:
        for src, dst, _strict in edges:
            reach[src] |= reach[dst]
    for a in nodes:
        for b in nodes:
            assert (scc_of[a] == scc_of[b]) == (b in reach[a] and a in reach[b])


def test_model_refusal_is_a_typed_error():
    constraints = OrderConstraintSet([OrderAtom(Variable("X"), "<", Constant("zzz"))])
    with pytest.raises(UnsupportedModelError) as caught:
        constraints.model()
    assert isinstance(caught.value, ReproError)
    assert isinstance(caught.value, NotImplementedError)


def test_model_ignores_constants_of_earlier_questions():
    x = Variable("X")
    atoms = [OrderAtom(x, "=", Constant("a"))]
    questioned = OrderConstraintSet(atoms)
    assert questioned.entails(OrderAtom(x, "<", Constant("b")))
    assert questioned.model() == OrderConstraintSet(atoms).model() == {x: "a"}
