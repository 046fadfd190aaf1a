"""Residue tests (CGM88 / paper Section 3, Example 3.1)."""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.residues as residues_module
from repro.core.residues import (
    constrain_program,
    constrain_rule,
    injectable_conditions,
    residues_for_rule,
    rule_violates,
)
from repro.datalog.atoms import Literal, OrderAtom
from repro.datalog.parser import parse_constraints, parse_program, parse_rule
from repro.datalog.terms import Variable
from repro.workloads.generators import random_program

X, Y = Variable("X"), Variable("Y")


class TestResidueEnumeration:
    def test_single_partial_mapping(self):
        rule = parse_rule("q(X) :- a(X, Y).")
        ic = parse_constraints(":- a(X, Y), c(Y).")[0]
        residues = residues_for_rule(rule, ic)
        assert len(residues) == 1
        assert len(residues[0].literals) == 1
        assert residues[0].literals[0].predicate == "c"

    def test_trivial_residue_included_on_demand(self):
        rule = parse_rule("q(X) :- a(X, Y).")
        ic = parse_constraints(":- a(X, Y), c(Y).")[0]
        residues = residues_for_rule(rule, ic, include_trivial=True)
        assert any(len(r.literals) == 2 for r in residues)

    def test_empty_residue_on_full_mapping(self):
        rule = parse_rule("q(X) :- a(X, Y), c(Y).")
        ic = parse_constraints(":- a(X, Y), c(Y).")[0]
        assert any(r.is_empty for r in residues_for_rule(rule, ic))

    def test_multiple_mappings(self):
        rule = parse_rule("q(X) :- a(X, Y), a(Y, X).")
        ic = parse_constraints(":- a(X, Y), c(Y).")[0]
        residues = residues_for_rule(rule, ic)
        images = {r.literals[0] for r in residues if len(r.literals) == 1}
        assert len(images) == 2  # c(Y) and c(X) under the two mappings

    def test_variable_capture_avoided(self):
        # The ic's variables collide with the rule's; renaming must keep
        # the unmapped variable distinct from the rule's X.
        rule = parse_rule("q(X) :- a(X, X).")
        ic = parse_constraints(":- a(Y, Y), c(X).")[0]
        residues = residues_for_rule(rule, ic)
        assert len(residues) == 1
        free = residues[0].free_variables()
        assert len(free) == 1
        assert next(iter(free)) != X


class TestViolationDetection:
    def test_plain_violation(self):
        rule = parse_rule("bad(X) :- a(X, Y), b(Y, X).")
        ic = parse_constraints(":- a(X, Y), b(Y, X).")[0]
        assert rule_violates(rule, ic)

    def test_no_violation_with_partial(self):
        rule = parse_rule("ok(X) :- a(X, Y).")
        ic = parse_constraints(":- a(X, Y), b(Y, X).")[0]
        assert not rule_violates(rule, ic)

    def test_order_entailment_required(self):
        ic = parse_constraints(":- step(X, Y), X >= Y.")[0]
        violating = parse_rule("bad(X) :- step(X, Y), X > Y.")
        assert rule_violates(violating, ic)
        fine = parse_rule("ok(X) :- step(X, Y), X < Y.")
        assert not rule_violates(fine, ic)

    def test_negated_atom_matching(self):
        ic = parse_constraints(":- member(X), not registered(X).")[0]
        violating = parse_rule("bad(X) :- member(X), not registered(X).")
        assert rule_violates(violating, ic)
        fine = parse_rule("ok(X) :- member(X), registered(X).")
        assert not rule_violates(fine, ic)


class TestInjection:
    def test_example_31(self):
        """Example 3.1: the residue Y <= X injects Y > X into r3."""
        program = parse_program(
            """
            path(X, Y) :- step(X, Y).
            path(X, Y) :- step(X, Z), path(Z, Y).
            goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
            """,
            query="goodPath",
        )
        ics = parse_constraints(":- startPoint(X), endPoint(Y), Y <= X.")
        optimized = constrain_program(program, ics)
        good_path_rule = optimized.rules_for("goodPath")[0]
        assert OrderAtom(Y, ">", X) in good_path_rule.order_atoms
        # The recursive path rules are untouched (no interaction).
        assert optimized.rules_for("path") == program.rules_for("path")

    def test_injectable_negated_edb(self):
        rule = parse_rule("q(X) :- a(X, Y).")
        ics = parse_constraints(":- a(X, Y), c(Y).")
        conditions = injectable_conditions(rule, ics)
        assert conditions == [Literal(parse_rule("q(X) :- c(Y).").body[0].atom, False)]

    def test_injectable_positive_from_negated_ic(self):
        rule = parse_rule("q(X) :- member(X).")
        ics = parse_constraints(":- member(X), not registered(X).")
        conditions = injectable_conditions(rule, ics)
        assert len(conditions) == 1
        assert conditions[0].positive and conditions[0].predicate == "registered"

    def test_entailed_condition_skipped(self):
        rule = parse_rule("q(X, Y) :- startPoint(X), endPoint(Y), Y > X.")
        ics = parse_constraints(":- startPoint(X), endPoint(Y), Y <= X.")
        assert injectable_conditions(rule, ics) == []

    def test_unsatisfiable_rule_removed(self):
        rule = parse_rule("bad(X) :- a(X, Y), b(Y, X).")
        ics = parse_constraints(":- a(X, Y), b(Y, X).")
        assert constrain_rule(rule, ics) is None

    def test_conditions_making_order_unsat_remove_rule(self):
        rule = parse_rule("q(X, Y) :- startPoint(X), endPoint(Y), Y < X.")
        ics = parse_constraints(":- startPoint(X), endPoint(Y), Y <= X.")
        # Residue injection adds Y > X, contradicting Y < X.
        assert constrain_rule(rule, ics) is None


# ----------------------------------------------------------------------
# The predicate pre-check: filtered enumeration == unfiltered enumeration
# ----------------------------------------------------------------------
#: ic's over ``random_program``'s EDB vocabulary (``e0 e1 mark blocked``),
#: with order atoms and negated atoms, plus predicates no program has.
IC_POOL = parse_constraints(
    """
    :- e0(X, Y), e1(Y, Z).
    :- e0(X, Y), Y <= X.
    :- e1(X, Y), mark(X), blocked(Y).
    :- mark(X), blocked(X).
    :- e0(X, X).
    :- e1(X, Y), e1(Y, X), X < Y.
    :- e0(X, Y), not mark(X).
    :- mark(X), elsewhere(X).
    :- elsewhere(X), nowhere(X, Y).
    :- e0(Ic0, Ic1), e1(Ic1, Ic0).
    :- 2 < 1.
    """
)

#: Rules whose variables already carry the renamed-apart prefix.
IC_NAMED_RULES = [
    parse_rule("p(Ic0, Ic1) :- e0(Ic0, Ic2), e1(Ic2, Ic1)."),
    parse_rule("p(Ic0, Ic0) :- e0(Ic0, Ic1), e1(Ic1, Ic0), mark(Ic1), Ic0 < Ic1."),
    parse_rule("p(Ic1, X) :- e1(Ic1, X), not mark(Ic1)."),
]


def _residue_view(residues):
    return [(sorted(map(repr, r.mapping.items())), r.literals) for r in residues]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), picks=st.sets(st.integers(0, len(IC_POOL) - 1), min_size=1))
def test_predicate_precheck_leaves_every_answer_unchanged(seed, picks):
    ics = [IC_POOL[i] for i in sorted(picks)]
    rules = list(random_program(seed).rules) + IC_NAMED_RULES

    def answers():
        return [
            (
                [
                    (
                        rule_violates(rule, ic),
                        _residue_view(residues_for_rule(rule, ic)),
                        _residue_view(residues_for_rule(rule, ic, include_trivial=True)),
                    )
                    for ic in ics
                ],
                injectable_conditions(rule, ics),
                constrain_rule(rule, ics),
            )
            for rule in rules
        ]

    filtered = answers()
    # Every atom reported mappable: the enumeration runs unfiltered.
    with patch.object(
        residues_module, "_mappable", lambda rule, ic: [True] * len(ic.positive_atoms)
    ):
        assert answers() == filtered


# ----------------------------------------------------------------------
# constrain_program checks each rule shape once
# ----------------------------------------------------------------------
def _rule_by_rule(program, ics):
    """``constrain_program`` spelled out: ``constrain_rule`` on every rule."""
    kept = [constrain_rule(rule, ics) for rule in program.rules]
    return tuple(rule for rule in kept if rule is not None)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), picks=st.sets(st.integers(0, len(IC_POOL) - 1), min_size=1))
def test_constrain_program_equals_constrain_rule_on_every_rule(seed, picks):
    ics = [IC_POOL[i] for i in sorted(picks)]
    program = random_program(seed, extra_rules=4)
    assert constrain_program(program, ics).rules == _rule_by_rule(program, ics)


def _rewrite_compile_cases():
    """The twelve program / ic / goal texts of the ``rewrite_compile``
    benchmark workload (``perf/inputs.py``), seed 0."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "perf" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perf_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = inputs
    spec.loader.exec_module(inputs)
    return inputs.rewrite_compile(0, "smoke")


def test_constrain_program_equals_constrain_rule_on_rewritten_programs():
    from repro.core.rewrite import optimize
    from repro.datalog.parser import parse_atom

    cases = _rewrite_compile_cases()
    assert len(cases) == 12
    shared = 0
    for case in cases:
        goal = parse_atom(case.goal)
        program = parse_program(case.program, query=goal.predicate)
        ics = parse_constraints(case.constraints)
        # P' as the residue pass of ``optimize`` receives it.
        rewritten = optimize(program, ics, inject_residues=False).program
        assert rewritten is not None, case.name
        constrained, checked = residues_module._constrain_shapes(rewritten, ics)
        assert constrained.rules == _rule_by_rule(rewritten, ics), case.name
        shared += len(rewritten.rules) - checked
    assert shared > 0  # rules do share shapes, so the memo is exercised


def test_rule_shape_includes_the_variable_set():
    """``C`` and ``Y`` occur only in the IDB subgoal; ``Y`` is also the
    name of an ic variable, so renaming the ic apart differs between the
    two rules, and they are two shapes, not one."""
    program = parse_program(
        """
        p(A, B) :- e0(A, B), p(B, C).
        p(A, B) :- e0(A, B), p(B, Y).
        p(A, B) :- e1(A, B).
        """,
        query="p",
    )
    ics = parse_constraints(":- e0(X, Y), Y <= X.")
    constrained, checked = residues_module._constrain_shapes(program, ics)
    assert checked == 3
    assert constrained.rules == _rule_by_rule(program, ics)
    assert [repr(rule) for rule in constrained.rules[:2]] == [
        "p(A, B) :- e0(A, B), p(B, C), B > A.",
        "p(A, B) :- e0(A, B), p(B, Y), B > A.",
    ]


def test_renamed_apart_leaves_a_disjoint_ic_untouched():
    ic = parse_constraints(":- e0(X, Y), Y <= X.")[0]
    rule = parse_rule("p(A, B) :- e0(A, B).")
    assert residues_module._renamed_apart(ic, rule.variables()) is ic
    clashing = parse_rule("p(X, B) :- e0(X, B).")
    renamed = residues_module._renamed_apart(ic, clashing.variables())
    assert renamed.variables().isdisjoint(clashing.variables())
