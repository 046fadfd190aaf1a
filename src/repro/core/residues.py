"""Single-rule residues (Chakravarthy-Grant-Minker), the paper's Section 3.

Given a rule ``r`` and an ic ``c``, a *partial mapping* ``tau`` sends a
subset of the positive EDB atoms of ``c`` into the body of ``r``; the
*residue* is what remains of ``c`` under ``tau``.  The negation of every
residue may be added to ``r`` without changing the program's output on
databases satisfying the ic's:

* an **empty** residue means every instantiation of ``r`` violates the
  ic — the rule is unsatisfiable and can be removed;
* a residue consisting of a **single fully mapped literal** can be added
  to the rule body directly (Example 3.1 adds ``Y > X``);
* larger residues carry semantic information used by the query-tree
  algorithm but are not directly injectable into a single rule body.

This module treats rules in isolation; the recursive-program analogue
(residues with respect to derivation trees) is the adornment/query-tree
machinery of :mod:`repro.core.adornments` and
:mod:`repro.core.querytree`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..constraints.dense_order import OrderConstraintSet
from ..constraints.integrity import IntegrityConstraint
from ..cq.homomorphism import extend_homomorphism
from ..datalog.atoms import Atom, BodyItem, Literal, OrderAtom
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Substitution, Variable, fresh_variables

__all__ = [
    "Residue",
    "residues_for_rule",
    "rule_violates",
    "injectable_conditions",
    "constrain_rule",
    "constrain_program",
]


@dataclass(frozen=True)
class Residue:
    """The unmapped part of an ic under one partial mapping into a rule."""

    constraint: IntegrityConstraint
    mapping: Substitution
    literals: tuple[BodyItem, ...]

    @property
    def is_empty(self) -> bool:
        return not self.literals

    def free_variables(self) -> set[Variable]:
        """Residue variables not bound by the partial mapping.

        The ic is renamed apart from the rule before mapping, so any
        variable still carrying the renamed-apart prefix is free.
        """
        free: set[Variable] = set()
        for item in self.literals:
            for var in item.variables():
                if var not in self.mapping:
                    free.add(var)
        return free

    def is_fully_mapped(self) -> bool:
        """All residue variables are images of the mapping (rule terms)."""
        mapped_images = {
            t for t in self.mapping.values() if isinstance(t, Variable)
        }
        for item in self.literals:
            if not item.variables() <= mapped_images:
                return False
        return True

    def negation(self) -> BodyItem | None:
        """The injectable negation of this residue, when one exists.

        Only single-literal, fully mapped residues are injectable: the
        negation of an order atom is an order atom, the negation of an
        EDB atom is a safe negated literal, and vice versa.
        """
        if len(self.literals) != 1 or not self.is_fully_mapped():
            return None
        item = self.literals[0]
        if isinstance(item, OrderAtom):
            return item.negated()
        assert isinstance(item, Literal)
        return item.negated()

    def __repr__(self) -> str:
        inner = ", ".join(repr(item) for item in self.literals)
        return f"residue[{inner}] of {self.constraint!r}"


def _renamed_apart(
    ic: IntegrityConstraint, avoid: set[Variable]
) -> IntegrityConstraint:
    """``ic`` with every variable in ``avoid`` (a rule's) renamed fresh;
    ``ic`` itself when they are already disjoint."""
    own = ic.variables()
    if avoid.isdisjoint(own):
        return ic
    stream = fresh_variables("Ic", avoid=avoid | own)
    renaming = Substitution(
        {v: next(stream) for v in sorted(own, key=lambda v: v.name) if v in avoid}
    )
    return ic.substitute(renaming)


def _mappable(rule: Rule, ic: IntegrityConstraint) -> list[bool]:
    """Per positive atom of ``ic``, whether its predicate occurs among the
    rule's positive body atoms; one whose predicate does not has no
    homomorphic image there, whatever the variables are called."""
    body = {lit.predicate for lit in rule.positive_literals}
    return [atom.predicate in body for atom in ic.positive_atoms]


def residues_for_rule(
    rule: Rule, ic: IntegrityConstraint, *, include_trivial: bool = False
) -> list[Residue]:
    """All residues of ``ic`` with respect to ``rule``.

    Enumerates every nonempty subset of the ic's positive EDB atoms and
    every homomorphism of that subset into the rule's positive body
    atoms (the rule's variables are frozen).  With
    ``include_trivial=True`` the empty mapping (whole ic as residue) is
    included as well.
    """
    if not include_trivial and not any(_mappable(rule, ic)):
        return []  # nothing maps, so there is no partial mapping
    return _residues(rule, _renamed_apart(ic, rule.variables()), include_trivial)


def _residues(
    rule: Rule, ic: IntegrityConstraint, include_trivial: bool = False
) -> list[Residue]:
    """:func:`residues_for_rule` for an ``ic`` already renamed apart."""
    target = [lit.atom for lit in rule.positive_literals]
    ic_positives = list(ic.positive_atoms)
    other_items: list[BodyItem] = [
        item
        for item in ic.body
        if not (isinstance(item, Literal) and item.positive)
    ]
    results: list[Residue] = []
    seen: set[tuple[frozenset, tuple[BodyItem, ...]]] = set()
    if include_trivial:
        results.append(Residue(ic, Substitution(), tuple(ic.body)))
    for size in range(1, len(ic_positives) + 1):
        for subset in itertools.combinations(range(len(ic_positives)), size):
            chosen = [ic_positives[i] for i in subset]
            rest_atoms = [
                Literal(ic_positives[i], True)
                for i in range(len(ic_positives))
                if i not in subset
            ]
            for hom in extend_homomorphism(chosen, target):
                residue_items = tuple(
                    item.substitute(hom) for item in (*rest_atoms, *other_items)
                )
                key = (frozenset(hom.items()), residue_items)
                if key in seen:
                    continue
                seen.add(key)
                results.append(Residue(ic, hom, residue_items))
    return results


def rule_violates(rule: Rule, ic: IntegrityConstraint) -> bool:
    """Whether *every* instantiation of ``rule`` violates ``ic``.

    True when some homomorphism maps all positive atoms of the ic into
    the rule's positive body, every negated ic atom onto a negated body
    literal, and every order atom of the ic is entailed by the rule's
    order atoms.  Sound for all fragments; complete for plain ic's and
    for ic's whose order/negated atoms appear explicitly in the rule
    (the situation Section 4.2's rewriting creates).
    """
    if not all(_mappable(rule, ic)):
        return False  # a positive atom of the ic has nowhere to map
    return _violates(rule, _renamed_apart(ic, rule.variables()))


def _violates(rule: Rule, ic: IntegrityConstraint) -> bool:
    """:func:`rule_violates` for an ``ic`` already renamed apart."""
    target = [lit.atom for lit in rule.positive_literals]
    rule_order = OrderConstraintSet(rule.order_atoms)
    negated_in_rule = {lit.atom for lit in rule.negative_literals}
    for hom in extend_homomorphism(list(ic.positive_atoms), target):
        order_ok = all(
            rule_order.entails(atom.substitute(hom)) for atom in ic.order_atoms
        )
        if not order_ok:
            continue
        negation_ok = all(
            atom.substitute(hom) in negated_in_rule for atom in ic.negative_atoms
        )
        if negation_ok:
            return True
    return False


def injectable_conditions(
    rule: Rule, constraints: Sequence[IntegrityConstraint]
) -> list[BodyItem]:
    """All single-literal residue negations applicable to ``rule``.

    Conditions already entailed by the rule body are dropped, and
    duplicates are removed while preserving a stable order.
    """
    variables = rule.variables()
    return _conditions(rule, [_renamed_apart(ic, variables) for ic in constraints])


def _conditions(
    rule: Rule, constraints: Sequence[IntegrityConstraint]
) -> list[BodyItem]:
    """:func:`injectable_conditions` for ic's already renamed apart."""
    rule_order = OrderConstraintSet(rule.order_atoms)
    existing = set(rule.body)
    conditions: list[BodyItem] = []
    for ic in constraints:
        if not any(_mappable(rule, ic)):
            continue  # nothing maps, so there is no partial mapping
        for residue in _residues(rule, ic):
            condition = residue.negation()
            if condition is None or condition in existing:
                continue
            if isinstance(condition, OrderAtom) and rule_order.entails(condition):
                continue
            if condition not in conditions:
                conditions.append(condition)
    return conditions


def constrain_rule(
    rule: Rule, constraints: Sequence[IntegrityConstraint]
) -> Rule | None:
    """CGM88 single-rule semantic optimization.

    Returns ``None`` when the rule is unsatisfiable under the ic's
    (some residue is empty / a full violation mapping exists); otherwise
    returns the rule with all injectable residue negations appended.
    """
    # Only ic's with an atom that can map are looked at, each renamed
    # apart once, here.
    variables = rule.variables()
    constraints = [
        _renamed_apart(ic, variables)
        for ic in constraints
        if any(_mappable(rule, ic)) or not ic.positive_atoms
    ]
    if any(
        _violates(rule, ic) for ic in constraints if all(_mappable(rule, ic))
    ):
        return None
    conditions = _conditions(rule, constraints)
    if not conditions:
        return rule
    constrained = rule.with_extra_conditions(conditions)
    if not OrderConstraintSet(constrained.order_atoms).is_satisfiable():
        return None
    return constrained


def constrain_program(
    program: Program, constraints: Sequence[IntegrityConstraint]
) -> Program:
    """Apply :func:`constrain_rule` to every rule, dropping unsatisfiable ones.

    This is the *non-recursive* optimizer: sound for any program, but it
    misses interactions that only appear across derivation trees (the
    paper's Section 3 second example); those require
    :func:`repro.core.rewrite.optimize`.
    """
    return _constrain_shapes(program, constraints)[0]


def _constrain_shapes(
    program: Program, constraints: Sequence[IntegrityConstraint]
) -> tuple[Program, int]:
    """:func:`constrain_program`, and how many rule shapes it checked.

    What :func:`constrain_rule` does to a rule depends only on its
    *shape*: the positive literals over an ic predicate (the only
    homomorphic targets, and the only ones a condition can repeat), the
    negated literals, the order atoms, and the
    variable set (renaming the ic's apart depends on it).  Rules sharing
    a shape are checked once and get the same conditions appended.
    """
    ic_predicates = {p for ic in constraints for p in ic.predicates()}
    outcomes: dict[tuple, tuple[BodyItem, ...] | None] = {}
    kept: list[Rule] = []
    for rule in program.rules:
        shape = (
            tuple(
                lit for lit in rule.positive_literals if lit.predicate in ic_predicates
            ),
            rule.negative_literals,
            rule.order_atoms,
            frozenset(rule.variables()),
        )
        if shape not in outcomes:
            constrained = constrain_rule(rule, constraints)
            outcomes[shape] = (
                None if constrained is None else constrained.body[len(rule.body):]
            )
        appended = outcomes[shape]
        if appended is not None:
            kept.append(rule.with_extra_conditions(appended) if appended else rule)
    return Program(kept, program.query), len(outcomes)
