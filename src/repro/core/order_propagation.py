"""Order-constraint propagation: the [LMSS93] preprocessing step.

The Section 4.1 algorithm assumes the input program "has already been
processed by the algorithm of [LMSS93] for completely incorporating the
constraints implied by the order atoms and negated EDB subgoals that
appear in the rules", and that forced equalities (``X = Y`` implied by a
rule's order atoms) have been substituted away.

This module implements that preprocessing as an abstract-interpretation
fixpoint over the dense-order domain:

* each rule's order atoms are checked for satisfiability (unsatisfiable
  rules are dropped) and implied equalities are substituted;
* for every IDB predicate ``p`` a *projection* is computed — the set of
  order atoms over ``p``'s argument positions (and the program's order
  constants) entailed by **every** derivation of ``p``;
* rules whose body context (own order atoms plus the projections of
  their IDB subgoals) is unsatisfiable are removed;
* optionally, the subgoal projections are *pushed* into rule bodies as
  explicit order atoms, so the evaluation engine can filter early
  (predicate move-around in the sense of [LMS94]).

The projection uses intersection (meet) across a predicate's rules, so
it abstracts the disjunction of per-rule constraints by their common
consequences.  This is sound and reproduces the paper's examples; the
fully disjunction-precise variant of [LMSS93] specializes predicates
per constraint class, which the combined adornment machinery of
:mod:`repro.core.adornments` takes care of for the residue part.  The
difference is documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..constraints.dense_order import OrderConstraintSet, UnsatisfiableError
from ..datalog.atoms import Literal, OrderAtom
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Substitution, Term, Variable

__all__ = ["OrderPropagation", "propagate_order_constraints", "normalize_rule"]

#: Placeholder variables naming argument positions inside projections.
def _placeholder(index: int) -> Variable:
    return Variable(f"__a{index}")


@dataclass(frozen=True)
class OrderPropagation:
    """Result of the propagation pass."""

    program: Program
    projections: Mapping[str, frozenset[OrderAtom] | None]
    dropped_rules: tuple[Rule, ...]

    def projection(self, predicate: str) -> frozenset[OrderAtom] | None:
        """Entailed order atoms for a predicate (None = unsatisfiable)."""
        return self.projections.get(predicate)


class _Solvers(dict):
    """One :class:`OrderConstraintSet` per distinct conjunction (a tuple
    of order atoms): rules that share order atoms, and projections
    consulted round after round, share the structures built for them."""

    def __missing__(self, atoms: tuple[OrderAtom, ...]) -> OrderConstraintSet:
        solver = self[atoms] = OrderConstraintSet(atoms)
        return solver


def _normalize(rule: Rule, solvers: _Solvers) -> Rule | None:
    order = solvers[rule.order_atoms]
    if not order.is_satisfiable():
        return None
    mapping = order.equality_substitution()
    if not mapping:
        return rule
    return rule.substitute(Substitution(mapping))


def normalize_rule(rule: Rule) -> Rule | None:
    """Substitute forced equalities; None when order atoms are unsatisfiable."""
    return _normalize(rule, _Solvers())


def _order_constants(program: Program) -> list[Constant]:
    constants: list[Constant] = []
    seen: set[Constant] = set()
    for rule in program.rules:
        for atom in rule.order_atoms:
            for term in (atom.left, atom.right):
                if isinstance(term, Constant) and term not in seen:
                    seen.add(term)
                    constants.append(term)
    return constants


def _rule_context(
    rule: Rule,
    projections: Mapping[str, frozenset[OrderAtom] | None],
    idb: frozenset[str],
) -> list[OrderAtom] | None:
    """The rule's order context; None when an IDB subgoal is underivable."""
    context: list[OrderAtom] = list(rule.order_atoms)
    for literal in rule.positive_literals:
        if literal.predicate not in idb:
            continue
        projection = projections.get(literal.predicate)
        if projection is None:
            return None
        mapping: dict[Variable, Term] = {
            _placeholder(i): arg for i, arg in enumerate(literal.args)
        }
        theta = Substitution(mapping)
        context.extend(atom.substitute(theta) for atom in projection)
    return context


def _head_projection(
    rule: Rule, context: OrderConstraintSet, constants: Sequence[Constant]
) -> frozenset[OrderAtom] | None:
    """Project the rule context onto the head argument positions.

    None when the context is unsatisfiable.
    """
    head_terms = list(rule.head.args)
    terms: list[Term] = list(dict.fromkeys(head_terms)) + [
        c for c in constants if c not in head_terms
    ]
    try:
        projected = context.project(terms)
    except UnsatisfiableError:
        return None
    # Rewrite head terms into positional placeholders.  Duplicate head
    # terms induce equalities among placeholders; head constants pin them.
    rename: dict[Term, Variable] = {}
    extra: list[OrderAtom] = []
    for index, term in enumerate(head_terms):
        placeholder = _placeholder(index)
        if term in rename:
            extra.append(OrderAtom(rename[term], "=", placeholder))
        else:
            rename[term] = placeholder
        if isinstance(term, Constant):
            extra.append(OrderAtom(placeholder, "=", term))

    def rewrite(term: Term) -> Term:
        return rename.get(term, term)

    atoms = [
        OrderAtom(rewrite(a.left), a.op, rewrite(a.right)).normalized()
        for a in projected
    ] + [a.normalized() for a in extra]
    # Keep only atoms over placeholders/constants (projection terms that
    # were head variables are now placeholders; others are constants).
    filtered = [
        a
        for a in atoms
        if all(
            isinstance(t, Constant) or t.name.startswith("__a")
            for t in (a.left, a.right)
        )
    ]
    return frozenset(filtered)


def _meet(
    first: frozenset[OrderAtom], second: frozenset[OrderAtom], solvers: _Solvers
) -> frozenset[OrderAtom]:
    """The strongest consequences shared by two projections."""
    left, right = solvers[tuple(first)], solvers[tuple(second)]
    shared = {
        atom for atom in (first | second) if left.entails(atom) and right.entails(atom)
    }
    return frozenset(shared)


def propagate_order_constraints(
    program: Program, *, push: bool = True
) -> OrderPropagation:
    """Run the preprocessing pass; see the module docstring."""
    normalized: list[Rule] = []
    dropped: list[Rule] = []
    solvers = _Solvers()
    for rule in program.rules:
        cleaned = _normalize(rule, solvers)
        if cleaned is None:
            dropped.append(rule)
        else:
            normalized.append(cleaned)
    idb = frozenset(r.head.predicate for r in normalized)
    constants = _order_constants(program)
    projections: dict[str, frozenset[OrderAtom] | None] = {p: None for p in idb}
    #: per rule, its head projection (None: underivable) under the
    #: current projections of its IDB subgoals
    heads: list[frozenset[OrderAtom] | None] = [None] * len(normalized)
    #: the rules to re-project when a predicate's projection changes
    readers: dict[str, list[int]] = {p: [] for p in idb}
    for index, rule in enumerate(normalized):
        for predicate in {
            lit.predicate for lit in rule.positive_literals if lit.predicate in idb
        }:
            readers[predicate].append(index)

    # Rounds in rule order, as a full re-projection would run them, but
    # visiting only the rules whose subgoal projections changed since
    # their last visit: revisiting any other rule meets a projection
    # with a head projection it already entails, which changes nothing.
    dirty = [True] * len(normalized)
    while any(dirty):
        for index, rule in enumerate(normalized):
            if not dirty[index]:
                continue
            dirty[index] = False
            context = _rule_context(rule, projections, idb)
            head_proj = heads[index] = (
                None
                if context is None
                else _head_projection(rule, solvers[tuple(context)], constants)
            )
            if head_proj is None:
                continue
            predicate = rule.head.predicate
            current = projections[predicate]
            updated = (
                head_proj if current is None else _meet(current, head_proj, solvers)
            )
            if current is None or updated != current:
                # Only record a change when the meet is semantically new.
                if current is not None:
                    old, new = solvers[tuple(current)], solvers[tuple(updated)]
                    if all(old.entails(a) for a in updated) and all(
                        new.entails(a) for a in current
                    ):
                        continue
                projections[predicate] = updated
                for reader in readers[predicate]:
                    dirty[reader] = True

    kept: list[Rule] = []
    for index, rule in enumerate(normalized):
        if heads[index] is None:
            dropped.append(rule)
            continue
        if push:
            own = solvers[rule.order_atoms]
            additions: list[OrderAtom] = []
            for literal in rule.positive_literals:
                projection = projections.get(literal.predicate)
                if literal.predicate not in idb or projection is None:
                    continue
                theta = Substitution(
                    {_placeholder(i): arg for i, arg in enumerate(literal.args)}
                )
                for atom in projection:
                    instantiated = atom.substitute(theta)
                    if instantiated.variables() and not own.entails(instantiated):
                        if instantiated not in additions:
                            additions.append(instantiated)
            if additions:
                rule = rule.with_extra_conditions(additions)
        kept.append(rule)
    new_program = Program(kept, program.query, validate=False)
    return OrderPropagation(new_program, projections, tuple(dropped))
