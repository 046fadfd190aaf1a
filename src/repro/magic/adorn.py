"""Predicate adornment by binding patterns (``b``/``f`` strings).

This is the *magic-sets* notion of adornment — which argument positions
of a predicate are bound when a top-down evaluation reaches it — and is
deliberately distinct from the paper's constraint adornments in
:mod:`repro.core.adornments` (triplet sets recording partial mappings
of integrity constraints).  Both vocabularies coexist in the pipeline:
the semantic rewrite specializes predicates by constraint adornments,
the magic transform then specializes the result by binding patterns.

Starting from a query atom (its constant arguments are bound, its
variables free), :func:`adorn_program` propagates binding patterns
through the program: for each reachable ``(predicate, adornment)``
pair, every rule for the predicate is walked left to right in its
declared body order, each IDB subgoal is adorned by the variables bound
at that point (:func:`bound_after`), and newly seen pairs are enqueued.
The result is the *adorned program*: one renamed copy
(``p__bf(X, Y) :- ...``) of each rule per reachable binding pattern,
whose body prefixes the magic transformation reads off directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.atoms import Atom, BodyItem, Literal, OrderAtom
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Term, Variable, is_variable

__all__ = [
    "ALL_BOUND",
    "AdornedRule",
    "AdornedProgram",
    "adornment_of",
    "adorned_name",
    "bound_args",
    "bound_variables",
    "bound_after",
    "adorn_program",
]

#: Separator between a predicate name and its binding pattern.
_SEPARATOR = "__"


def ALL_BOUND(arity: int) -> str:
    """The all-bound adornment of the given arity."""
    return "b" * arity


def adornment_of(atom: Atom, bound: frozenset) -> str:
    """The binding pattern of ``atom`` given the bound variables.

    An argument position is bound (``b``) when it holds a constant or a
    variable in ``bound``; otherwise it is free (``f``).
    """
    return "".join(
        "b" if isinstance(arg, Constant) or arg in bound else "f"
        for arg in atom.args
    )


def adorned_name(predicate: str, adornment: str) -> str:
    """The canonical adorned predicate name, e.g. ``p__bf``."""
    return f"{predicate}{_SEPARATOR}{adornment}"


def bound_args(atom: Atom, adornment: str) -> tuple[Term, ...]:
    """The arguments of ``atom`` at the bound positions of ``adornment``."""
    return tuple(arg for arg, a in zip(atom.args, adornment) if a == "b")


def bound_variables(atom: Atom, adornment: str) -> frozenset:
    """The variables of ``atom`` at bound positions."""
    return frozenset(
        arg
        for arg, a in zip(atom.args, adornment)
        if a == "b" and isinstance(arg, Variable)
    )


def bound_after(item: BodyItem, bound: frozenset) -> frozenset:
    """The bound-variable set after processing ``item`` with ``bound`` held.

    Positive literals bind all their variables; an ``=`` order atom
    propagates a binding from a bound (or constant) side to a variable
    on the other side; negated literals and non-equality order atoms
    are pure filters and bind nothing.
    """
    if isinstance(item, Literal):
        if item.positive:
            return bound | item.variables()
        return bound
    if isinstance(item, OrderAtom) and item.op == "=":
        extra: set[Variable] = set()
        left_held = isinstance(item.left, Constant) or item.left in bound
        right_held = isinstance(item.right, Constant) or item.right in bound
        if left_held and is_variable(item.right):
            extra.add(item.right)  # type: ignore[arg-type]
        if right_held and is_variable(item.left):
            extra.add(item.left)  # type: ignore[arg-type]
        if extra:
            return bound | extra
    return bound


@dataclass(frozen=True)
class AdornedRule:
    """One rule copy specialized to a head binding pattern.

    ``rule`` is the renamed copy, body in declared order;
    ``source`` is the original rule; ``idb_subgoals`` lists, for each
    IDB subgoal of the adorned body, its body index, original predicate
    and adornment — exactly the sites where the magic transformation
    emits demand rules.
    """

    rule: Rule
    source: Rule
    head_predicate: str
    head_adornment: str
    idb_subgoals: tuple[tuple[int, str, str], ...]


@dataclass(frozen=True)
class AdornedProgram:
    """The adorned program plus the naming of its binding patterns."""

    program: Program
    query_predicate: str
    query_adornment: str
    adorned_query: str
    rules: tuple[AdornedRule, ...]
    names: dict[tuple[str, str], str]

    def name_of(self, predicate: str, adornment: str) -> str:
        return self.names[(predicate, adornment)]

    def patterns(self) -> dict[str, tuple[str, ...]]:
        """Reached binding patterns per original predicate, sorted."""
        grouped: dict[str, list[str]] = {}
        for predicate, adornment in self.names:
            grouped.setdefault(predicate, []).append(adornment)
        return {p: tuple(sorted(ads)) for p, ads in sorted(grouped.items())}


def _fresh_name(base: str, taken: set[str]) -> str:
    candidate = base
    while candidate in taken:
        candidate += "x"
    taken.add(candidate)
    return candidate


def adorn_program(program: Program, query_atom: Atom) -> AdornedProgram:
    """Propagate binding patterns from ``query_atom`` through ``program``.

    ``query_atom`` must use an IDB predicate of ``program``; its
    constant arguments are the bound positions of the query adornment.
    Returns the adorned program with query predicate set to the adorned
    query name.
    """
    idb = program.idb_predicates
    if query_atom.predicate not in idb:
        raise ValueError(
            f"query atom {query_atom} does not use an IDB predicate of the program"
        )
    if query_atom.arity != program.arity_of(query_atom.predicate):
        raise ValueError(
            f"query atom {query_atom} has arity {query_atom.arity}, "
            f"expected {program.arity_of(query_atom.predicate)}"
        )

    taken = set(idb) | set(program.edb_predicates)
    names: dict[tuple[str, str], str] = {}

    def name_for(predicate: str, adornment: str) -> str:
        key = (predicate, adornment)
        if key not in names:
            names[key] = _fresh_name(adorned_name(predicate, adornment), taken)
        return names[key]

    query_adornment = adornment_of(query_atom, frozenset())
    worklist: list[tuple[str, str]] = [(query_atom.predicate, query_adornment)]
    seen: set[tuple[str, str]] = set(worklist)
    adorned_rules: list[AdornedRule] = []

    while worklist:
        predicate, adornment = worklist.pop()
        head_name = name_for(predicate, adornment)
        for rule in program.rules_for(predicate):
            body: list = []
            subgoals: list[tuple[int, str, str]] = []
            current = bound_variables(rule.head, adornment)
            for item in rule.body:
                if (
                    isinstance(item, Literal)
                    and item.positive
                    and item.predicate in idb
                ):
                    sub_adornment = adornment_of(item.atom, current)
                    body.append(
                        Literal(Atom(name_for(item.predicate, sub_adornment), item.args))
                    )
                    subgoals.append((len(body) - 1, item.predicate, sub_adornment))
                    if (item.predicate, sub_adornment) not in seen:
                        seen.add((item.predicate, sub_adornment))
                        worklist.append((item.predicate, sub_adornment))
                else:
                    body.append(item)
                current = bound_after(item, current)
            adorned_rules.append(
                AdornedRule(
                    rule=Rule(Atom(head_name, rule.head.args), tuple(body)),
                    source=rule,
                    head_predicate=predicate,
                    head_adornment=adornment,
                    idb_subgoals=tuple(subgoals),
                )
            )

    adorned_query = name_for(query_atom.predicate, query_adornment)
    adorned = Program(
        tuple(ar.rule for ar in adorned_rules), adorned_query, validate=False
    )
    return AdornedProgram(
        program=adorned,
        query_predicate=query_atom.predicate,
        query_adornment=query_adornment,
        adorned_query=adorned_query,
        rules=tuple(adorned_rules),
        names=names,
    )
