"""Integrity constraints: rules with empty heads (paper, Section 2).

An ic ``:- b1, ..., bn`` forbids any instantiation of its body: a
database *satisfies* a set of ic's when no body can be satisfied by the
EDB facts together with the dense order on the domain.  Bodies contain
EDB atoms (never IDB), optionally negated EDB atoms and order atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from ..datalog.atoms import Atom, BodyItem, Literal, OrderAtom, body_variables
from ..datalog.database import Database
from ..datalog.evaluation import evaluate
from ..datalog.program import Program
from ..datalog.rules import Rule, UnsafeRuleError, limited_variables
from ..datalog.terms import Constant, Substitution, Variable

__all__ = [
    "IntegrityConstraint",
    "database_satisfies",
    "violations",
    "check_no_idb",
]

_VIOLATION = "__violation__"


@dataclass(frozen=True)
class IntegrityConstraint:
    """An integrity constraint ``:- body.`` (a rule deriving false)."""

    body: tuple[BodyItem, ...]

    def __init__(self, body: Iterable[BodyItem]):
        object.__setattr__(self, "body", tuple(body))
        if not self.body:
            raise ValueError("an integrity constraint needs a nonempty body")
        unlimited = self._must_be_limited() - limited_variables(self.body)
        if unlimited:
            raise UnsafeRuleError(
                f"unsafe integrity constraint {self}: unlimited variables "
                f"{sorted(v.name for v in unlimited)}"
            )

    def _must_be_limited(self) -> set[Variable]:
        needed: set[Variable] = set()
        for item in self.body:
            if isinstance(item, OrderAtom) or (isinstance(item, Literal) and not item.positive):
                needed |= item.variables()
        return needed

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    # The body never changes, so each view is computed once per object.
    @cached_property
    def positive_atoms(self) -> tuple[Atom, ...]:
        """The positive EDB atoms of the body, in declaration order."""
        return tuple(i.atom for i in self.body if isinstance(i, Literal) and i.positive)

    @cached_property
    def negative_atoms(self) -> tuple[Atom, ...]:
        return tuple(i.atom for i in self.body if isinstance(i, Literal) and not i.positive)

    @cached_property
    def order_atoms(self) -> tuple[OrderAtom, ...]:
        return tuple(i for i in self.body if isinstance(i, OrderAtom))

    def variables(self) -> set[Variable]:
        return body_variables(self.body)

    def constants(self) -> set[Constant]:
        consts: set[Constant] = set()
        for item in self.body:
            consts |= item.constants()
        return consts

    def predicates(self) -> set[str]:
        return {i.predicate for i in self.body if isinstance(i, Literal)}

    # ------------------------------------------------------------------
    # Classification (Section 2 notation)
    # ------------------------------------------------------------------
    def has_order_atoms(self) -> bool:
        return bool(self.order_atoms)

    def has_negation(self) -> bool:
        return bool(self.negative_atoms)

    def classification(self) -> frozenset[str]:
        """Class tag: subset of ``{"theta", "not"}``."""
        tags: set[str] = set()
        if self.has_order_atoms():
            tags.add("theta")
        if self.has_negation():
            tags.add("not")
        return frozenset(tags)

    def is_plain(self) -> bool:
        """Neither order atoms nor negated atoms (a plain ic)."""
        return not self.classification()

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def substitute(self, theta: Substitution) -> "IntegrityConstraint":
        return IntegrityConstraint(tuple(item.substitute(theta) for item in self.body))

    def as_rule(self, head_predicate: str = _VIOLATION) -> Rule:
        """The ic as a rule deriving a 0-ary violation flag."""
        return Rule(Atom(head_predicate, ()), self.body)

    def __repr__(self) -> str:
        inner = ", ".join(repr(item) for item in self.body)
        return f":- {inner}."


def check_no_idb(constraints: Sequence[IntegrityConstraint], program: Program) -> None:
    """Enforce the paper's assumption that ic bodies have no IDB predicates."""
    idb = program.idb_predicates
    for ic in constraints:
        bad = ic.predicates() & idb
        if bad:
            raise ValueError(f"integrity constraint {ic} uses IDB predicates {sorted(bad)}")


def violations(ic: IntegrityConstraint, database: Database) -> int:
    """The number of body instantiations of ``ic`` satisfied by ``database``."""
    head_vars = tuple(sorted(ic.variables(), key=lambda v: v.name))
    rule = Rule(Atom(_VIOLATION, head_vars), ic.body)
    program = Program([rule], _VIOLATION)
    result = evaluate(program, database)
    return len(result.relation(_VIOLATION))


def database_satisfies(
    constraints: Sequence[IntegrityConstraint], database: Database
) -> bool:
    """Whether ``database`` is consistent with every constraint."""
    return all(violations(ic, database) == 0 for ic in constraints)
