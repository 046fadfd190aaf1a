"""Rules: function-free Horn rules with order atoms and safe negation.

A :class:`Rule` has a head atom and a body of literals and order atoms.
Safety follows [Ull89]: every variable must be *limited* — it appears in
a positive relational subgoal, or is equated (possibly transitively,
through ``=`` order atoms) to a constant or to a limited variable.
Variables of negated subgoals and of non-equality order atoms must be
limited for the rule to be safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..robustness.errors import ReproError
from .atoms import Atom, BodyItem, Literal, OrderAtom, body_variables
from .terms import Constant, Substitution, Variable, fresh_variables, is_variable

__all__ = ["Rule", "limited_variables", "UnsafeRuleError"]


class UnsafeRuleError(ReproError, ValueError):
    """Raised when a rule (or constraint) fails the safety condition."""


def limited_variables(body: Sequence[BodyItem]) -> set[Variable]:
    """Compute the set of limited variables of a body.

    A variable is limited if it occurs in a positive relational subgoal,
    or an ``=`` order atom links it to a constant or a limited variable.
    The closure is computed to a fixpoint.
    """
    limited: set[Variable] = set()
    for item in body:
        if isinstance(item, Literal) and item.positive:
            limited |= item.variables()
    equalities = [item for item in body if isinstance(item, OrderAtom) and item.op == "="]
    changed = True
    while changed:
        changed = False
        for eq in equalities:
            left_ok = isinstance(eq.left, Constant) or eq.left in limited
            right_ok = isinstance(eq.right, Constant) or eq.right in limited
            if left_ok and is_variable(eq.right) and eq.right not in limited:
                limited.add(eq.right)  # type: ignore[arg-type]
                changed = True
            if right_ok and is_variable(eq.left) and eq.left not in limited:
                limited.add(eq.left)  # type: ignore[arg-type]
                changed = True
    return limited


@dataclass(frozen=True)
class Rule:
    """A Datalog rule ``head :- body``.

    The body is an ordered tuple; evaluation may reorder it, but the
    declared order is preserved for printing and for stable rewrites.
    """

    head: Atom
    body: tuple[BodyItem, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))

    # ------------------------------------------------------------------
    # Views over the body
    # ------------------------------------------------------------------
    @property
    def positive_literals(self) -> tuple[Literal, ...]:
        return tuple(i for i in self.body if isinstance(i, Literal) and i.positive)

    @property
    def negative_literals(self) -> tuple[Literal, ...]:
        return tuple(i for i in self.body if isinstance(i, Literal) and not i.positive)

    @property
    def order_atoms(self) -> tuple[OrderAtom, ...]:
        return tuple(i for i in self.body if isinstance(i, OrderAtom))

    @property
    def relational_literals(self) -> tuple[Literal, ...]:
        return tuple(i for i in self.body if isinstance(i, Literal))

    def body_predicates(self) -> set[str]:
        return {lit.predicate for lit in self.relational_literals}

    def is_fact(self) -> bool:
        return not self.body and self.head.is_ground()

    def renamed_predicate(self) -> str | None:
        """``r`` when the rule is an identity renaming ``q(V̄) :- r(V̄)``
        (one positive literal, distinct variables, same order, ``r`` not
        ``q``); ``None`` otherwise."""
        if len(self.body) != 1:
            return None
        item = self.body[0]
        args = self.head.args
        if (
            not isinstance(item, Literal)
            or not item.positive
            or item.args != args
            or item.predicate == self.head.predicate
            or not all(map(is_variable, args))
            or len(set(args)) != len(args)
        ):
            return None
        return item.predicate

    # ------------------------------------------------------------------
    # Variables and safety
    # ------------------------------------------------------------------
    def variables(self) -> set[Variable]:
        return self.head.variables() | body_variables(self.body)

    def constants(self) -> set[Constant]:
        consts = set(self.head.constants())
        for item in self.body:
            consts |= item.constants()
        return consts

    def is_safe(self) -> bool:
        """Whether every head / negated / order variable is limited."""
        limited = limited_variables(self.body)
        must_be_limited: set[Variable] = set(self.head.variables())
        for lit in self.negative_literals:
            must_be_limited |= lit.variables()
        for atom in self.order_atoms:
            must_be_limited |= atom.variables()
        return must_be_limited <= limited

    def check_safe(self) -> "Rule":
        """Return ``self``; raise :class:`UnsafeRuleError` if unsafe."""
        if not self.is_safe():
            unlimited = (self.head.variables() | body_variables(self.body)) - limited_variables(self.body)
            raise UnsafeRuleError(f"rule {self} is unsafe (unlimited variables may include {sorted(v.name for v in unlimited)})")
        return self

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def substitute(self, theta: Substitution) -> "Rule":
        return Rule(
            self.head.substitute(theta),
            tuple(item.substitute(theta) for item in self.body),
        )

    def rename_apart(self, avoid: Iterable[Variable], prefix: str = "R") -> "Rule":
        """Return a variant of the rule whose variables avoid ``avoid``."""
        avoid_set = set(avoid)
        own = sorted(self.variables(), key=lambda v: v.name)
        clashing = [v for v in own if v in avoid_set]
        if not clashing:
            return self
        stream = fresh_variables(prefix, avoid=avoid_set | set(own))
        renaming = Substitution({v: next(stream) for v in clashing})
        return self.substitute(renaming)

    def with_extra_conditions(self, extra: Sequence[BodyItem]) -> "Rule":
        """Append conditions (e.g. negated residues) to the body, deduplicated."""
        existing = set(self.body)
        appended = tuple(item for item in extra if item not in existing)
        return Rule(self.head, self.body + appended)

    def __repr__(self) -> str:
        if not self.body:
            return f"{self.head!r}."
        inner = ", ".join(repr(item) for item in self.body)
        return f"{self.head!r} :- {inner}."
