"""Atoms and literals: relational atoms, order atoms, negated EDB atoms.

Following the paper's terminology (Section 2):

* an *atom* is a relational atom ``p(t1, ..., tn)`` appearing positively;
* an *order atom* is ``gamma theta delta`` where ``theta`` is one of
  ``< <= > >= = !=`` interpreted over a dense order;
* a *literal* is a relational atom appearing positively or negatively
  (negation is restricted to EDB predicates by the program classes the
  paper studies; :mod:`repro.datalog.program` enforces this).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterable, Union

from .terms import Constant, Substitution, Term, Variable, is_variable
from ..robustness.errors import ReproError

__all__ = [
    "Atom",
    "OrderAtom",
    "Literal",
    "BodyItem",
    "COMPARISONS",
    "negate_comparison",
    "flip_comparison",
    "evaluate_comparison",
    "IncomparableValues",
]

#: The comparison predicates of the dense-order language.
COMPARISONS = ("<", "<=", ">", ">=", "=", "!=")

_NEGATION = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def negate_comparison(op: str) -> str:
    """The comparison equivalent to the negation of ``op`` on a total dense order."""
    return _NEGATION[op]


def flip_comparison(op: str) -> str:
    """The comparison with operand order swapped: ``x op y`` iff ``y flip(op) x``."""
    return _FLIP[op]


class IncomparableValues(ReproError, TypeError):
    """An order comparison between values that share no order: a number
    against a string, say.  Bad input data, so a :class:`ReproError`
    (CLI exit 2, HTTP 400); a ``TypeError`` for callers that predate it.

    The message names the two value types in sorted order, not the
    values: which incomparable pair a join meets first follows set
    iteration order (string hashing), and one input must give one
    message in every process."""

    def __init__(self, left: object, right: object):
        first, second = sorted((type(left).__name__, type(right).__name__))
        super().__init__(f"values of types {first} and {second} are not order-comparable")


def evaluate_comparison(left: object, right: object, op: str) -> bool:
    """Evaluate ``left op right`` over Python values.

    Raises :class:`IncomparableValues` when the values are not mutually
    comparable (e.g. a number against a string), mirroring the
    single-sorted dense domain of the paper.  ``bool`` is not a number
    here.
    """
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    left_type, right_type = type(left), type(right)
    if not (
        (left_type is int or left_type is float)
        and (right_type is int or right_type is float)
    ):
        # Exact int/float pairs skip the (slow) numbers.Real ABC check.
        left_numeric = isinstance(left, numbers.Real) and left_type is not bool
        right_numeric = isinstance(right, numbers.Real) and right_type is not bool
        if left_numeric != right_numeric:
            raise IncomparableValues(left, right)
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        raise IncomparableValues(left, right) from None
    raise ValueError(f"unknown comparison operator {op!r}")


@dataclass(frozen=True, slots=True)
class Atom:
    """A relational atom ``predicate(args...)``."""

    predicate: str
    args: tuple[Term, ...]
    #: :meth:`variables`, computed on first use: the atom is frozen.
    _variables: "frozenset[Variable] | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> set[Variable]:
        """The set of variables appearing in the atom (a fresh set)."""
        cached = self._variables
        if cached is None:
            cached = frozenset(t for t in self.args if is_variable(t))
            object.__setattr__(self, "_variables", cached)
        return set(cached)

    def constants(self) -> set[Constant]:
        """The set of constants appearing in the atom."""
        return {t for t in self.args if isinstance(t, Constant)}

    def is_ground(self) -> bool:
        return all(isinstance(t, Constant) for t in self.args)

    def substitute(self, theta: Substitution) -> "Atom":
        """Apply a substitution to every argument."""
        return Atom(self.predicate, tuple(theta.apply(t) for t in self.args))

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.predicate}({inner})"


@dataclass(frozen=True, slots=True)
class OrderAtom:
    """A dense-order comparison ``left op right``."""

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISONS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def variables(self) -> set[Variable]:
        return {t for t in (self.left, self.right) if is_variable(t)}

    def constants(self) -> set[Constant]:
        return {t for t in (self.left, self.right) if isinstance(t, Constant)}

    def is_ground(self) -> bool:
        return not self.variables()

    def substitute(self, theta: Substitution) -> "OrderAtom":
        return OrderAtom(theta.apply(self.left), self.op, theta.apply(self.right))

    def negated(self) -> "OrderAtom":
        """The order atom equivalent to the negation of this one."""
        return OrderAtom(self.left, negate_comparison(self.op), self.right)

    def flipped(self) -> "OrderAtom":
        """The same constraint written with operands swapped."""
        return OrderAtom(self.right, flip_comparison(self.op), self.left)

    def normalized(self) -> "OrderAtom":
        """A canonical orientation (sorted operand rendering) for set membership.

        ``=`` and ``!=`` are symmetric and ``>`` / ``>=`` are rewritten
        to ``<`` / ``<=``, so that syntactically different but equivalent
        atoms compare equal after normalization.
        """
        atom = self
        if atom.op in (">", ">="):
            atom = atom.flipped()
        if atom.op in ("=", "!=") and str(atom.right) < str(atom.left):
            atom = atom.flipped()
        return atom

    def holds(self) -> bool:
        """Evaluate a ground order atom."""
        if not self.is_ground():
            raise ValueError(f"order atom {self} is not ground")
        assert isinstance(self.left, Constant) and isinstance(self.right, Constant)
        return evaluate_comparison(self.left.value, self.right.value, self.op)

    def __repr__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, slots=True)
class Literal:
    """A relational atom with a polarity.

    Negative literals are only legal on EDB predicates (checked at the
    program level, since polarity alone cannot know the predicate split).
    """

    atom: Atom
    positive: bool = True

    @property
    def predicate(self) -> str:
        return self.atom.predicate

    @property
    def args(self) -> tuple[Term, ...]:
        return self.atom.args

    def variables(self) -> set[Variable]:
        return self.atom.variables()

    def constants(self) -> set[Constant]:
        return self.atom.constants()

    def substitute(self, theta: Substitution) -> "Literal":
        return Literal(self.atom.substitute(theta), self.positive)

    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def __repr__(self) -> str:
        return repr(self.atom) if self.positive else f"not {self.atom!r}"


#: Anything that may appear in a rule body.
BodyItem = Union[Literal, OrderAtom]


def body_variables(body: Iterable[BodyItem]) -> set[Variable]:
    """All variables appearing in a body (any polarity, including order atoms)."""
    variables: set[Variable] = set()
    for item in body:
        variables |= item.variables()
    return variables
