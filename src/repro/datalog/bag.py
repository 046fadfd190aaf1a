"""Bag (duplicate) semantics for nonrecursive programs.

The paper closes its introduction noting that the query-tree labeling
idea "is the key for extending semantic query optimization to other
cases in which queries cannot be represented as unions of conjunctive
queries, such as SQL queries involving aggregation and duplicates",
deferring details.  This module supplies the executable substrate for
the duplicates case:

* :class:`BagRelation` — rows with multiplicities;
* :func:`evaluate_bag` — SQL-style bag evaluation of a *nonrecursive*
  program (bag semantics of recursive Datalog is not well defined):
  a rule instantiation contributes the product of its positive
  subgoals' multiplicities, rules accumulate additively (UNION ALL);
* :func:`bag_equal` — comparison helper for the tests.

What this lets us demonstrate (see
``tests/datalog/test_bag_semantics.py``): injecting residue negations
(conditions that hold for every instantiation on constraint-consistent
databases) preserves bag semantics exactly — the optimization carries
over to duplicate-sensitive queries — while rewritings that duplicate
derivations (e.g. splitting a predicate into overlapping specializations
unioned back together) would not, which is exactly why the paper calls
the extension nontrivial.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from .atoms import Literal, OrderAtom, evaluate_comparison
from .database import Database, Row
from .program import Program
from .rules import Rule
from .terms import Constant, Variable
from ..robustness.errors import ReproError

__all__ = ["BagRelation", "evaluate_bag", "bag_equal", "RecursiveProgramError"]


class RecursiveProgramError(ReproError, ValueError):
    """Bag evaluation is defined for nonrecursive programs only."""


class BagRelation:
    """A multiset of same-arity rows."""

    __slots__ = ("arity", "counts")

    def __init__(self, arity: int, rows: Iterable[Row] = ()):
        self.arity = arity
        self.counts: Counter = Counter()
        for row in rows:
            self.add(row)

    def add(self, row: Row, multiplicity: int = 1) -> None:
        if len(row) != self.arity:
            raise ValueError(f"arity mismatch: expected {self.arity}, got {len(row)}")
        if multiplicity <= 0:
            raise ValueError("multiplicity must be positive")
        self.counts[tuple(row)] += multiplicity

    def multiplicity(self, row: Row) -> int:
        return self.counts.get(tuple(row), 0)

    def support(self) -> frozenset[Row]:
        """The underlying set (rows with multiplicity >= 1)."""
        return frozenset(self.counts)

    def total(self) -> int:
        return sum(self.counts.values())

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BagRelation):
            return NotImplemented
        return self.arity == other.arity and self.counts == other.counts

    def __repr__(self) -> str:
        return f"BagRelation(arity={self.arity}, rows={self.total()}, distinct={len(self.counts)})"


def _topological_idb_order(program: Program) -> list[str]:
    graph = program.dependency_graph
    order: list[str] = []
    visiting: set[str] = set()
    done: set[str] = set()

    def visit(node: str) -> None:
        if node in done:
            return
        if node in visiting:
            raise RecursiveProgramError(
                f"predicate {node} is recursive; bag semantics is undefined"
            )
        visiting.add(node)
        for successor in sorted(graph.get(node, ())):
            visit(successor)
        visiting.discard(node)
        done.add(node)
        order.append(node)

    for node in sorted(graph):
        visit(node)
    return order


def evaluate_bag(
    program: Program,
    database: Database | Mapping[str, BagRelation],
) -> dict[str, BagRelation]:
    """Evaluate a nonrecursive program under bag semantics.

    ``database`` is either a plain :class:`Database` (every EDB fact has
    multiplicity 1) or a mapping from predicate names to
    :class:`BagRelation` (a true bag EDB).  Returns the bag for every
    IDB predicate.
    """
    if isinstance(database, Database):
        edb: dict[str, BagRelation] = {}
        for predicate in database.predicates():
            relation = database.relation(predicate)
            bag = BagRelation(relation.arity)
            for row in relation:
                bag.add(row)
            edb[predicate] = bag
    else:
        edb = dict(database)

    idb: dict[str, BagRelation] = {}

    def bag_of(predicate: str, arity: int) -> BagRelation:
        if predicate in idb:
            return idb[predicate]
        return edb.get(predicate, BagRelation(arity))

    for predicate in _topological_idb_order(program):
        result = BagRelation(program.arity_of(predicate))
        for rule in program.rules_for(predicate):
            for row, multiplicity in _rule_bag(rule, bag_of):
                result.add(row, multiplicity)
        idb[predicate] = result
    return idb


def _rule_bag(rule: Rule, bag_of):
    """Yield (head row, multiplicity) pairs for one rule."""
    items = list(rule.body)

    def descend(index: int, env: dict[Variable, object], multiplicity: int):
        if index == len(items):
            head_row = tuple(
                arg.value if isinstance(arg, Constant) else env[arg]
                for arg in rule.head.args
            )
            yield head_row, multiplicity
            return
        item = items[index]
        if isinstance(item, OrderAtom):
            left = item.left.value if isinstance(item.left, Constant) else env[item.left]
            right = item.right.value if isinstance(item.right, Constant) else env[item.right]
            if evaluate_comparison(left, right, item.op):
                yield from descend(index + 1, env, multiplicity)
            return
        assert isinstance(item, Literal)
        bag = bag_of(item.predicate, item.atom.arity)
        if not item.positive:
            row = tuple(
                arg.value if isinstance(arg, Constant) else env[arg]
                for arg in item.args
            )
            if bag.multiplicity(row) == 0:
                yield from descend(index + 1, env, multiplicity)
            return
        for row, count in bag:
            extended = dict(env)
            consistent = True
            for arg, value in zip(item.args, row):
                if isinstance(arg, Constant):
                    if arg.value != value:
                        consistent = False
                        break
                elif arg in extended:
                    if extended[arg] != value:
                        consistent = False
                        break
                else:
                    extended[arg] = value
            if consistent:
                yield from descend(index + 1, extended, multiplicity * count)

    # Reorder: positive literals first (bindings), then filters become
    # checkable; the recursion above checks filters lazily by position,
    # so move them after all positive literals to guarantee boundness.
    positives = [i for i in items if isinstance(i, Literal) and i.positive]
    others = [i for i in items if not (isinstance(i, Literal) and i.positive)]
    items = positives + others
    yield from descend(0, {}, 1)


def bag_equal(first: Mapping[str, BagRelation], second: Mapping[str, BagRelation]) -> bool:
    """Whether two IDB bag assignments agree on every predicate."""
    keys = set(first) | set(second)
    for key in keys:
        left, right = first.get(key), second.get(key)
        if left is None or right is None or left != right:
            return False
    return True
