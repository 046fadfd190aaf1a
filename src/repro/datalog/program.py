"""Datalog programs: rule collections with EDB/IDB structure.

A :class:`Program` bundles a set of rules with an optional distinguished
query predicate, and derives the EDB/IDB split, the predicate dependency
graph, recursion information and the *initialization rules* used by
Proposition 5.2 (emptiness testing).

The program classes of the paper are validated here:

* negation may only be applied to EDB predicates (``{not}``-programs);
* rules must be safe;
* IDB predicates never occur in integrity constraints (checked in
  :mod:`repro.constraints.integrity`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .atoms import Literal
from .rules import Rule, UnsafeRuleError
from ..robustness.errors import ReproError

__all__ = ["Program", "ProgramError", "PredicateInfo"]


class ProgramError(ReproError, ValueError):
    """Raised when a rule set violates the paper's program classes."""


@dataclass(frozen=True)
class PredicateInfo:
    """Derived facts about one predicate of a program."""

    name: str
    arity: int
    is_idb: bool
    is_recursive: bool


@dataclass(frozen=True)
class Program:
    """An ordered, immutable collection of safe rules plus a query predicate.

    Arities, the IDB set, the dependency graph and the SCC schedule are
    pure functions of the rules: each is computed once per object
    (``cached_property`` writes ``__dict__`` directly, which a frozen
    dataclass allows) and shared by every evaluation of it.
    """

    rules: tuple[Rule, ...]
    query: str | None = None

    def __init__(self, rules: Iterable[Rule], query: str | None = None, *, validate: bool = True):
        object.__setattr__(self, "rules", tuple(rules))
        object.__setattr__(self, "query", query)
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        arities: dict[str, int] = {}
        for rule in self.rules:
            try:
                rule.check_safe()
            except UnsafeRuleError as exc:
                raise ProgramError(str(exc)) from exc
            for atom in [rule.head] + [lit.atom for lit in rule.relational_literals]:
                known = arities.setdefault(atom.predicate, atom.arity)
                if known != atom.arity:
                    raise ProgramError(
                        f"predicate {atom.predicate} used with arities {known} and {atom.arity}"
                    )
        idb = {rule.head.predicate for rule in self.rules}
        for rule in self.rules:
            for lit in rule.negative_literals:
                if lit.predicate in idb:
                    raise ProgramError(
                        f"negated IDB subgoal {lit} in rule {rule}; only EDB negation is allowed"
                    )
        if self.query is not None and self.query not in idb:
            raise ProgramError(f"query predicate {self.query} has no rules")

    # ------------------------------------------------------------------
    # Predicate structure
    # ------------------------------------------------------------------
    @cached_property
    def idb_predicates(self) -> frozenset[str]:
        return frozenset(rule.head.predicate for rule in self.rules)

    @property
    def edb_predicates(self) -> frozenset[str]:
        idb = self.idb_predicates
        preds: set[str] = set()
        for rule in self.rules:
            preds |= {p for p in rule.body_predicates() if p not in idb}
        return frozenset(preds)

    @cached_property
    def _pred_arity(self) -> Mapping[str, int]:
        arities: dict[str, int] = {}
        for rule in self.rules:
            for atom in (rule.head, *(lit.atom for lit in rule.relational_literals)):
                arities.setdefault(atom.predicate, atom.arity)
        return arities

    def arity_of(self, predicate: str) -> int:
        return self._pred_arity[predicate]

    def rules_for(self, predicate: str) -> tuple[Rule, ...]:
        """All rules whose head predicate is ``predicate``."""
        return tuple(rule for rule in self.rules if rule.head.predicate == predicate)

    def initialization_rules(self) -> tuple[Rule, ...]:
        """Rules with no IDB predicate in the body (Proposition 5.2)."""
        idb = self.idb_predicates
        return tuple(
            rule
            for rule in self.rules
            if not any(lit.predicate in idb for lit in rule.relational_literals)
        )

    # ------------------------------------------------------------------
    # Dependency graph and recursion
    # ------------------------------------------------------------------
    @cached_property
    def dependency_graph(self) -> Mapping[str, set[str]]:
        """Map each IDB predicate to the IDB predicates its rules use."""
        idb = self.idb_predicates
        graph: dict[str, set[str]] = {p: set() for p in idb}
        for rule in self.rules:
            graph[rule.head.predicate] |= {
                p for p in rule.body_predicates() if p in idb
            }
        return graph

    @cached_property
    def union_views(self) -> Mapping[str, tuple[str, ...]]:
        """The IDB predicates that are the union of other relations.

        A *union view* ``q`` is read by no rule body, and every rule for
        it is an identity renaming ``q(V̄) :- r(V̄)``
        (:meth:`~repro.datalog.rules.Rule.renamed_predicate`).  It maps
        to its members ``r`` in rule order.  No fixpoint fires those
        rules: an evaluation stores no row of ``q`` and reads it as the
        union of its members' relations."""
        read = {p for rule in self.rules for p in rule.body_predicates()}
        renamed: dict[str, list[str | None]] = {}
        for rule in self.rules:
            renamed.setdefault(rule.head.predicate, []).append(rule.renamed_predicate())
        return {
            head: tuple(dict.fromkeys(members))
            for head, members in renamed.items()
            if head not in read and None not in members
        }

    @cached_property
    def schedule(self) -> tuple[tuple, ...]:
        """What a semi-naive run needs of each SCC of the dependency
        graph, in topological order: ``(members, recursive, rules, exit
        rules, delta rules)`` — exit rules have no positive subgoal in
        the SCC, delta rules are ``(rule index, rule, body position)``
        per positive subgoal in it.  A union view's SCC is left out:
        a run fires none of its rules."""
        graph = self.dependency_graph
        views = self.union_views
        schedule = []
        for component in _sccs(graph):
            if component[0] in views:  # a view is read by nothing: a lone SCC
                continue
            members = frozenset(component)
            rules = [(i, r) for i, r in enumerate(self.rules) if r.head.predicate in members]
            delta_rules = tuple(
                (index, rule, pos)
                for index, rule in rules
                for pos, item in enumerate(rule.body)
                if isinstance(item, Literal) and item.positive and item.predicate in members
            )
            inside = {index for index, _, _ in delta_rules}
            schedule.append((
                members,
                len(component) > 1 or component[0] in graph[component[0]],
                tuple(rule for _, rule in rules),
                tuple(rule for index, rule in rules if index not in inside),
                delta_rules,
            ))
        return tuple(schedule)

    def _reachable(self, start: str) -> set[str]:
        graph = self.dependency_graph
        seen: set[str] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in graph.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def is_recursive_predicate(self, predicate: str) -> bool:
        """Whether ``predicate`` depends on itself (directly or mutually)."""
        return predicate in self._reachable(predicate)

    def is_recursive(self) -> bool:
        return any(self.is_recursive_predicate(p) for p in self.idb_predicates)

    def is_linear_recursive(self) -> bool:
        """At most one recursive IDB subgoal per rule."""
        for rule in self.rules:
            head = rule.head.predicate
            mutual = self._reachable(head) | {head}
            recursive_subgoals = [
                lit for lit in rule.relational_literals
                if lit.predicate in self.idb_predicates and head in self._reachable(lit.predicate) | {lit.predicate}
                and lit.predicate in mutual
            ]
            if len(recursive_subgoals) > 1:
                return False
        return True

    def predicate_info(self) -> dict[str, PredicateInfo]:
        infos: dict[str, PredicateInfo] = {}
        for pred in sorted(self.idb_predicates):
            infos[pred] = PredicateInfo(pred, self.arity_of(pred), True, self.is_recursive_predicate(pred))
        for pred in sorted(self.edb_predicates):
            infos[pred] = PredicateInfo(pred, self.arity_of(pred), False, False)
        return infos

    # ------------------------------------------------------------------
    # Classification (Section 2 notation)
    # ------------------------------------------------------------------
    def has_order_atoms(self) -> bool:
        return any(rule.order_atoms for rule in self.rules)

    def has_negation(self) -> bool:
        return any(rule.negative_literals for rule in self.rules)

    def classification(self) -> frozenset[str]:
        """The paper's class tag: subset of ``{"theta", "not"}``."""
        tags: set[str] = set()
        if self.has_order_atoms():
            tags.add("theta")
        if self.has_negation():
            tags.add("not")
        return frozenset(tags)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def with_query(self, query: str) -> "Program":
        return Program(self.rules, query)

    def relevant_rules(self) -> "Program":
        """Restrict to rules reachable from the query predicate (if set).

        No re-validation: the source program was already validated, and
        a query left without rules (e.g. after pruning passes) is a
        legitimate intermediate state the optimizer handles.
        """
        if self.query is None:
            return self
        keep = self._reachable(self.query) | {self.query}
        return Program(
            tuple(r for r in self.rules if r.head.predicate in keep),
            self.query,
            validate=False,
        )

    def __repr__(self) -> str:
        lines = [repr(rule) for rule in self.rules]
        if self.query is not None:
            lines.append(f"% query: {self.query}")
        return "\n".join(lines)


def _sccs(graph: Mapping[str, set[str]]) -> list[list[str]]:
    """Tarjan's strongly connected components, returned in topological order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    components: list[list[str]] = []

    def strongconnect(node: str) -> None:
        work = [(node, iter(sorted(graph.get(node, ()))))]
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[current] = min(low[current], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[current])
            if low[current] == index[current]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                components.append(component)

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return components
