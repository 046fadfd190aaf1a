"""The top-down query-tree phase of the algorithm (Section 4.1).

The query tree (a forest, one tree per adornment of the query
predicate) encodes precisely the symbolic derivations of the query that
are consistent with the integrity constraints:

* **goal nodes** carry an adorned predicate, an atom pattern (variables,
  possibly equated by unification with rule heads — footnote 1 of the
  paper) and a *label*: triplets describing partial mappings of ic's
  into complete symbolic derivations through this node;
* **rule nodes** are adorned rules of ``P1`` unified with their parent
  goal node; a rule instance whose order atoms became unsatisfiable
  under the unification is discarded;
* a goal node is expanded only if no previously expanded node is
  *equivalent* (same predicate, adornment, canonical atom pattern and
  label) — the finiteness argument of the paper;
* after construction, nodes not reachable from the EDB leaves and the
  root are removed (productivity + reachability pruning).

The rewritten program ``P'`` consists of one rule per surviving rule
node, over predicates named by (predicate, adornment, atom pattern).
Its guarantees are Theorem 4.1: equivalence to ``P`` on all databases
satisfying the ic's, and query reachability of every goal node of every
symbolic derivation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..constraints.dense_order import OrderConstraintSet
from ..constraints.integrity import IntegrityConstraint
from ..observability.trace import get_tracer
from ..robustness.budget import Budget, Governor
from ..datalog.atoms import Atom, Literal, OrderAtom
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Substitution, Term, Variable, fresh_variables
from ..datalog.unify import unify_atoms
from .adornments import AdornedRule, AdornmentResult, FrontierTable, Triplet

__all__ = ["GoalNode", "RuleNode", "QueryTree", "build_query_tree"]


def _canonical_pattern(atom: Atom) -> tuple:
    """A variable-renaming-invariant key for an atom pattern."""
    mapping: dict[Variable, int] = {}
    key: list[object] = [atom.predicate]
    for arg in atom.args:
        if isinstance(arg, Constant):
            key.append(("c", arg.value))
        else:
            index = mapping.setdefault(arg, len(mapping))
            key.append(("v", index))
    return tuple(key)


@dataclass
class GoalNode:
    """A goal node of the query tree."""

    predicate: str
    atom: Atom
    adornment: frozenset[Triplet] | None  # None for EDB goal nodes
    label: frozenset[Triplet]
    is_edb: bool
    negative: bool = False
    children: list["RuleNode"] = field(default_factory=list)
    reference: "GoalNode | None" = None
    productive: bool = False
    reachable: bool = False

    def key(self) -> tuple:
        return (
            self.predicate,
            self.adornment,
            _canonical_pattern(self.atom),
            self.label,
        )

    def class_key(self) -> tuple:
        """Identity of the P' predicate this node maps to (label-free)."""
        return (self.predicate, self.adornment, _canonical_pattern(self.atom))

    def resolved(self) -> "GoalNode":
        node = self
        while node.reference is not None:
            node = node.reference
        return node

    def render(self, constraints: Sequence[IntegrityConstraint], indent: str = "") -> str:
        tag = "edb " if self.is_edb else ""
        polarity = "not " if self.negative else ""
        residues = sorted(
            t.render(constraints) for t in self.label if not t.is_trivial()
        )
        label_text = f"  label={residues}" if residues else ""
        lines = [f"{indent}{tag}{polarity}{self.atom!r}{label_text}"]
        if self.reference is not None:
            lines[0] += "  (= expanded node above)"
        for child in self.children:
            lines.append(child.render(constraints, indent + "  "))
        return "\n".join(lines)


@dataclass
class RuleNode:
    """A rule node: an adorned rule unified with its parent goal node."""

    adorned: AdornedRule
    instance: Rule
    label: frozenset[Triplet]
    subgoals: list[GoalNode] = field(default_factory=list)
    productive: bool = False
    reachable: bool = False

    def render(self, constraints: Sequence[IntegrityConstraint], indent: str = "") -> str:
        lines = [f"{indent}rule {self.instance!r}"]
        for subgoal in self.subgoals:
            lines.append(subgoal.render(constraints, indent + "  "))
        return "\n".join(lines)


@dataclass
class QueryTree:
    """The full forest plus the derived rewriting."""

    roots: list[GoalNode]
    adornment_result: AdornmentResult
    expanded: dict[tuple, GoalNode]

    @property
    def constraints(self) -> tuple[IntegrityConstraint, ...]:
        return self.adornment_result.constraints

    def surviving_roots(self) -> list[GoalNode]:
        return [root for root in self.roots if root.productive and root.reachable]

    def is_query_satisfiable(self) -> bool:
        """Whether some consistent derivation of the query exists."""
        return bool(self.surviving_roots())

    def all_goal_nodes(self) -> Iterable[GoalNode]:
        seen: set[int] = set()
        stack: list[GoalNode] = list(self.roots)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            for rule_node in node.children:
                stack.extend(rule_node.subgoals)

    def all_rule_nodes(self) -> Iterable[RuleNode]:
        for goal in self.all_goal_nodes():
            yield from goal.children

    def render(self) -> str:
        return "\n\n".join(root.render(self.constraints) for root in self.roots)


# ----------------------------------------------------------------------
# Label propagation
# ----------------------------------------------------------------------
def _restrict_sigma(
    sigma: Sequence[tuple[str, object]], names: frozenset[str]
) -> dict[str, object]:
    return {name: image for name, image in sigma if name in names}


def _corresponding_adornment_triplets(
    label_triplet: Triplet,
    adornment: frozenset[Triplet],
    label_var_names: frozenset[str],
) -> list[Triplet]:
    """Adornment triplets a label triplet can correspond to.

    Per the paper's invariant, a label triplet ``(I, sigma', s')``
    corresponds to an adornment triplet ``(I, tau, s)`` with
    ``s' <= s`` and ``sigma'`` equal to the restriction of ``tau`` to
    the variables of ``s'`` (``label_var_names``).
    """
    matches = []
    label_sigma = label_triplet.sigma_dict()
    for candidate in adornment:
        if candidate.ic != label_triplet.ic:
            continue
        if not label_triplet.unmapped <= candidate.unmapped:
            continue
        if _restrict_sigma(candidate.sigma, label_var_names) == label_sigma:
            matches.append(candidate)
    return matches


def _push_labels(
    goal: GoalNode,
    adorned: AdornedRule,
    frontiers: FrontierTable,
) -> tuple[frozenset[Triplet], list[frozenset[Triplet]]]:
    """Compute the rule-node label and per-positive-subgoal labels.

    Pushed triplets must satisfy the paper's consistency requirement:
    every frontier variable (shared between an unmapped and a mapped
    atom of the ic) is in the sigma's domain.  Triplets losing a
    frontier binding on the way down carry no usable glue and are
    dropped.
    """
    positives = adorned.rule.positive_literals
    rule_label: set[Triplet] = set()
    subgoal_labels: list[set[Triplet]] = [set() for _ in positives]
    assert goal.adornment is not None
    for label_triplet in goal.label:
        shape = frontiers[(label_triplet.ic, label_triplet.unmapped)]
        names, frontier = shape.unmapped_names, shape.names
        for adn_triplet in _corresponding_adornment_triplets(
            label_triplet, goal.adornment, names
        ):
            for derivation_index in adorned.origins_of(adn_triplet):
                derivation = adorned.derivations[derivation_index]
                rule_sigma = _restrict_sigma(derivation.rule_sigma, names)
                if frontier <= rule_sigma.keys():
                    rule_label.add(
                        Triplet.make(
                            label_triplet.ic, label_triplet.unmapped, rule_sigma
                        )
                    )
                for i, contributor in enumerate(derivation.contributors):
                    restricted = _restrict_sigma(contributor.sigma, names)
                    if not frontier <= restricted.keys():
                        continue
                    subgoal_labels[i].add(
                        Triplet.make(
                            label_triplet.ic, label_triplet.unmapped, restricted
                        )
                    )
    return frozenset(rule_label), [frozenset(s) for s in subgoal_labels]


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def build_query_tree(
    result: AdornmentResult, *, budget: "Budget | Governor | None" = None
) -> QueryTree:
    """Build the query forest for the program's query predicate.

    ``budget`` (a :class:`~repro.robustness.budget.Budget` or a shared
    running :class:`~repro.robustness.budget.Governor`) enforces the
    deadline, cancellation and ``max_expansions`` at every node
    expansion — the construction is worst-case exponential in the
    number of adorned equivalence classes.
    """
    governor = Governor.of(budget)
    program = result.program
    if program.query is None:
        raise ValueError("the program needs a query predicate")
    query = program.query
    arity = program.arity_of(query)

    tracer = get_tracer()
    trace_on = tracer.enabled

    roots: list[GoalNode] = []
    expanded: dict[tuple, GoalNode] = {}
    queue: deque[GoalNode] = deque()
    for adornment in result.adornments.get(query, []):
        root_atom = Atom(query, tuple(Variable(f"V{i}") for i in range(arity)))
        root = GoalNode(
            predicate=query,
            atom=root_atom,
            adornment=adornment,
            label=adornment,
            is_edb=False,
        )
        roots.append(root)
        queue.append(root)

    with tracer.span("querytree.build", query=query, roots=len(roots)) as build_span:
        shared = 0
        while queue:
            if governor is not None:
                governor.expand("querytree")
            goal = queue.popleft()
            key = goal.key()
            existing = expanded.get(key)
            if existing is not None and existing is not goal:
                goal.reference = existing
                shared += 1
                if trace_on:
                    tracer.event(
                        "querytree.share",
                        predicate=goal.predicate,
                        adorned=_adorned_text(result, goal),
                    )
                continue
            expanded[key] = goal
            _expand_goal(goal, result, queue, tracer, trace_on)

        tree = QueryTree(roots=roots, adornment_result=result, expanded=expanded)
        _prune(tree)
        if trace_on:
            build_span.set(
                expanded_classes=len(expanded),
                shared=shared,
                surviving_roots=sum(
                    1 for root in roots if root.productive and root.reachable
                ),
                pruned_classes=sum(
                    1
                    for node in expanded.values()
                    if not (node.productive and node.reachable)
                ),
            )
    return tree


def _adorned_text(result: AdornmentResult, goal) -> str:
    """Compact adorned-predicate name of a goal for trace attributes."""
    if goal.adornment is None:
        return goal.predicate
    try:
        return result.adorned_name(goal.predicate, goal.adornment)
    except (KeyError, AttributeError):
        return goal.predicate


def _expand_goal(goal, result, queue, tracer, trace_on):
    """Expand one goal class: attach a RuleNode per matching adorned rule."""
    assert goal.adornment is not None
    for adorned in result.rules_for(goal.predicate, goal.adornment):
        rule = adorned.rule.rename_apart(goal.atom.variables(), prefix="T")
        unifier = unify_atoms(rule.head, goal.atom)
        if unifier is None:
            continue
        instance = rule.substitute(unifier)
        if not OrderConstraintSet(instance.order_atoms).is_satisfiable():
            continue
        # The adorned rule structures (derivations, sigma) are stated
        # in terms of the *original* rule variables; recover the
        # positional correspondence through the positive literals.
        renamed_adorned = _rename_adorned(adorned, rule)
        rule_label, subgoal_labels = _push_labels(
            goal, renamed_adorned, result.frontiers
        )
        rule_node = RuleNode(adorned=renamed_adorned, instance=instance, label=rule_label)
        for i, literal in enumerate(instance.positive_literals):
            sub_adornment = renamed_adorned.subgoal_adornments[i]
            # A child's label refines its adornment: every mapping
            # into the subtree is a mapping into the whole derivation,
            # so the adornment triplets always belong to the label,
            # alongside the triplets pushed down from the parent.
            label = subgoal_labels[i]
            if sub_adornment is not None:
                label = label | sub_adornment
            child = GoalNode(
                predicate=literal.predicate,
                atom=literal.atom,
                adornment=sub_adornment,
                label=label,
                is_edb=sub_adornment is None,
            )
            rule_node.subgoals.append(child)
            if not child.is_edb:
                queue.append(child)
        for literal in instance.negative_literals:
            rule_node.subgoals.append(
                GoalNode(
                    predicate=literal.predicate,
                    atom=literal.atom,
                    adornment=None,
                    label=frozenset(),
                    is_edb=True,
                    negative=True,
                )
            )
        goal.children.append(rule_node)
    if trace_on:
        tracer.event(
            "querytree.expand",
            predicate=goal.predicate,
            adorned=_adorned_text(result, goal),
            rules=len(goal.children),
            label_size=len(goal.label),
        )


def _rename_adorned(adorned: AdornedRule, renamed_rule: Rule) -> AdornedRule:
    """Re-express an adorned rule over the renamed-apart rule variables."""
    if renamed_rule is adorned.rule:
        return adorned
    mapping: dict[Term, Term] = {}
    for old_lit, new_lit in zip(
        adorned.rule.positive_literals, renamed_rule.positive_literals
    ):
        for old_arg, new_arg in zip(old_lit.args, new_lit.args):
            mapping[old_arg] = new_arg
    for old_arg, new_arg in zip(adorned.rule.head.args, renamed_rule.head.args):
        mapping[old_arg] = new_arg

    def rename_term(term: Term) -> Term:
        return mapping.get(term, term)

    derivations = tuple(
        type(d)(
            d.ic,
            d.unmapped,
            tuple((name, rename_term(t)) for name, t in d.rule_sigma),
            d.contributors,
        )
        for d in adorned.derivations
    )
    return AdornedRule(
        rule=renamed_rule,
        rule_index=adorned.rule_index,
        head_adornment=adorned.head_adornment,
        subgoal_adornments=adorned.subgoal_adornments,
        derivations=derivations,
        head_triplet_origins=adorned.head_triplet_origins,
    )


# ----------------------------------------------------------------------
# Pruning: productivity and reachability
# ----------------------------------------------------------------------
def _prune(tree: QueryTree) -> None:
    goals = list(tree.all_goal_nodes())
    changed = True
    while changed:
        changed = False
        for goal in goals:
            if goal.productive:
                continue
            if goal.is_edb:
                goal.productive = True
            elif goal.reference is not None:
                goal.productive = goal.reference.productive
            else:
                for rule_node in goal.children:
                    if all(sub.resolved().productive or sub.is_edb for sub in rule_node.subgoals):
                        rule_node.productive = True
                if any(r.productive for r in goal.children):
                    goal.productive = True
            if goal.productive:
                changed = True
        # Rule-node productivity may lag goal updates; refresh once more.
        for goal in goals:
            for rule_node in goal.children:
                if not rule_node.productive and all(
                    sub.resolved().productive or sub.is_edb
                    for sub in rule_node.subgoals
                ):
                    rule_node.productive = True
                    changed = True

    # Reachability from the roots through productive rule nodes only.
    stack = [root for root in tree.roots if root.productive]
    while stack:
        goal = stack.pop()
        goal = goal.resolved()
        if goal.reachable:
            continue
        goal.reachable = True
        for rule_node in goal.children:
            if not rule_node.productive:
                continue
            rule_node.reachable = True
            for subgoal in rule_node.subgoals:
                target = subgoal.resolved()
                if target.is_edb:
                    subgoal.reachable = True
                    target.reachable = True
                    continue
                if not target.reachable:
                    stack.append(target)
                if subgoal is not target:
                    subgoal.reachable = True
