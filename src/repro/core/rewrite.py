"""The end-to-end semantic query optimizer (Theorems 4.1 and 4.2).

:func:`optimize` rewrites a Datalog program into one that *completely
incorporates* its integrity constraints:

1. classify the ic's — plain and fully-local ic's drive the query-tree
   machinery; non-local ic's (undecidable fragment, Theorems 5.3-5.5)
   are excluded from it but still feed the sound per-rule residue
   injection (Example 3.1 is exactly such a case);
2. transfer local order/negated atoms into the rules (Section 4.2 case
   splits) and build the retention index;
3. run the [LMSS93]-style order propagation preprocessing;
4. bottom-up adornments, top-down query tree, pruning;
5. extract the rewritten program ``P'`` from the surviving rule nodes,
   naming adorned predicates ``p_1, p_2, ...``.  A query predicate with
   one surviving class keeps its own name for that class; one with
   several is bridged over them by renaming rules ``p(V̄) :- p_k(V̄).``,
   which make it a union view: evaluation reads it as the union of its
   classes and copies no row (:attr:`Program.union_views`);
6. inject single-literal residue negations (CGM88) into the rules of
   ``P'``, then read an EDB relation directly wherever an IDB predicate
   only renamed it (``sg_1`` → ``sibling``).

The :class:`OptimizationReport` carries every intermediate artifact so
examples and benchmarks can show the whole story.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..constraints.integrity import IntegrityConstraint, check_no_idb
from ..constraints.locality import is_fully_local
from ..observability.trace import get_tracer
from ..robustness.budget import Budget, CancellationToken, Governor
from ..robustness.errors import abort_phase
from ..datalog.atoms import Atom, Literal
from ..datalog.database import Database, Row
from ..datalog.evaluation import EvaluationResult, evaluate
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Substitution, Variable
from .adornments import AdornmentResult, compute_adornments
from .local_atoms import LocalAtomPlan, prepare_local_atoms
from .order_propagation import propagate_order_constraints
from .querytree import GoalNode, QueryTree, RuleNode, build_query_tree
from .residues import _constrain_shapes

__all__ = ["OptimizationReport", "optimize"]


@dataclass
class OptimizationReport:
    """All artifacts of one optimization run."""

    original: Program
    constraints: tuple[IntegrityConstraint, ...]
    tree_constraints: tuple[IntegrityConstraint, ...]
    residue_only_constraints: tuple[IntegrityConstraint, ...]
    preprocessed: Program
    adornment_result: AdornmentResult
    tree: QueryTree
    program: Program | None
    satisfiable: bool
    complete: bool
    predicate_names: dict[tuple, str] = field(default_factory=dict)

    def evaluate(
        self,
        database: Database,
        *,
        budget: "Budget | Governor | None" = None,
        cancellation: CancellationToken | None = None,
    ) -> frozenset[Row]:
        """Evaluate the rewritten program's query over a database."""
        result = self.evaluation(database, budget=budget, cancellation=cancellation)
        return frozenset() if result is None else result.query_rows()

    def evaluation(
        self,
        database: Database,
        *,
        budget: "Budget | Governor | None" = None,
        cancellation: CancellationToken | None = None,
    ) -> EvaluationResult | None:
        if self.program is None:
            return None
        return evaluate(
            self.program, database, budget=budget, cancellation=cancellation
        )

    def render_tree(self) -> str:
        return self.tree.render()

    def summary(self) -> str:
        lines = [
            f"original rules: {len(self.original.rules)}",
            f"rewritten rules: {0 if self.program is None else len(self.program.rules)}",
            f"query satisfiable: {self.satisfiable}",
            f"complete incorporation: {self.complete}",
        ]
        if self.residue_only_constraints:
            lines.append(
                "non-local constraints handled by residue injection only: "
                + "; ".join(repr(ic) for ic in self.residue_only_constraints)
            )
        return "\n".join(lines)

    def explain(self) -> str:
        """A full, human-readable account of the optimization run."""
        from .adornments import prune_redundant

        sections: list[str] = []
        sections.append("== Original program ==\n" + repr(self.original))
        sections.append(
            "== Integrity constraints ==\n"
            + "\n".join(repr(ic) for ic in self.constraints)
        )
        if self.residue_only_constraints:
            sections.append(
                "== Non-local constraints (residue injection only) ==\n"
                + "\n".join(repr(ic) for ic in self.residue_only_constraints)
            )
        if self.preprocessed.rules != self.original.rules:
            sections.append(
                "== After local-atom splits and order propagation ==\n"
                + repr(self.preprocessed)
            )
        adornment_lines: list[str] = []
        result = self.adornment_result
        for predicate in sorted(result.adornments):
            for adornment in result.adornments[predicate]:
                name = result.adorned_name(predicate, adornment)
                residues = sorted(
                    triplet.render(result.constraints)
                    for triplet in prune_redundant(adornment)
                    if not triplet.is_trivial()
                )
                adornment_lines.append(f"{name}: {residues if residues else '(trivial)'}")
        if adornment_lines:
            sections.append("== Adornments ==\n" + "\n".join(adornment_lines))
        if self.tree.roots:
            sections.append("== Query tree ==\n" + self.tree.render())
        if self.program is not None:
            rewritten = repr(self.program)
            for view, members in self.program.union_views.items():
                rewritten += (
                    f"\n% {view} is read as the union of {', '.join(members)}"
                )
            sections.append("== Rewritten program P' ==\n" + rewritten)
        else:
            sections.append(
                "== Rewritten program P' ==\n(empty: the query is unsatisfiable "
                "with respect to the constraints)"
            )
        sections.append("== Summary ==\n" + self.summary())
        return "\n\n".join(sections)


def _class_nodes(tree: QueryTree) -> dict[tuple, GoalNode]:
    """Surviving expanded goal-node classes, keyed by class identity."""
    classes: dict[tuple, GoalNode] = {}
    for goal in tree.all_goal_nodes():
        node = goal.resolved()
        if node.is_edb or not (node.productive and node.reachable):
            continue
        classes.setdefault(node.class_key(), node)
    return classes


def _assign_names(
    classes: dict[tuple, GoalNode], tree: QueryTree, query: str
) -> dict[tuple, str]:
    """Stable names ``p_1, p_2, ...`` per predicate, avoiding collisions.

    When the query predicate has a single surviving root class, that
    class is named after the query predicate itself: it *is* the
    query's relation, so no bridge rule has to copy it.
    """
    roots = {root.resolved().class_key() for root in tree.surviving_roots()}
    taken = set(tree.adornment_result.program.idb_predicates)
    taken |= set(tree.adornment_result.program.edb_predicates)
    by_predicate: dict[str, list[tuple]] = {}
    for key in classes:
        by_predicate.setdefault(key[0], []).append(key)
    names: dict[tuple, str] = {}
    for predicate in sorted(by_predicate):
        keys = by_predicate[predicate]
        keys.sort(key=lambda k: (
            tree.adornment_result.adornment_ids.get((predicate, k[1]), 0),
            repr(k[2]),
        ))
        for index, key in enumerate(keys, start=1):
            candidate = f"{predicate}_{index}"
            while candidate in taken:
                candidate += "x"
            taken.add(candidate)
            names[key] = candidate
    if len(roots) == 1 and roots <= names.keys():
        names[roots.pop()] = query
    return names


def _rules_from_tree(
    tree: QueryTree, names: dict[tuple, str], query: str, arity: int
) -> list[Rule]:
    """One rule per surviving rule node, deduplicated canonically."""
    rules: list[Rule] = []
    seen: set[tuple] = set()
    classes = _class_nodes(tree)
    for key, node in classes.items():
        head_name = names[key]
        for rule_node in node.children:
            if not (rule_node.productive and rule_node.reachable):
                continue
            new_rule = _render_rule_node(rule_node, head_name, names)
            if new_rule is None:
                continue
            canon = _canonical_rule_key(new_rule)
            if canon not in seen:
                seen.add(canon)
                rules.append(new_rule)
    # Bridge the query predicate over its surviving root classes (a
    # single one already carries the query predicate's name).
    bridge_args = tuple(Variable(f"V{i}") for i in range(arity))
    for root in tree.surviving_roots():
        key = root.resolved().class_key()
        name = names.get(key)
        if name is None or name == query:
            continue
        rules.append(
            Rule(Atom(query, bridge_args), (Literal(Atom(name, bridge_args)),))
        )
    return rules


def _render_rule_node(
    rule_node: RuleNode, head_name: str, names: dict[tuple, str]
) -> Rule | None:
    instance = rule_node.instance
    body: list = []
    positive_index = 0
    for item in instance.body:
        if isinstance(item, Literal) and item.positive:
            subgoal = rule_node.subgoals[positive_index].resolved()
            positive_index += 1
            if subgoal.is_edb:
                body.append(item)
            else:
                name = names.get(subgoal.class_key())
                if name is None:
                    return None  # subgoal class was pruned
                body.append(Literal(Atom(name, item.args)))
        else:
            body.append(item)
    return Rule(Atom(head_name, instance.head.args), tuple(body))


def _inline_edb_renamings(program: Program) -> Program:
    """Read an EDB relation where ``P'`` only renamed it.

    An IDB predicate other than the query whose only rule is an
    identity renaming of an EDB relation (``sg_1(XP, YP) :-
    sibling(XP, YP).``) is that relation: the rule goes and the bodies
    read the relation itself.  Repeated until no such predicate is left.
    """
    rules = program.rules
    while True:
        heads = Counter(rule.head.predicate for rule in rules)
        alias = {}
        for rule in rules:
            head, member = rule.head.predicate, rule.renamed_predicate()
            if (
                member is not None
                and member not in heads
                and heads[head] == 1
                and head != program.query
            ):
                alias[head] = member
        if not alias:
            break
        rules = tuple(dict.fromkeys(
            Rule(rule.head, tuple(
                Literal(Atom(alias[item.predicate], item.args), item.positive)
                if isinstance(item, Literal) and item.predicate in alias
                else item
                for item in rule.body
            ))
            for rule in rules
            if rule.head.predicate not in alias
        ))
    if rules is program.rules:
        return program
    return Program(rules, program.query, validate=False)


def _canonical_rule_key(rule: Rule) -> tuple:
    mapping: dict[Variable, int] = {}

    def term_key(term) -> object:
        if isinstance(term, Variable):
            return ("v", mapping.setdefault(term, len(mapping)))
        return ("c", repr(term))

    key: list = [rule.head.predicate, tuple(term_key(t) for t in rule.head.args)]
    for item in rule.body:
        if isinstance(item, Literal):
            key.append(
                (item.predicate, item.positive, tuple(term_key(t) for t in item.args))
            )
        else:
            key.append((item.op, term_key(item.left), term_key(item.right)))
    return tuple(key)


def optimize(
    program: Program,
    constraints: Iterable[IntegrityConstraint],
    *,
    inject_residues: bool = True,
    propagate_orders: bool = True,
    max_adornments: int = 4096,
    budget: "Budget | Governor | None" = None,
    cancellation: CancellationToken | None = None,
) -> OptimizationReport:
    """Rewrite ``program`` to completely incorporate ``constraints``.

    Returns an :class:`OptimizationReport`; ``report.program`` is the
    rewritten program (``None`` when the query predicate is
    unsatisfiable under the constraints, i.e. the rewriting is empty).
    ``report.complete`` is True when every constraint went through the
    query-tree machinery (all fully local); otherwise the non-local
    constraints were used only for sound residue injection.

    With a ``budget`` (a :class:`~repro.robustness.budget.Budget` or a
    shared running :class:`~repro.robustness.budget.Governor`) or a
    ``cancellation`` token the run is governed: a tripped limit, a fired
    token or an injected fault raises the matching
    :class:`~repro.robustness.errors.EvaluationAborted` with ``phase``
    set.  There is no partial rewrite — the caller gets ``P'`` or the
    typed abort.
    """
    constraints = tuple(constraints)
    governor = Governor.of(budget, cancellation)
    if program.query is None:
        raise ValueError("optimize() needs a program with a query predicate")
    check_no_idb(constraints, program)
    tracer = get_tracer()
    trace_on = tracer.enabled
    with abort_phase("optimize"), tracer.span(
        "optimize",
        query=program.query,
        rules=len(program.rules),
        constraints=len(constraints),
    ) as opt_span:
        tree_side: list[IntegrityConstraint] = []
        residue_side: list[IntegrityConstraint] = []
        for ic in constraints:
            (tree_side if is_fully_local(ic) else residue_side).append(ic)
        if trace_on:
            opt_span.set(
                tree_constraints=len(tree_side),
                residue_only_constraints=len(residue_side),
            )

        if governor is not None:
            governor.check("optimize")
        with tracer.span("optimize.local_atoms") as span:
            plan: LocalAtomPlan = prepare_local_atoms(program, tree_side)
            working = plan.program
            if trace_on:
                span.set(rules_after_splits=len(working.rules))
        if propagate_orders:
            with tracer.span("optimize.order_propagation"):
                working = propagate_order_constraints(working).program
        if governor is not None:
            governor.check("optimize")
        working = working.relevant_rules()
        if not working.rules_for(program.query):
            # The preprocessing already proved the query underivable.
            if trace_on:
                tracer.event("optimize.preprocessing_empty", query=program.query)
            empty_adornments = compute_adornments(working, tree_side)
            empty_tree = QueryTree(
                roots=[], adornment_result=empty_adornments, expanded={}
            )
            return OptimizationReport(
                original=program,
                constraints=constraints,
                tree_constraints=tuple(tree_side),
                residue_only_constraints=tuple(residue_side),
                preprocessed=working,
                adornment_result=empty_adornments,
                tree=empty_tree,
                program=None,
                satisfiable=False,
                complete=not residue_side,
            )

        with tracer.span("optimize.adornments") as span:
            adornment_result = compute_adornments(
                working,
                tree_side,
                local_index=plan.index,
                max_adornments=max_adornments,
                budget=governor,
            )
            if trace_on:
                span.set(
                    adornments=sum(len(v) for v in adornment_result.adornments.values()),
                    adorned_rules=len(adornment_result.adorned_rules),
                    inconsistencies=len(adornment_result.inconsistencies),
                )
        with tracer.span("optimize.query_tree") as span:
            tree = build_query_tree(adornment_result, budget=governor)
            if trace_on:
                span.set(
                    roots=len(tree.roots),
                    surviving_roots=len(tree.surviving_roots()),
                    expanded_classes=len(tree.expanded),
                )

        query = program.query
        arity = program.arity_of(query)
        with tracer.span("optimize.extract") as span:
            classes = _class_nodes(tree)
            names = _assign_names(classes, tree, query)
            rules = _rules_from_tree(tree, names, query, arity)
            satisfiable = tree.is_query_satisfiable()
            if trace_on:
                span.set(surviving_classes=len(classes), extracted_rules=len(rules))

        rewritten: Program | None
        if not satisfiable or not rules:
            rewritten = None
        else:
            rewritten = Program(rules, query, validate=False)
            if propagate_orders:
                # Rerun the order propagation now that the tree has
                # specialized the predicates: projections that were washed
                # out by the pre-split disjunction (e.g. path starting below
                # vs. at-or-above a threshold) become precise and prune the
                # query-unreachable specializations, yielding the paper's
                # r1'/r2' shape.  Iterate to a fixpoint: pruning sharpens
                # the projections, which may prune further.
                with tracer.span("optimize.repropagation") as span:
                    rounds = 0
                    previous: tuple[Rule, ...] | None = None
                    while rewritten is not None and previous != rewritten.rules:
                        rounds += 1
                        previous = rewritten.rules
                        propagated = propagate_order_constraints(rewritten).program
                        if not propagated.rules_for(query):
                            rewritten = None
                            satisfiable = False
                            break
                        rewritten = Program(
                            propagated.rules, query, validate=False
                        ).relevant_rules()
                    if trace_on:
                        span.set(
                            rounds=rounds,
                            rules=0 if rewritten is None else len(rewritten.rules),
                        )
            if rewritten is not None and inject_residues:
                with tracer.span("optimize.residues") as span:
                    body_atoms_before = sum(len(r.body) for r in rewritten.rules)
                    rewritten, checked = _constrain_shapes(rewritten, constraints)
                    if trace_on:
                        span.set(
                            checked=checked,
                            injected=sum(len(r.body) for r in rewritten.rules)
                            - body_atoms_before,
                        )
                    if not rewritten.rules_for(query):
                        rewritten = None
                        satisfiable = False
            if rewritten is not None:
                rewritten = _inline_edb_renamings(rewritten)

        if trace_on:
            opt_span.set(
                satisfiable=satisfiable,
                rewritten_rules=0 if rewritten is None else len(rewritten.rules),
            )
    return OptimizationReport(
        original=program,
        constraints=constraints,
        tree_constraints=tuple(tree_side),
        residue_only_constraints=tuple(residue_side),
        preprocessed=working,
        adornment_result=adornment_result,
        tree=tree,
        program=rewritten,
        satisfiable=satisfiable,
        complete=not residue_side,
        predicate_names=names,
    )
