"""The optimization pipeline: semantic rewrite ∘ magic sets, either order.

The paper's rewrite prunes derivations that violate the integrity
constraints; magic sets prune derivations the query atom never demands.
The two compose (cf. Alviano et al., "Enhancing magic sets with an
application to ontological reasoning"), and :func:`run_pipeline` chains
them in either order:

* ``semantic-first`` — rewrite ``P`` into ``P'`` with
  :func:`repro.core.rewrite.optimize`, then magic-transform ``P'``.
  The magic adornment then propagates through the *specialized*
  predicates, so constraint-pruned rules never generate demand.  This
  is the default and usually the stronger order: the semantic rewrite
  may prove whole adornment classes unsatisfiable, and residue
  selections (order atoms) tighten magic prefixes.
* ``magic-first`` — magic-transform ``P``, then run the semantic
  rewrite over the guarded program.  Wins when demand is so selective
  that most constraint-specialized predicates would never be reached
  anyway; the semantic pass then only pays for the demanded fragment.
* ``magic-only`` / ``semantic-only`` — single-stage baselines, used by
  the benchmarks and ablations.

Equivalence: on databases *consistent* with the constraints, every
pipeline order computes the same answers to the query atom as the
original program.  :func:`check_equivalence` /
:func:`assert_equivalent` evaluate original vs. transformed programs on
a database and compare answers (and work counters).

One outcome: :func:`run_pipeline` returns a :class:`PipelineReport` for
the complete pipeline, or a governed run raises the
:class:`~repro.robustness.errors.EvaluationAborted` that stopped it.
A report answers the goal it was compiled for; another goal compiles
its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..constraints.integrity import IntegrityConstraint
from ..core.rewrite import OptimizationReport, optimize
from ..datalog.atoms import Atom
from ..datalog.database import Database, Row
from ..datalog.evaluation import EvaluationResult, EvaluationStats, evaluate
from ..datalog.program import Program, ProgramError
from ..observability.trace import get_tracer
from ..robustness.budget import Budget, CancellationToken, Governor
from ..robustness.errors import abort_phase
from .transform import MagicProgram, magic_transform, match_query_atom

__all__ = [
    "PIPELINE_ORDERS",
    "PipelineStage",
    "PipelineReport",
    "run_pipeline",
    "query_atom_answers",
    "EquivalenceCheck",
    "check_equivalence",
    "assert_equivalent",
]

#: Valid stage orderings.
PIPELINE_ORDERS = ("semantic-first", "magic-first", "magic-only", "semantic-only")


@dataclass(frozen=True)
class PipelineStage:
    """One applied stage: its name and the program it produced."""

    name: str
    program: Program | None
    detail: str = ""


@dataclass
class PipelineReport:
    """Everything one pipeline run produced."""

    original: Program
    query_atom: Atom
    constraints: tuple[IntegrityConstraint, ...]
    order: str
    stages: tuple[PipelineStage, ...]
    semantic_report: OptimizationReport | None
    magic: MagicProgram | None
    program: Program | None
    satisfiable: bool = True

    @property
    def answer_predicate(self) -> str | None:
        """The predicate of the final program holding the answers."""
        return None if self.program is None else self.program.query

    def evaluation(
        self,
        database: Database,
        *,
        budget: "Budget | Governor | None" = None,
        cancellation: CancellationToken | None = None,
    ) -> EvaluationResult | None:
        """Evaluate the final program over ``database`` (``None`` when
        the query is unsatisfiable)."""
        if self.program is None:
            return None
        return evaluate(
            self.program, database, budget=budget, cancellation=cancellation
        )

    def answers(self, database: Database) -> frozenset[Row]:
        """The final program's answers to the query atom over ``database``."""
        result = self.evaluation(database)
        if result is None:
            return frozenset()
        return frozenset(
            row for row in result.query_rows()
            if match_query_atom(row, self.query_atom)
        )

    def summary(self) -> str:
        lines = [
            f"pipeline order: {self.order}",
            f"query atom: {self.query_atom}",
            f"original rules: {len(self.original.rules)}",
        ]
        for stage in self.stages:
            size = "empty" if stage.program is None else f"{len(stage.program.rules)} rules"
            detail = f" — {stage.detail}" if stage.detail else ""
            lines.append(f"after {stage.name}: {size}{detail}")
        if self.program is None:
            lines.append("final program: empty (query unsatisfiable)")
        else:
            lines.append(
                f"final program: {len(self.program.rules)} rules, "
                f"answers in {self.program.query}"
            )
        return "\n".join(lines)


def _as_query_program(program: Program, query_atom: Atom) -> Program:
    if query_atom.predicate not in program.idb_predicates:
        raise ProgramError(
            f"query atom {query_atom} does not use an IDB predicate of the program"
        )
    if program.query != query_atom.predicate:
        program = program.with_query(query_atom.predicate)
    return program


def run_pipeline(
    program: Program,
    constraints: Iterable[IntegrityConstraint],
    query_atom: Atom,
    *,
    order: str = "semantic-first",
    budget: "Budget | Governor | None" = None,
    cancellation: CancellationToken | None = None,
) -> PipelineReport:
    """Chain the semantic rewrite and the magic transform in ``order``.

    Returns a :class:`PipelineReport`; ``report.program`` is ``None``
    when the semantic stage proves the query unsatisfiable under the
    constraints.

    A ``budget`` (or a shared running
    :class:`~repro.robustness.budget.Governor`) or a ``cancellation``
    token governs every stage: a tripped limit, a fired token or an
    injected fault raises its
    :class:`~repro.robustness.errors.EvaluationAborted` with ``phase``
    set, and no report is returned.
    """
    if order not in PIPELINE_ORDERS:
        raise ValueError(
            f"unknown pipeline order {order!r} (valid: {', '.join(PIPELINE_ORDERS)})"
        )
    constraints = tuple(constraints)
    governor = Governor.of(budget, cancellation)
    program = _as_query_program(program, query_atom)

    tracer = get_tracer()
    trace_on = tracer.enabled

    stages: list[PipelineStage] = []
    semantic_report: OptimizationReport | None = None
    magic: MagicProgram | None = None
    current: Program | None = program
    current_atom = query_atom

    def run_semantic() -> None:
        nonlocal current, semantic_report
        assert current is not None
        rules_in = len(current.rules)
        with tracer.span("pipeline.stage", stage="semantic rewrite") as stage_span:
            semantic_report = optimize(current, constraints, budget=governor)
            current = semantic_report.program
            if trace_on:
                stage_span.set(
                    rules_in=rules_in,
                    rules_out=0 if current is None else len(current.rules),
                    satisfiable=current is not None,
                )
        detail = "unsatisfiable" if current is None else (
            "complete" if semantic_report.complete else "residues only for non-local ic's"
        )
        stages.append(PipelineStage("semantic rewrite", current, detail))

    def run_magic() -> None:
        nonlocal current, magic, current_atom
        assert current is not None
        rules_in = len(current.rules)
        with tracer.span("pipeline.stage", stage="magic transform") as stage_span:
            magic = magic_transform(current, current_atom)
            current = magic.program
            if trace_on:
                stage_span.set(
                    rules_in=rules_in,
                    rules_out=len(current.rules),
                    magic_predicates=len(magic.magic_names),
                )
        # Later stages answer through the adorned query predicate; the
        # answer rows still line up positionally with the query atom.
        current_atom = Atom(magic.answer_predicate, query_atom.args)
        stages.append(
            PipelineStage(
                "magic transform",
                current,
                f"seed {magic.seed.head}",
            )
        )

    plan = {
        "semantic-first": (run_semantic, run_magic),
        "magic-first": (run_magic, run_semantic),
        "magic-only": (run_magic,),
        "semantic-only": (run_semantic,),
    }[order]
    with abort_phase("pipeline"), tracer.span(
        "pipeline", order=order, query=str(query_atom), rules=len(program.rules)
    ) as pipeline_span:
        for stage in plan:
            if current is None:
                break
            if governor is not None:
                governor.check("pipeline")
            stage()
        if trace_on:
            pipeline_span.set(
                stages=len(stages),
                satisfiable=current is not None,
                final_rules=0 if current is None else len(current.rules),
            )

    return PipelineReport(
        original=program,
        query_atom=query_atom,
        constraints=constraints,
        order=order,
        stages=tuple(stages),
        semantic_report=semantic_report,
        magic=magic,
        program=current,
        satisfiable=current is not None,
    )


def query_atom_answers(
    program: Program,
    database: Database,
    query_atom: Atom,
    *,
    budget: "Budget | Governor | None" = None,
) -> tuple[frozenset[Row], EvaluationResult]:
    """Evaluate ``program`` and select the rows matching ``query_atom``."""
    program = _as_query_program(program, query_atom)
    result = evaluate(program, database, budget=budget)
    rows = frozenset(
        row for row in result.query_rows() if match_query_atom(row, query_atom)
    )
    return rows, result


@dataclass(frozen=True)
class EquivalenceCheck:
    """The outcome of comparing original vs. transformed query answers."""

    equivalent: bool
    query_atom: Atom
    original_answers: frozenset[Row]
    transformed_answers: frozenset[Row]
    original_stats: EvaluationStats
    transformed_stats: EvaluationStats

    @property
    def missing(self) -> frozenset[Row]:
        """Answers the transformation lost."""
        return self.original_answers - self.transformed_answers

    @property
    def extra(self) -> frozenset[Row]:
        """Answers the transformation invented."""
        return self.transformed_answers - self.original_answers

    def work_summary(self) -> str:
        o, t = self.original_stats, self.transformed_stats
        return (
            f"original: {o.facts_derived} facts, {o.probes} probes, "
            f"{o.rows_scanned} rows scanned | "
            f"transformed: {t.facts_derived} facts, {t.probes} probes, "
            f"{t.rows_scanned} rows scanned"
        )


def check_equivalence(
    original: Program,
    transformed: Program | PipelineReport | MagicProgram | None,
    query_atom: Atom,
    database: Database,
    *,
    budget: "Budget | Governor | None" = None,
) -> EquivalenceCheck:
    """Evaluate both programs on ``database`` and compare query answers.

    ``transformed`` may be a plain program, a :class:`PipelineReport`,
    a :class:`MagicProgram`, or ``None`` (an empty rewriting: the
    transformed side answers nothing).  ``budget`` governs both
    evaluations (a shared governor bounds their combined wall time).
    """
    original_rows, original_result = query_atom_answers(
        original, database, query_atom, budget=budget
    )
    if isinstance(transformed, (PipelineReport, MagicProgram)):
        transformed = transformed.program
    transformed_rows: frozenset[Row] = frozenset()
    transformed_stats = EvaluationStats()
    if transformed is not None:
        result = evaluate(transformed, database, budget=budget)
        transformed_rows = frozenset(
            row for row in result.query_rows() if match_query_atom(row, query_atom)
        )
        transformed_stats = result.stats
    return EquivalenceCheck(
        equivalent=original_rows == transformed_rows,
        query_atom=query_atom,
        original_answers=original_rows,
        transformed_answers=transformed_rows,
        original_stats=original_result.stats,
        transformed_stats=transformed_stats,
    )


def assert_equivalent(
    original: Program,
    transformed: Program | PipelineReport | MagicProgram | None,
    query_atom: Atom,
    database: Database,
) -> EquivalenceCheck:
    """:func:`check_equivalence`, raising ``AssertionError`` on mismatch."""
    check = check_equivalence(original, transformed, query_atom, database)
    if not check.equivalent:
        raise AssertionError(
            f"transformed program changes the answers to {query_atom}: "
            f"missing {sorted(check.missing, key=repr)}, "
            f"extra {sorted(check.extra, key=repr)}"
        )
    return check
