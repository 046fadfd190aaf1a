"""Bottom-up evaluation: one fixpoint driver, seed x round executor.

The engine evaluates a :class:`~repro.datalog.program.Program` over a
:class:`~repro.datalog.database.Database` of EDB facts:

* One **fixpoint driver** (:class:`_Driver`) computes the IDB SCC by SCC
  in topological order of the dependency graph, with semi-naive (delta)
  rounds inside each SCC.  A run is a *seed* — cold (empty IDB) or
  ingest (the live relations of a prior complete fixpoint, extended in
  place from the EDB rows added since, seeded by differentiation) —
  and a *round executor*: local
  (:class:`_LocalExecutor`, in-process) or the sharded barrier of
  :mod:`repro.parallel.engine`.  :func:`evaluate`,
  :func:`~repro.parallel.engine.evaluate_sharded` and
  :meth:`repro.persist.Session.ingest` all enter through it, so IDB
  seeding, rule firing and the budget-trip handler exist
  once.  The tests check it against the independent model in
  ``perf/reference.py``, which shares no code with this package.
* Each rule's join runs on the **compiled slot-based engine** of
  :mod:`repro.datalog.plan`: each rule is compiled once per (rule,
  delta-position) into a plan over integer variable slots — each slot
  a local variable of the plan's generated kernel (no environment
  object, no per-row ``dict`` copies), probe keys and head/filter
  projections are precomputed position tuples, fully bound subgoals
  become zero-scan existence checks, hash indexes are fetched once per
  rule execution, and body literals are ordered by estimated scan cost
  (``relation size × SELECTIVITY^bound positions``).  A round's new
  rows are filed into the live relation — the one hash set they enter
  — and into that round's :class:`~repro.datalog.database.Frontier`,
  a list the next round walks.
* :class:`EvaluationStats` counts rule firings, index probes, rows
  scanned, facts derived, index builds and environment allocations —
  plus per-rule ``rows_scanned`` — the "join work" measures the
  benchmarks report when comparing transformed programs.
* The engine is instrumented with the tracer of
  :mod:`repro.observability.trace`: an ``evaluate`` span wraps the run,
  each SCC gets an ``scc`` span, each semi-naive round an ``iteration``
  event, every compiled plan a ``plan`` event (with the chosen join
  order), every lazily built hash index an ``index_build`` event, and
  every rule execution a ``rule`` span carrying its wall time plus the
  per-rule deltas of the work counters.  With the default disabled
  tracer none of this fires — the hot path pays one boolean check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

from ..observability.trace import Tracer, get_tracer
from ..robustness.budget import Budget, CancellationToken, Governor
from ..robustness.errors import EvaluationAborted
from .atoms import Literal
from .database import Database, Frontier, Relation, Row, UnionView
from .plan import DEFAULT_IDB_ESTIMATE, RulePlan, compile_rule
from .program import Program
from .rules import Rule

__all__ = [
    "EvaluationStats",
    "EvaluationResult",
    "evaluate",
    "evaluate_query",
]


@dataclass
class EvaluationStats:
    """Work counters accumulated during one evaluation.

    The scalar counters measure join work; ``rows_scanned_by_rule``
    attributes ``rows_scanned`` to the rule (by its ``repr``) that
    scanned them, so benchmarks can prove a plan change scans fewer
    rows per rule without enabling the tracer.
    """

    rule_firings: int = 0
    probes: int = 0
    rows_scanned: int = 0
    facts_derived: int = 0
    iterations: int = 0
    index_builds: int = 0
    env_allocations: int = 0
    intern_hits: int = 0
    budget_trips: int = 0
    worker_restarts: int = 0
    shards_redispatched: int = 0
    wall_time_seconds: float = 0.0
    rows_scanned_by_rule: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "EvaluationStats") -> None:
        # getattr with a default, not attribute access: ``other`` may be
        # a stats object deserialized from an older checkpoint that
        # predates newer counters (see :meth:`from_dict`).
        for name in _INT_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name, 0))
        # Wall-clock merges in integer nanoseconds: float ``+=`` is
        # commutative but not associative, so shard stats merged in
        # different orders could disagree in the last bits.  Integer
        # addition is exact, so any merge order yields the same float.
        self.wall_time_seconds = (
            round(self.wall_time_seconds * 1e9)
            + round(getattr(other, "wall_time_seconds", 0.0) * 1e9)
        ) / 1e9
        merged = self.rows_scanned_by_rule
        for key, value in getattr(other, "rows_scanned_by_rule", {}).items():
            merged[key] = merged.get(key, 0) + value
        # Keep the per-rule attribution sorted by rule key so the dict's
        # insertion order — and every JSON rendering of it — is
        # independent of the order shard stats arrived in.
        self.rows_scanned_by_rule = dict(sorted(merged.items()))

    def as_dict(self) -> dict[str, object]:
        """The counters as a plain dict (report tables, checkpoints, trace events)."""
        payload: dict[str, object] = {
            name: getattr(self, name) for name in _INT_COUNTERS
        }
        payload["wall_time_seconds"] = self.wall_time_seconds
        payload["rows_scanned_by_rule"] = dict(sorted(self.rows_scanned_by_rule.items()))
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EvaluationStats":
        """Rebuild stats from an :meth:`as_dict` payload, tolerantly.

        Checkpoints written by older versions predate newer counters
        (``budget_trips`` and ``wall_time_seconds`` arrived in PR 4, for
        instance): missing fields default to zero instead of raising
        ``KeyError``, and unknown fields written by *newer* versions are
        ignored, so stats survive both directions of a version skew.
        """
        stats = cls()
        for key in _INT_COUNTERS:
            setattr(stats, key, int(payload.get(key, 0)))  # type: ignore[call-overload]
        stats.wall_time_seconds = float(payload.get("wall_time_seconds", 0.0))  # type: ignore[arg-type]
        by_rule = payload.get("rows_scanned_by_rule", {})
        stats.rows_scanned_by_rule = {
            str(rule): int(count) for rule, count in by_rule.items()  # type: ignore[union-attr]
        }
        return stats

    def copy(self) -> "EvaluationStats":
        """An independent copy (checkpoints must not alias live counters)."""
        fresh = EvaluationStats()
        fresh.merge(self)
        return fresh

    def compare(self, other: "EvaluationStats") -> dict[str, float]:
        """Per-scalar-counter ratios ``other / self`` (1.0 when both are zero).

        The benchmarks report these as work ratios of a transformed
        program against its baseline: a ratio below 1.0 on
        ``facts_derived`` means the transformation derived fewer facts.
        Only the integer counters are compared: the per-rule breakdown
        is not a ratio and ``wall_time_seconds`` (a float) is too noisy
        to be a meaningful work ratio, so both are skipped.
        """
        ratios: dict[str, float] = {}
        mine = self.as_dict()
        theirs = other.as_dict()
        for key, value in mine.items():
            if not isinstance(value, int):
                continue
            # .get, not [] — ``other`` may have been loaded from an older
            # checkpoint whose as_dict lacked newer counters.
            other_value = theirs.get(key, 0)
            if value == 0:
                ratios[key] = 1.0 if other_value == 0 else float("inf")
            else:
                ratios[key] = other_value / value
        return ratios


#: The integer work counters, in declaration order — the one list
#: :meth:`~EvaluationStats.merge`, :meth:`~EvaluationStats.as_dict` and
#: :meth:`~EvaluationStats.from_dict` are derived from.
_INT_COUNTERS = tuple(f.name for f in fields(EvaluationStats) if f.type == "int")


@dataclass
class EvaluationResult:
    """The computed IDB plus statistics.

    ``idb`` holds the relations the fixpoint stored: one per IDB
    predicate but the union views, which :meth:`relation` reads from
    their members."""

    idb: dict[str, Relation]
    stats: EvaluationStats
    program: Program
    database: Database
    #: Sharded-evaluation report: per-worker task/CPU totals plus the
    #: modeled critical path — set by
    #: :func:`repro.parallel.engine.evaluate_sharded` only.
    shards: dict | None = None

    def relation(self, predicate: str) -> "Relation | UnionView":
        """The relation of any predicate of the program.

        An IDB predicate reads its computed relation, a union view
        (:attr:`Program.union_views`) the union of its members', and an
        EDB predicate the database's relation (empty if it holds none).
        """
        program = self.program
        members = program.union_views.get(predicate)
        if members is not None:
            parts = [self.relation(member) for member in members]
            return UnionView(program.arity_of(predicate), parts)
        rel = self.idb.get(predicate)
        if rel is not None:
            return rel
        try:
            arity = program.arity_of(predicate)
        except KeyError:
            raise KeyError(f"unknown predicate {predicate}") from None
        return self.database.relation(predicate, arity)

    def rows(self, predicate: str) -> frozenset[Row]:
        return self.relation(predicate).rows()

    def query_rows(self) -> frozenset[Row]:
        if self.program.query is None:
            raise ValueError("program has no query predicate")
        return self.rows(self.program.query)


# ----------------------------------------------------------------------
# The engine adapter: compiled plans (x two storage backends)
# ----------------------------------------------------------------------
class _SlotEngine:
    """The compiled slot-based engine (:mod:`repro.datalog.plan`).

    :meth:`make_plan` compiles (or fetches) a rule's plan and adds the
    ``plan`` trace event; :meth:`run` runs its kernel, returning the
    match count with the new head rows; :meth:`derive` inserts those
    rows — and the semi-naive sink delta — returning how many there
    were.  On a columnar database the kernels run over interner codes:
    the head rows they return are stored as they are.
    """

    def __init__(self, database: Database, idb, tracer: Tracer, plans=None):
        self.database = database
        self.idb = idb
        self.tracer = tracer
        self.trace_on = tracer.enabled
        #: (rule, delta position) -> compiled plan, when the caller keeps
        #: plans across runs (a session, between ingests); else ``None``.
        self.plans = plans
        self.interner = database.interner

    def make_plan(self, rule: Rule, delta_index: int | None) -> RulePlan:
        plans = self.plans
        plan = None if plans is None else plans.get((rule, delta_index))
        if plan is not None:
            return plan
        # ``compile_rule`` is looked up as this module's global on every
        # call: the perf harness times plan compilation by wrapping it.
        plan = compile_rule(rule, delta_index, size_of=self._size_of)
        if plans is not None:
            plans[rule, delta_index] = plan
        if self.trace_on:
            self.tracer.event(
                "plan",
                predicate=rule.head.predicate,
                rule=plan.rule_key,
                delta=plan.delta_predicate or "",
                steps=plan.describe(),
            )
        return plan

    def _size_of(self, literal: Literal) -> float:
        """Estimated relation size at plan-compile time.

        EDB sizes are exact; IDB relations still empty when the plan is
        compiled (recursive predicates) get a default guess."""
        rel = self.idb.get(literal.predicate)
        if rel is not None:
            return float(len(rel)) or float(DEFAULT_IDB_ESTIMATE)
        return float(len(self.database.relation(literal.predicate, literal.atom.arity)))

    def run(self, plan: RulePlan, relation_of, delta_relation, head_relation, stats, governor=None):
        return plan.run(
            relation_of,
            delta_relation,
            head_relation.all_rows(),
            stats,
            tracer=self.tracer if self.trace_on else None,
            governor=governor,
            interner=self.interner,
        )

    def derive(self, plan, results, head_relation, sink_delta, stats) -> int:
        fresh = results[1]
        if not fresh:
            return 0
        # Distinct and new already.  A renaming rule's set or list goes
        # in as it is (``set.update(set)`` reuses its hashes); a dict as
        # a list: ``set.update(dict)`` presizes the table and costs peak
        # memory.  The live relation is the one set that hashes them.
        rows = list(fresh) if type(fresh) is dict else fresh
        head_relation.add_fresh(rows)
        if sink_delta is not None:
            sink_delta[plan.rule.head.predicate].add_fresh(rows)
        stats.facts_derived += len(rows)
        return len(rows)


# ----------------------------------------------------------------------
# The fixpoint driver: one SCC/round loop, seed x round executor
# ----------------------------------------------------------------------
class _LocalExecutor:
    """The in-process round executor: fire a round's delta plans in turn.

    How a plan runs is the engine adapter's business
    (:class:`_SlotEngine`); an executor only
    decides *where* a round's plans run — here one after another in the
    calling process, in :class:`repro.parallel.engine._ShardedExecutor`
    across a worker fleet behind a barrier.
    """

    #: extra attributes of the run's ``evaluate`` span
    span_attrs: dict = {}

    def __init__(self, driver: "_Driver", plans=None):
        self.driver = driver
        self.eng = _SlotEngine(driver.database, driver.idb, driver.tracer, plans)
        self.plans: list = []

    def new_frontier(self, predicate: str) -> Frontier:
        """An empty frontier for one member of the current SCC."""
        return Frontier(self.driver.program.arity_of(predicate))

    def begin_scc(self, members: set[str], delta_rules) -> None:
        # Called after the SCC was seeded, so cost estimates see the
        # exit-layer IDB sizes; each (rule, delta-position) is compiled
        # exactly once per SCC.
        self.plans = [self.eng.make_plan(rule, pos) for _, rule, pos in delta_rules]

    def run_round(self, delta, new_delta, scc_index: int, iteration: int) -> None:
        for plan in self.plans:
            delta_rel = delta[plan.delta_predicate]
            if len(delta_rel):
                self.driver.fire_rule(plan, delta_rel, new_delta, scc_index, iteration)

    def report(self) -> "dict | None":
        """The ``EvaluationResult.shards`` payload (sharded runs only)."""
        return None


class _Driver:
    """The fixpoint driver (see the module docstring): seed x executor.

    The constructor applies the seed's state to the IDB and the
    cumulative stats — ``live`` is the ingest seed's prior complete
    fixpoint, whose relations (rows *and* maintained indexes) the
    driver adopts and extends in place.  The caller then builds a round
    executor over ``driver.idb`` and calls :meth:`run` (passing the
    added EDB rows as ``ingest`` for the ingest seed).
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        *,
        tracer: Tracer,
        governor: "Governor | None" = None,
        live: "EvaluationResult | None" = None,
    ):
        self.program = program
        self.database = database
        self.tracer = tracer
        self.trace_on = tracer.enabled
        self.governor = governor
        #: the governor's phase label ("ingest" under the ingest seed)
        self.phase = "evaluate"
        self.started = time.perf_counter()
        self.stats = stats = EvaluationStats()
        self.interner = interner = database.interner
        #: Ingest seed only: every frontier this run filled.  Each row it
        #: adds to a live relation is in exactly one of them, so they are
        #: what :meth:`discard_added` takes back after an abort.
        self.added: "list[dict[str, Frontier]] | None" = None
        if live is not None:
            stats.merge(live.stats)
            self.idb = idb = live.idb
            self.added = []
        else:
            views = program.union_views
            self.idb = idb = {
                pred: database.new_relation(program.arity_of(pred))
                for pred in program.idb_predicates
                if pred not in views
            }
        self.base_wall = stats.wall_time_seconds
        # intern_hits reports this run's dictionary re-use: the delta of
        # the interner's hit counter, on top of the live fixpoint's count.
        self.base_intern = stats.intern_hits
        self.hits0 = 0 if interner is None else interner.hits

        # A closure, not a method: a plan calls it per body literal.
        def relation_of(predicate: str, arity: int) -> Relation:
            rel = idb.get(predicate)
            return database.relation(predicate, arity) if rel is None else rel

        self.relation_of = relation_of

    # -- shared per-rule / per-round machinery -------------------------
    def check(self) -> None:
        if self.governor is not None:
            self.governor.check(self.phase, self.stats)

    def sync_intern_hits(self) -> None:
        if self.interner is not None:
            self.stats.intern_hits = (
                self.base_intern + self.interner.hits - self.hits0
            )

    def elapsed(self) -> float:
        return self.base_wall + (time.perf_counter() - self.started)

    def fire_rule(
        self,
        plan,
        delta_relation: "Relation | Frontier | None",
        sink_delta: "dict[str, Frontier] | None",
        scc_index: int | None,
        iteration: int | None,
    ) -> None:
        """Run one rule's join, record the results (into ``sink_delta``
        too, when given) and — when tracing — emit a ``rule`` span with
        the per-rule work deltas."""
        stats, eng = self.stats, self.eng
        rule = plan.rule
        head_relation = self.idb[rule.head.predicate]

        def run() -> None:
            rows_before = stats.rows_scanned
            results = eng.run(
                plan,
                self.relation_of,
                delta_relation,
                head_relation,
                stats,
                self.governor,
            )
            stats.rule_firings += results[0]
            key = plan.rule_key
            stats.rows_scanned_by_rule[key] = (
                stats.rows_scanned_by_rule.get(key, 0)
                + stats.rows_scanned
                - rows_before
            )
            eng.derive(plan, results, head_relation, sink_delta, stats)
            self.check()

        if not self.trace_on:
            run()
            return
        before = (
            stats.probes,
            stats.rows_scanned,
            stats.facts_derived,
            stats.rule_firings,
            stats.index_builds,
        )
        with self.tracer.span(
            "rule",
            predicate=rule.head.predicate,
            rule=plan.rule_key,
            scc=scc_index,
            iteration=iteration,
            delta=delta_relation is not None,
        ) as span:
            run()
            span.set(
                firings=stats.rule_firings - before[3],
                probes=stats.probes - before[0],
                rows_scanned=stats.rows_scanned - before[1],
                facts_derived=stats.facts_derived - before[2],
                index_builds=stats.index_builds - before[4],
            )

    def partial_result(self, shards: "dict | None") -> EvaluationResult:
        """The fixpoint so far: the final result, or an abort's partial."""
        self.sync_intern_hits()
        self.stats.wall_time_seconds = self.elapsed()
        return EvaluationResult(
            idb=self.idb,
            stats=self.stats,
            program=self.program,
            database=self.database,
            shards=shards,
        )

    # -- the run -------------------------------------------------------
    def run(
        self,
        executor,
        *,
        ingest: "Mapping[str, Sequence[Row]] | None" = None,
    ) -> EvaluationResult:
        """Drive the fixpoint to completion on ``executor``."""
        # The executor refers to the driver, never the reverse: without
        # a reference cycle a finished run is freed by refcount alone.
        self.eng = executor.eng
        stats, tracer = self.stats, self.tracer
        seed = "cold"
        if ingest is not None:
            seed = self.phase = "ingest"
        try:
            with tracer.span(
                "evaluate",
                rules=len(self.program.rules),
                seed=seed,
                **executor.span_attrs,
            ) as root:
                self._seminaive_sccs(executor, ingest)
                if self.trace_on:
                    root.set(
                        **{k: v for k, v in stats.as_dict().items() if isinstance(v, int)}
                    )
        except EvaluationAborted as exc:
            stats.budget_trips += 1
            partial = self.partial_result(executor.report())
            if self.added is not None:
                # The live relations go back to the prior fixpoint
                # (:meth:`discard_added`); the partial keeps its own rows.
                partial.idb = {pred: rel.copy() for pred, rel in self.idb.items()}
            if self.trace_on:
                tracer.event(
                    "budget.trip",
                    phase=exc.phase or self.phase,
                    limit=exc.limit or "",
                    facts_derived=stats.facts_derived,
                    iterations=stats.iterations,
                )
            raise exc.with_context(
                phase=self.phase, partial=partial, stats=stats
            ) from None
        return self.partial_result(executor.report())

    def discard_added(self) -> None:
        """Undo an aborted ingest: the live relations lose every row this
        run added and are the prior complete fixpoint again."""
        for frontier in self.added:
            for pred, rel in frontier.items():
                if len(rel):
                    # Stored rows: codes on columnar storage.
                    Relation.discard(self.idb[pred], rel.all_rows())

    def _seminaive_sccs(self, executor, ingest) -> None:
        """SCC by SCC in topological order; delta rounds inside each.

        A cold run fires a non-recursive SCC's rules once and seeds a
        recursive SCC from its exit rules.  An ingest run instead seeds
        *every* SCC by differentiation (Bancilhon–Ramakrishnan): ``changed`` carries,
        per predicate, the rows new since the prior fixpoint — first the
        ingested EDB rows, then each SCC's newly derived facts — and a
        rule fires once per positive body position whose predicate
        changed *outside* the SCC, with the changed rows as the delta
        there and current full relations elsewhere.  Any derivation
        using a new fact holds one at some body position, so it is
        reached by one of these firings or by the rounds that follow.
        """
        program, database, stats = self.program, self.database, self.stats
        tracer, eng = self.tracer, self.eng
        changed: "dict[str, Relation | Frontier] | None" = None
        if ingest is not None:
            changed = {}
            for pred, rows in ingest.items():
                rel = database.new_relation(database.relation(pred).arity)
                rel.extend(rows)
                changed[pred] = rel
        for scc_index, scc in enumerate(program.schedule):
            members, recursive, rules, exit_rules, delta_rules = scc
            self.check()
            with tracer.span(
                "scc",
                index=scc_index,
                members=",".join(sorted(members)),
                recursive=recursive,
            ):
                if changed is None and not recursive:
                    for rule in rules:
                        self.fire_rule(eng.make_plan(rule, None), None, None, scc_index, None)
                    continue
                delta = {pred: executor.new_frontier(pred) for pred in members}
                if changed is not None:
                    self.added.append(delta)
                iterations = 0
                if changed is None:
                    for rule in exit_rules:
                        self.fire_rule(eng.make_plan(rule, None), None, delta, scc_index, None)
                else:
                    # Each plan is compiled immediately before it fires,
                    # so its cost order reads the live relation sizes.
                    for rule in rules:
                        for pos, item in enumerate(rule.body):
                            if (
                                not isinstance(item, Literal)
                                or not item.positive
                                or item.predicate in members
                            ):
                                continue
                            outside = changed.get(item.predicate)
                            if outside is not None and len(outside):
                                self.fire_rule(
                                    eng.make_plan(rule, pos), outside, delta, scc_index, None
                                )
                executor.begin_scc(members, delta_rules)
                scc_new = None
                if changed is not None:
                    scc_new = {pred: executor.new_frontier(pred) for pred in members}
                    _absorb(scc_new, delta)
                while any(len(d) for d in delta.values()):
                    iterations += 1
                    stats.iterations += 1
                    self.check()
                    if self.trace_on:
                        tracer.event(
                            "iteration",
                            scc=scc_index,
                            index=iterations,
                            delta_in=sum(len(d) for d in delta.values()),
                        )
                    new_delta = {pred: executor.new_frontier(pred) for pred in members}
                    if changed is not None:
                        self.added.append(new_delta)
                    executor.run_round(delta, new_delta, scc_index, iterations)
                    delta = new_delta
                    if scc_new is not None:
                        _absorb(scc_new, delta)
                if scc_new is not None:
                    for pred in members:
                        if len(scc_new[pred]):
                            changed[pred] = scc_new[pred]


def _absorb(into: dict[str, Frontier], delta: dict[str, Frontier]) -> None:
    # A round's frontier holds rows new to the live relation, so none of
    # them is in ``into`` (the SCC's earlier frontiers) yet.
    for pred, rel in delta.items():
        into[pred].add_fresh(rel.all_rows())


def _evaluate_ingest(
    program: Program,
    database: Database,
    new_rows: "Mapping[str, Sequence[Row]]",
    live: EvaluationResult,
    *,
    plans: dict,
    tracer: Tracer,
    governor: "Governor | None",
    commit: "Callable[[], object] | None" = None,
) -> EvaluationResult:
    """The ingest seed's entry point (:class:`repro.persist.Session`).

    ``database`` already contains ``new_rows``; ``live`` is the complete
    fixpoint from before they were added.  Its relations are extended
    **in place** — nothing is copied or re-indexed, so the cost is the
    rows added and derived — and the returned result shares them (its
    stats are cumulative on ``live.stats``).  ``commit`` runs once the
    derivation is complete (the session journals the batch there).  A
    run that raises — in the derivation or in ``commit`` — takes its
    additions back first: ``live`` is then exactly the fixpoint it was.
    ``plans`` caches compiled plans between calls.  Internal on
    purpose: incremental maintenance is reached through a session,
    which owns the derive-then-journal ordering and the non-monotone
    fallback, not through :func:`evaluate`'s signature.
    """
    driver = _Driver(program, database, tracer=tracer, governor=governor, live=live)
    try:
        result = driver.run(_LocalExecutor(driver, plans), ingest=new_rows)
        if commit is not None:
            commit()
        return result
    except BaseException:
        driver.discard_added()
        raise


def evaluate(
    program: Program,
    database: Database,
    *,
    tracer: Tracer | None = None,
    budget: "Budget | Governor | None" = None,
    cancellation: CancellationToken | None = None,
) -> EvaluationResult:
    """Evaluate ``program`` bottom-up over ``database``.

    Returns an :class:`EvaluationResult` with the full IDB.

    There is one way to evaluate: semi-naive rounds over the compiled
    slot engine, body literals in cost order, in this process, in the
    database's own storage backend.  A columnar database (:meth:`~repro.datalog.database.Database.to_storage`)
    runs the same kernels over interner codes, and
    :func:`repro.parallel.evaluate_sharded` runs them across processes;
    both are reached by direct call only, reach the same fixpoint, and
    exist until the benchmark stops pricing them (``docs/storage.md``,
    ``docs/parallel.md``).  On codes every work counter but
    ``intern_hits`` equals the value run's.

    ``tracer`` overrides the globally installed tracer (see
    :func:`repro.observability.trace.tracing`); the default disabled
    tracer makes instrumentation free.

    ``budget`` (a :class:`~repro.robustness.budget.Budget`, or an
    already-running :class:`~repro.robustness.budget.Governor` shared
    with earlier phases) and ``cancellation`` make the run governed:
    limits are checked at SCC, round and rule boundaries and, inside a
    rule's join, at every stride of scanned rows (clock, token,
    ``max_facts`` and ``max_rows_scanned`` — a single explosive rule
    overshoots by at most a stride), and a violated limit raises
    :class:`~repro.robustness.errors.BudgetExceededError` (or
    :class:`~repro.robustness.errors.Cancelled`) carrying the partial
    fixpoint computed so far in ``exc.partial``.  Because negation is
    restricted to EDB predicates the program is monotone in its IDB, so
    the partial fixpoint is always a subset of the full one.
    """
    if tracer is None:
        tracer = get_tracer()
    driver = _Driver(
        program,
        database,
        tracer=tracer,
        governor=Governor.of(budget, cancellation),
    )
    return driver.run(_LocalExecutor(driver))


def evaluate_query(program: Program, database: Database) -> frozenset[Row]:
    """Convenience wrapper: evaluate and return the query relation's rows."""
    return evaluate(program, database).query_rows()
