"""Bottom-up evaluation: one fixpoint driver, seed x round executor.

The engine evaluates a :class:`~repro.datalog.program.Program` over a
:class:`~repro.datalog.database.Database` of EDB facts:

* One **fixpoint driver** (:class:`_Driver`) computes the IDB SCC by SCC
  in topological order of the dependency graph, with semi-naive (delta)
  rounds inside each SCC.  A run is a *seed* — cold (empty IDB), resume
  (the IDB, frontier and cursor of an :class:`EvaluationSnapshot`) or
  ingest (the live relations of a prior complete fixpoint, extended in
  place from the EDB rows added since, seeded by differentiation) —
  and a *round executor*: local
  (:class:`_LocalExecutor`, in-process) or the sharded barrier of
  :mod:`repro.parallel.engine`.  :func:`evaluate`,
  :func:`~repro.parallel.engine.evaluate_sharded` and
  :meth:`repro.persist.Session.ingest` all enter through it, so IDB
  seeding, rule firing, snapshots and the budget-trip handler exist
  once.  ``strategy="naive"`` is a short loop on the same driver, kept
  as the test oracle.
* Each rule's join runs on the **compiled slot-based engine** of
  :mod:`repro.datalog.plan`: each rule is compiled once per (rule,
  delta-position) into a plan over integer variable slots — the
  environment is a fixed-size list overwritten in place (no per-row
  ``dict`` copies), probe keys and head/filter projections are
  precomputed position tuples, fully bound subgoals become zero-scan
  existence checks, hash indexes are fetched once per rule execution,
  and body literals are ordered by estimated selectivity (relation
  size × bound-position count).  ``engine="interpreted"`` keeps the
  original tuple-at-a-time interpreter (greedy bound-count order) as
  the reference the tests compare against.
* :class:`EvaluationStats` counts rule firings, index probes, rows
  scanned, facts derived, index builds and environment allocations —
  plus per-rule ``rows_scanned`` — the "join work" measures the
  benchmarks report when comparing engines and transformed programs.
* The engine is instrumented with the tracer of
  :mod:`repro.observability.trace`: an ``evaluate`` span wraps the run,
  each SCC gets an ``scc`` span, each semi-naive round an ``iteration``
  event, every compiled plan a ``plan`` event (with the chosen join
  order), every lazily built hash index an ``index_build`` event, and
  every rule execution a ``rule`` span carrying its wall time plus the
  per-rule deltas of the work counters.  With the default disabled
  tracer none of this fires — the hot path pays one boolean check.
* With ``provenance=True`` the engine records, for each derived fact,
  the first rule instantiation that produced it; :func:`derivation_tree`
  then reconstructs a ground derivation tree in the paper's sense (goal
  nodes alternating with rule nodes, EDB literals at the leaves).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Mapping, Sequence

from ..observability.trace import Tracer, get_tracer
from ..robustness.budget import Budget, CancellationToken, Governor
from ..robustness.errors import EvaluationAborted
from .atoms import Atom, Literal, OrderAtom, evaluate_comparison
from .database import Database, Relation, Row
from .plan import DEFAULT_IDB_ESTIMATE, RulePlan, compile_rule, order_body_greedy
from .program import Program
from .rules import Rule
from .terms import Constant, Variable

__all__ = [
    "ENGINES",
    "EvaluationStats",
    "EvaluationResult",
    "EvaluationSnapshot",
    "DerivationNode",
    "evaluate",
    "evaluate_query",
    "derivation_tree",
]

#: Valid ``engine`` arguments of :func:`evaluate`.
ENGINES = ("slots", "interpreted")


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
    block_probes: int = 0
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

#: A ground fact key: (predicate, row of values).
Fact = tuple[str, Row]


@dataclass
class EvaluationResult:
    """The computed IDB plus statistics and (optionally) provenance."""

    idb: dict[str, Relation]
    stats: EvaluationStats
    program: Program
    database: Database
    provenance: dict[Fact, tuple[Rule, tuple[Fact, ...]]] | None = None
    #: Sharded-evaluation report: per-worker task/CPU totals plus the
    #: modeled critical path — set by
    #: :func:`repro.parallel.engine.evaluate_sharded` only.
    shards: dict | None = None

    def relation(self, predicate: str) -> Relation:
        """The computed relation for an IDB predicate (empty if none derived)."""
        rel = self.idb.get(predicate)
        if rel is not None:
            return rel
        try:
            return Relation(self.program.arity_of(predicate))
        except KeyError:
            raise KeyError(f"unknown IDB predicate {predicate}") from None

    def rows(self, predicate: str) -> frozenset[Row]:
        return self.relation(predicate).rows()

    def query_rows(self) -> frozenset[Row]:
        if self.program.query is None:
            raise ValueError("program has no query predicate")
        return self.rows(self.program.query)


@dataclass(frozen=True)
class EvaluationSnapshot:
    """A resumable point-in-time capture of one evaluation.

    Emitted by :func:`evaluate` through its ``checkpoint_sink`` at
    semi-naive round boundaries, and accepted back via ``resume_from``
    to restart the fixpoint from the saved frontier instead of from
    scratch.  The snapshot is deliberately **engine-agnostic** — it
    captures only rows, the SCC/iteration cursor and cumulative stats,
    never compiled plans or indexes — so a snapshot taken under the
    compiled slot engine resumes correctly under the interpreter (and
    vice versa).  It is also plain data: the persistence layer
    (:mod:`repro.persist`) serializes it to the on-disk checkpoint
    format without reaching into engine internals.

    ``completed_sccs`` counts the SCCs (in the deterministic Tarjan
    topological order of :attr:`Program.schedule`) whose fixpoints are fully
    contained in ``idb``; ``scc_index``/``iteration`` locate the
    in-progress SCC and the rounds already run inside it; ``delta`` is
    the semi-naive frontier feeding its next round (``None`` for naive
    snapshots and for completed evaluations).  ``stats`` are cumulative
    from the very first run, so resumed statistics stay monotone.

    ``interner`` is the columnar backend's value table in code order
    (``None`` under rows storage): rows in the snapshot are always
    decoded values, so the snapshot stays engine- **and**
    storage-agnostic, but carrying the table lets a columnar resume
    reproduce the exact code assignment of the checkpointed run.

    ``edb`` is the extensional database at snapshot time, carried only
    on *complete* snapshots written by the persistence layer: ingested
    facts live nowhere else once the write-ahead journal compacts, so a
    complete checkpoint must be self-contained — restore = EDB + IDB
    from the checkpoint, then replay the journal suffix.  ``None`` on
    engine-emitted mid-evaluation snapshots (resume re-uses the live
    session database) and on checkpoints written before the journal.
    """

    strategy: str
    completed_sccs: int
    scc_index: int | None
    iteration: int
    idb: Mapping[str, frozenset]
    delta: Mapping[str, frozenset] | None
    stats: EvaluationStats
    complete: bool = False
    interner: "tuple | None" = None
    edb: "Mapping[str, frozenset] | None" = None


def _check_resume(
    resume_from: "EvaluationSnapshot | None", strategy: str, provenance: bool
) -> None:
    if resume_from is None:
        return
    if provenance:
        raise ValueError(
            "provenance=True cannot resume from a snapshot: provenance "
            "for pre-checkpoint facts was not captured"
        )
    if resume_from.strategy != strategy:
        # A naive snapshot has no frontier, so semi-naive resumption
        # would treat its facts as exhausted deltas and under-derive;
        # refuse both directions rather than silently recompute.
        raise ValueError(
            f"snapshot was taken under strategy {resume_from.strategy!r}; "
            f"cannot resume with strategy {strategy!r}"
        )


# ----------------------------------------------------------------------
# The interpreted engine (the seed's tuple-at-a-time baseline)
# ----------------------------------------------------------------------
#: Sentinel distinguishing "variable unbound" from a legitimate ``None``
#: value stored in a database row.
_UNSET = object()


class _RuleJoin:
    """An interpreted join plan for one rule with an optional delta subgoal."""

    def __init__(self, rule: Rule, delta_index: int | None):
        self.rule = rule
        self.rule_key = repr(rule)
        self.delta_index = delta_index
        self.plan = order_body_greedy(rule, delta_index)
        self.delta_predicate: str | None = None
        if delta_index is not None:
            item = rule.body[delta_index]
            assert isinstance(item, Literal)
            self.delta_predicate = item.predicate

    def head_row(self, env: Mapping[Variable, object]) -> Row:
        return tuple(
            arg.value if isinstance(arg, Constant) else env[arg]
            for arg in self.rule.head.args
        )

    def support_rows(self, env: Mapping[Variable, object]) -> list[Fact]:
        return [
            (
                lit.predicate,
                tuple(
                    arg.value if isinstance(arg, Constant) else env[arg]
                    for arg in lit.args
                ),
            )
            for lit in self.rule.positive_literals
        ]

    def describe(self) -> str:
        return "; ".join(
            f"{'scan* ' if is_delta else ''}{item!r}" for item, is_delta in self.plan
        )


def _probe_literal(
    literal: Literal,
    env: dict[Variable, object],
    relation: Relation,
    stats: EvaluationStats,
) -> Iterable[dict[Variable, object]]:
    """Yield extended environments matching ``literal`` against ``relation``."""
    bound_positions: list[int] = []
    key_values: list[object] = []
    for i, arg in enumerate(literal.args):
        if isinstance(arg, Constant):
            bound_positions.append(i)
            key_values.append(arg.value)
        elif arg in env:
            bound_positions.append(i)
            key_values.append(env[arg])
    stats.probes += 1
    rows = relation.probe(tuple(bound_positions), tuple(key_values))
    for row in rows:
        stats.rows_scanned += 1
        extended = dict(env)
        stats.env_allocations += 1
        consistent = True
        for i, arg in enumerate(literal.args):
            if isinstance(arg, Constant):
                continue
            # _UNSET (not None) marks unbound: a row value of None must
            # still join consistently against an earlier binding.
            current = extended.get(arg, _UNSET)
            if current is _UNSET:
                extended[arg] = row[i]
            elif current != row[i]:
                consistent = False
                break
        if consistent:
            yield extended


def _check_filter(item: object, env: Mapping[Variable, object], edb_lookup) -> bool:
    """Evaluate a fully bound order atom or negated literal."""
    if isinstance(item, OrderAtom):
        left = item.left.value if isinstance(item.left, Constant) else env[item.left]
        right = item.right.value if isinstance(item.right, Constant) else env[item.right]
        return evaluate_comparison(left, right, item.op)
    assert isinstance(item, Literal) and not item.positive
    row = tuple(
        arg.value if isinstance(arg, Constant) else env[arg] for arg in item.args
    )
    return not edb_lookup(item.predicate, row, len(row))


def _run_join(
    join: _RuleJoin,
    env: dict[Variable, object],
    step: int,
    relation_of,
    delta_relation: Relation | None,
    edb_lookup,
    stats: EvaluationStats,
    emit: Callable[[dict[Variable, object]], None],
) -> None:
    """Depth-first execution of the interpreted plan, emitting result envs."""
    if step == len(join.plan):
        emit(env)
        return
    item, is_delta = join.plan[step]
    if isinstance(item, Literal) and item.positive:
        relation = delta_relation if is_delta else relation_of(item.predicate, item.atom.arity)
        for extended in _probe_literal(item, env, relation, stats):
            _run_join(join, extended, step + 1, relation_of, delta_relation, edb_lookup, stats, emit)
    else:
        if _check_filter(item, env, edb_lookup):
            _run_join(join, env, step + 1, relation_of, delta_relation, edb_lookup, stats, emit)


# ----------------------------------------------------------------------
# Engine adapters: one driver, two join engines (x two storage backends)
# ----------------------------------------------------------------------
class _EngineBase:
    """Driver-facing helpers shared by every engine adapter.

    ``compile`` builds an engine-specific plan (:meth:`make_plan` adds
    the ``plan`` trace event); ``run`` returns an engine-specific result
    batch; :meth:`result_count` sizes it (for ``rule_firings``) and
    :meth:`derive` inserts the head rows — plus provenance and the
    semi-naive sink delta — returning the number of *new* facts.  The
    driver never reaches into batch internals, so a batch can be a list
    of environments (the interpreter: the row-by-row :meth:`derive` is
    its), the new head rows (the generated kernels) or a column block
    (the columnar engine) without driver changes.
    """

    def __init__(self, database: Database, idb, tracer: Tracer, plans=None):
        self.database = database
        self.idb = idb
        self.tracer = tracer
        self.trace_on = tracer.enabled
        #: (rule, delta position) -> compiled plan, when the caller keeps
        #: plans across runs (a session, between ingests); else ``None``.
        self.plans = plans

    def make_plan(self, rule: Rule, delta_index: int | None):
        plans = self.plans
        plan = None if plans is None else plans.get((rule, delta_index))
        if plan is not None:
            return plan
        plan = self.compile(rule, delta_index)
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

    def result_count(self, results) -> int:
        return len(results)

    def derive(self, plan, results, head_relation, sink_delta, prov, stats) -> int:
        rule = plan.rule
        head_pred = rule.head.predicate
        new = 0
        for env in results:
            head_row = plan.head_row(env)
            if head_row in head_relation:
                continue
            head_relation.add(head_row)
            new += 1
            if prov is not None:
                prov[(head_pred, head_row)] = (rule, tuple(plan.support_rows(env)))
            if sink_delta is not None:
                sink_delta[head_pred].add(head_row)
        stats.facts_derived += new
        return new


class _SlotEngine(_EngineBase):
    """The compiled slot-based engine (:mod:`repro.datalog.plan`)."""

    name = "slots"

    def _size_of(self, literal: Literal) -> float:
        """Estimated relation size at plan-compile time.

        EDB sizes are exact; IDB relations still empty when the plan is
        compiled (recursive predicates) get a default guess."""
        rel = self.idb.get(literal.predicate)
        if rel is not None:
            return float(len(rel)) or float(DEFAULT_IDB_ESTIMATE)
        return float(len(self.database.relation(literal.predicate, literal.atom.arity)))

    def compile(self, rule: Rule, delta_index: int | None) -> RulePlan:
        # ``compile_rule`` is looked up as this module's global on every
        # call: the perf harness times plan compilation by wrapping it.
        return compile_rule(rule, delta_index, size_of=self._size_of)

    def run(
        self, plan: RulePlan, relation_of, delta_relation, head_relation, prov, stats, governor=None
    ):
        return plan.run(
            relation_of,
            delta_relation,
            head_relation.all_rows(),
            prov is not None,
            stats,
            tracer=self.tracer if self.trace_on else None,
            governor=governor,
        )

    def result_count(self, results) -> int:
        return results[0]

    def derive(self, plan, results, head_relation, sink_delta, prov, stats) -> int:
        fresh = results[1]
        if not fresh:
            return 0
        # Distinct and new already.  A list, not the dict:
        # ``set.update(dict)`` presizes the table and costs peak memory.
        rows = list(fresh)
        head_pred = plan.rule.head.predicate
        head_relation.add_fresh(rows)
        if sink_delta is not None:
            sink_delta[head_pred].add_fresh(rows)
        if prov is not None:
            for row, env in fresh.items():
                prov[head_pred, row] = (plan.rule, tuple(plan.support_rows(env)))
        stats.facts_derived += len(rows)
        return len(rows)


class _ColumnarSlotEngine(_SlotEngine):
    """The slot engine over columnar storage: batched block kernels.

    Reuses the slot engine's plan compilation unchanged (the step
    layouts are storage-agnostic) but executes through
    :meth:`~repro.datalog.plan.RulePlan.run_blocks`, whose result batch
    is ``(n, code columns)`` rather than per-row environments; head
    insertion happens at the code level (one dedup set lookup plus one
    ``add_codes`` per new fact) and decodes only for provenance.
    """

    name = "slots"

    def __init__(self, database: Database, idb, tracer: Tracer, plans=None):
        super().__init__(database, idb, tracer, plans)
        self.interner = database.interner

    def run(
        self, plan: RulePlan, relation_of, delta_relation, head_relation, prov, stats, governor=None
    ):
        return plan.run_blocks(
            relation_of,
            delta_relation,
            self.interner,
            stats,
            tracer=self.tracer if self.trace_on else None,
            governor=governor,
        )

    def derive(self, plan, results, head_relation, sink_delta, prov, stats) -> int:
        n, cols = results
        if not n:
            return 0
        rule = plan.rule
        head_pred = rule.head.predicate
        intern = self.interner.intern
        head_cols = [
            cols[p] if s else [intern(p)] * n for s, p in plan.head_layout
        ]
        keys = zip(*head_cols) if head_cols else iter([()] * n)
        live = head_relation.code_rows()
        add_codes = head_relation.add_codes
        sink = None if sink_delta is None else sink_delta[head_pred].add_codes
        values = self.interner.values
        new = 0
        for i, codes in enumerate(keys):
            if codes in live:
                continue
            add_codes(codes)
            new += 1
            if sink is not None:
                sink(codes)
            if prov is not None:
                env = [
                    None if col is None else values[col[i]] for col in cols
                ]
                head_row = tuple(values[c] for c in codes)
                prov[(head_pred, head_row)] = (
                    rule,
                    tuple(plan.support_rows(env)),
                )
        stats.facts_derived += new
        return new


class _InterpEngine(_EngineBase):
    """The seed tuple-at-a-time interpreter, kept as the perf baseline."""

    name = "interpreted"

    def _edb_lookup(self, predicate: str, row: Row, arity: int) -> bool:
        return row in self.database.relation(predicate, arity)

    compile = staticmethod(_RuleJoin)

    def run(
        self, join: _RuleJoin, relation_of, delta_relation, head_relation, prov, stats, governor=None
    ):
        results: list[dict[Variable, object]] = []
        emit = results.append
        if governor is not None:
            # Per emitted environment: cancellable mid-rule.
            def emit(env):
                results.append(env)
                governor.tick("rule")

        _run_join(join, {}, 0, relation_of, delta_relation, self._edb_lookup, stats, emit)
        return results


def _make_engine(engine: str, database, idb, tracer: Tracer, plans=None):
    if engine == "slots":
        # The storage backend picks the executor: same compiled plans,
        # block kernels on columnar databases, generated row kernels on rows.
        if database.storage == "columnar":
            return _ColumnarSlotEngine(database, idb, tracer, plans)
        return _SlotEngine(database, idb, tracer, plans)
    if engine == "interpreted":
        # The interpreter runs unchanged on either backend through the
        # value-level Relation API (columnar relations decode lazily).
        return _InterpEngine(database, idb, tracer, plans)
    raise ValueError(f"unknown engine {engine!r} (valid: {', '.join(ENGINES)})")


# ----------------------------------------------------------------------
# The fixpoint driver: one SCC/round loop, seed x round executor
# ----------------------------------------------------------------------
class _LocalExecutor:
    """The in-process round executor: fire a round's delta plans in turn.

    Whether a plan runs over row environments or column blocks is the
    engine adapter's business (:class:`_EngineBase`); an executor only
    decides *where* a round's plans run — here one after another in the
    calling process, in :class:`repro.parallel.engine._ShardedExecutor`
    across a worker fleet behind a barrier.
    """

    #: extra attributes of the run's ``evaluate`` span
    span_attrs: dict = {}

    def __init__(self, driver: "_Driver", engine: str, plans=None):
        self.driver = driver
        self.eng = _make_engine(
            engine, driver.database, driver.idb, driver.tracer, plans
        )
        self.plans: list = []

    def new_frontier(self, predicate: str) -> Relation:
        """An empty delta relation for one member of the current SCC."""
        return self.driver.database.new_relation(
            self.driver.program.arity_of(predicate)
        )

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
    cumulative stats — ``resume_from`` holds the checkpointed round to
    resume; ``live`` is the ingest seed's prior complete fixpoint, whose
    relations (rows *and* maintained indexes) the driver adopts and
    extends in place.  The caller then builds a round executor over
    ``driver.idb`` and calls :meth:`run` (passing the added EDB rows as
    ``ingest`` for the ingest seed).
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        *,
        tracer: Tracer,
        governor: "Governor | None" = None,
        resume_from: "EvaluationSnapshot | None" = None,
        live: "EvaluationResult | None" = None,
        seed_fact: "tuple[str, Row] | None" = None,
        strategy: str = "seminaive",
        provenance: bool = False,
        checkpoint_every: int = 0,
        checkpoint_sink: "Callable[[EvaluationSnapshot], None] | None" = None,
    ):
        _check_resume(resume_from, strategy, provenance)
        if strategy not in ("seminaive", "naive"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.program = program
        self.database = database
        self.tracer = tracer
        self.trace_on = tracer.enabled
        self.governor = governor
        self.resume_from = resume_from
        self.seed_fact = seed_fact
        self.strategy = strategy
        #: the governor's phase label ("ingest" under the ingest seed)
        self.phase = "evaluate"
        self.checkpoint_every = checkpoint_every
        self.checkpoint_sink = checkpoint_sink
        self.started = time.perf_counter()
        self.stats = stats = EvaluationStats()
        self.interner = interner = database.interner
        #: Ingest seed only: every frontier this run filled.  Each row it
        #: adds to a live relation is in exactly one of them, so they are
        #: what :meth:`discard_added` takes back after an abort.
        self.added: "list[dict[str, Relation]] | None" = None
        if live is not None:
            stats.merge(live.stats)
            self.idb = idb = live.idb
            self.added = []
        else:
            self.idb = idb = {
                pred: database.new_relation(program.arity_of(pred))
                for pred in program.idb_predicates
            }
            if seed_fact is not None and seed_fact[0] not in idb:
                # No rule derives the fact's predicate: the row is all of it.
                idb[seed_fact[0]] = database.new_relation(len(seed_fact[1]))
        if resume_from is not None:
            stats.merge(resume_from.stats)
            if interner is not None and resume_from.interner is not None:
                # Replay the checkpointed value table first so this run
                # assigns the same codes the checkpointed run did.
                for value in resume_from.interner:
                    interner.intern(value)
            for pred, rows in resume_from.idb.items():
                if pred in idb:
                    idb[pred].extend(rows)
        self.base_wall = stats.wall_time_seconds
        # intern_hits reports this run's dictionary re-use: the delta of
        # the interner's hit counter, on top of any resumed base (the
        # hits spent re-seeding the snapshot rows above are checkpointed
        # work, already counted by the run that produced the snapshot).
        self.base_intern = stats.intern_hits
        self.hits0 = 0 if interner is None else interner.hits
        self.prov: dict[Fact, tuple[Rule, tuple[Fact, ...]]] | None = (
            {} if provenance else None
        )

        # A closure, not a method: the interpreter calls it per row.
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

    def fire_seed_fact(self) -> None:
        """Derive the seed fact, counted as one firing of the body-less
        rule it stands for."""
        predicate, row = self.seed_fact
        self.stats.rule_firings += 1
        if self.idb[predicate].add(row):
            self.stats.facts_derived += 1
            if self.prov is not None:
                head = Atom(predicate, tuple(map(Constant, row)))
                self.prov[predicate, row] = (Rule(head), ())
        self.check()

    def fire_rule(
        self,
        plan,
        delta_relation: Relation | None,
        sink_delta: dict[str, Relation] | None,
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
                self.prov,
                stats,
                self.governor,
            )
            stats.rule_firings += eng.result_count(results)
            key = plan.rule_key
            stats.rows_scanned_by_rule[key] = (
                stats.rows_scanned_by_rule.get(key, 0)
                + stats.rows_scanned
                - rows_before
            )
            eng.derive(plan, results, head_relation, sink_delta, self.prov, stats)
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

    def make_snapshot(
        self,
        completed: int,
        scc_index: int | None,
        iteration: int,
        delta: "dict[str, Relation] | None",
        complete: bool = False,
    ) -> EvaluationSnapshot:
        self.sync_intern_hits()
        snap_stats = self.stats.copy()
        snap_stats.wall_time_seconds = self.elapsed()
        return EvaluationSnapshot(
            strategy=self.strategy,
            completed_sccs=completed,
            scc_index=scc_index,
            iteration=iteration,
            idb={pred: rel.rows() for pred, rel in self.idb.items()},
            delta=None
            if delta is None
            else {pred: rel.rows() for pred, rel in delta.items()},
            stats=snap_stats,
            complete=complete,
            interner=None if self.interner is None else tuple(self.interner.values),
        )

    def checkpoint(self, completed, scc_index, iteration, delta) -> None:
        """Emit a round-boundary snapshot when one is due."""
        if (
            self.checkpoint_sink is not None
            and self.checkpoint_every > 0
            and self.stats.iterations % self.checkpoint_every == 0
        ):
            self.checkpoint_sink(
                self.make_snapshot(completed, scc_index, iteration, delta)
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
            provenance=self.prov,
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
        seed = "cold" if self.resume_from is None else "resume"
        if ingest is not None:
            seed = self.phase = "ingest"
        try:
            with tracer.span(
                "evaluate",
                strategy=self.strategy,
                engine=self.eng.name,
                rules=len(self.program.rules),
                seed=seed,
                **executor.span_attrs,
            ) as root:
                if self.strategy == "naive":
                    completed = self._naive_rounds()
                else:
                    completed = self._seminaive_sccs(executor, ingest)
                if self.checkpoint_sink is not None:
                    self.checkpoint_sink(
                        self.make_snapshot(
                            completed, None, stats.iterations, None, complete=True
                        )
                    )
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
                    self.idb[pred].discard(rel.all_rows())

    def _naive_rounds(self) -> int:
        """The test oracle: fire every rule against the full relations
        until a round derives nothing new.  Naive snapshots carry no
        frontier — the whole IDB is the state — so a resumed run simply
        keeps iterating over the seeded relations."""
        stats = self.stats
        plans = [self.eng.make_plan(rule, None) for rule in self.program.rules]
        changed = True
        while changed:
            stats.iterations += 1
            self.check()
            if self.trace_on:
                self.tracer.event("iteration", index=stats.iterations, delta_in=None)
            before = stats.facts_derived
            if self.seed_fact is not None:
                self.fire_seed_fact()
            for plan in plans:
                self.fire_rule(plan, None, None, None, stats.iterations)
            changed = stats.facts_derived > before
            self.checkpoint(0, None, stats.iterations, None)
        return 0

    def _seminaive_sccs(self, executor, ingest) -> int:
        """SCC by SCC in topological order; delta rounds inside each.

        Cold and resumed runs fire a non-recursive SCC's rules once and
        seed a recursive SCC from its exit rules (or from the resumed
        frontier).  An ingest run instead seeds *every* SCC by
        differentiation (Bancilhon–Ramakrishnan): ``changed`` carries,
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
        resume_from = self.resume_from
        changed: dict[str, Relation] | None = None
        if ingest is not None:
            changed = {}
            for pred, rows in ingest.items():
                rel = database.new_relation(database.relation(pred).arity)
                for row in rows:
                    rel.add(row)
                changed[pred] = rel
        seed_pred = None if self.seed_fact is None else self.seed_fact[0]
        if seed_pred is not None and resume_from is None:  # else the snapshot has it
            self.fire_seed_fact()
        for scc_index, scc in enumerate(program.schedule):
            members, recursive, rules, exit_rules, delta_rules = scc
            if resume_from is not None and scc_index < resume_from.completed_sccs:
                continue  # fixpoint already contained in the seeded IDB
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
                if (
                    resume_from is not None
                    and resume_from.scc_index == scc_index
                    and resume_from.delta is not None
                ):
                    # The snapshot was taken at a round boundary of this
                    # SCC: its exit rules already fired (their facts are
                    # in the seeded IDB), so restore the frontier and
                    # iteration cursor instead of re-deriving round one.
                    for pred in members:
                        for row in resume_from.delta.get(pred, ()):
                            delta[pred].add(row)
                    iterations = resume_from.iteration
                elif changed is None:
                    if seed_pred in members:  # its exit "rule" fired up front
                        delta[seed_pred].add(self.seed_fact[1])
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
                    self.checkpoint(scc_index, scc_index, iterations, delta)
                if scc_new is not None:
                    for pred in members:
                        if len(scc_new[pred]):
                            changed[pred] = scc_new[pred]
        return len(program.schedule)


def _absorb(into: dict[str, Relation], delta: dict[str, Relation]) -> None:
    for pred, rel in delta.items():
        for row in rel.rows():
            into[pred].add(row)


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
        result = driver.run(_LocalExecutor(driver, "slots", plans), ingest=new_rows)
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
    provenance: bool = False,
    strategy: str = "seminaive",
    tracer: Tracer | None = None,
    engine: str = "slots",
    budget: "Budget | Governor | None" = None,
    cancellation: CancellationToken | None = None,
    checkpoint_every: int = 0,
    checkpoint_sink: "Callable[[EvaluationSnapshot], None] | None" = None,
    resume_from: EvaluationSnapshot | None = None,
    seed_fact: "tuple[str, Row] | None" = None,
    plans: "dict | None" = None,
) -> EvaluationResult:
    """Evaluate ``program`` bottom-up over ``database``.

    Returns an :class:`EvaluationResult` with the full IDB.  With
    ``provenance=True`` each derived fact remembers the first rule
    instantiation that produced it (for :func:`derivation_tree`).

    There is one way to evaluate: semi-naive rounds over the compiled
    slot engine, body literals in cost order, in this process, in the
    database's own storage backend.  Two references stay for the tests
    to compare it against: ``strategy="naive"`` (re-evaluate every rule
    against the full relations each round) and ``engine="interpreted"``
    (the seed tuple-at-a-time interpreter, greedy body order).  A
    columnar database (:meth:`~repro.datalog.database.Database.to_storage`)
    runs the batched block kernels of
    :meth:`~repro.datalog.plan.RulePlan.run_blocks`, and
    :func:`repro.parallel.evaluate_sharded` shards those across
    processes; both are reached by direct call only, give byte-identical
    fixpoint digests, and exist until the benchmark stops pricing them
    (``docs/storage.md``, ``docs/parallel.md``).

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

    ``checkpoint_every`` + ``checkpoint_sink`` make the run durable:
    after every ``checkpoint_every``-th semi-naive round (counted
    cumulatively in ``stats.iterations``) the sink receives an
    :class:`EvaluationSnapshot` of the IDB, the delta frontier and the
    SCC/iteration cursor; a final ``complete=True`` snapshot is always
    emitted when a sink is given.  ``resume_from`` restarts evaluation
    from such a snapshot: completed SCCs are skipped, the in-progress
    SCC continues from its saved frontier, and statistics continue
    cumulatively (budget limits therefore account for pre-checkpoint
    work too).  The snapshot must match ``strategy`` and is
    engine-independent; ``provenance=True`` cannot resume.

    Two inputs serve a program evaluated again and again (a cached
    magic program, request after request).  ``seed_fact`` is a
    ``(predicate, row)`` derived as if ``program`` began with the
    body-less rule ``predicate(row).`` — same relations, same work
    counters — so a query's constants are data and the ``Program``
    object is shared.  ``plans`` is a table the caller keeps between
    runs: a ``(rule, delta position)`` compiles into it once and is
    fetched from it afterwards.  Plans are costed on ``database``'s
    sizes when compiled, so keep one table per database; any table
    gives the same fixpoint.
    """
    if tracer is None:
        tracer = get_tracer()
    driver = _Driver(
        program,
        database,
        tracer=tracer,
        governor=Governor.of(budget, cancellation),
        resume_from=resume_from,
        seed_fact=seed_fact,
        strategy=strategy,
        provenance=provenance,
        checkpoint_every=checkpoint_every,
        checkpoint_sink=checkpoint_sink,
    )
    return driver.run(_LocalExecutor(driver, engine, plans))


def evaluate_query(program: Program, database: Database) -> frozenset[Row]:
    """Convenience wrapper: evaluate and return the query relation's rows."""
    return evaluate(program, database).query_rows()


@dataclass
class DerivationNode:
    """A node of a ground derivation tree (paper, Section 2).

    Goal nodes carry a fact; the ``rule`` of an IDB goal node is the rule
    node below it, with ``children`` being the goal nodes of the rule's
    positive subgoals.  EDB goal nodes are leaves (``rule is None``).
    """

    predicate: str
    row: Row
    rule: Rule | None = None
    children: list["DerivationNode"] = field(default_factory=list)

    def leaves(self) -> list["DerivationNode"]:
        if self.rule is None:
            return [self]
        result: list[DerivationNode] = []
        for child in self.children:
            result.extend(child.leaves())
        return result

    def goal_nodes(self) -> list["DerivationNode"]:
        """All goal nodes of the tree (this node included)."""
        result = [self]
        for child in self.children:
            result.extend(child.goal_nodes())
        return result

    def render(self, indent: str = "") -> str:
        label = f"{self.predicate}({', '.join(map(repr, self.row))})"
        lines = [f"{indent}{label}" + ("" if self.rule is None else f"   [{self.rule!r}]")]
        for child in self.children:
            lines.append(child.render(indent + "  "))
        return "\n".join(lines)


def derivation_tree(result: EvaluationResult, predicate: str, row: Sequence[object]) -> DerivationNode:
    """Reconstruct a derivation tree for a derived fact.

    Requires the evaluation to have been run with ``provenance=True``.
    The provenance records first derivations, so the reconstruction is
    well-founded (no cycles).
    """
    if result.provenance is None:
        raise ValueError("evaluation was run without provenance=True")
    row = tuple(row)
    idb_preds = result.program.idb_predicates

    def build(fact: Fact) -> DerivationNode:
        pred, fact_row = fact
        if pred not in idb_preds:
            return DerivationNode(pred, fact_row)
        entry = result.provenance.get(fact)
        if entry is None:
            raise KeyError(f"fact {pred}{fact_row} was not derived")
        rule, supports = entry
        node = DerivationNode(pred, fact_row, rule=rule)
        node.children = [build(s) for s in supports]
        return node

    return build((predicate, row))
