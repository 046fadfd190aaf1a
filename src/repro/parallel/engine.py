"""The sharded semi-naive master: hash-partitioned multiprocess evaluation.

``evaluate_sharded`` runs the one fixpoint driver of
:mod:`repro.datalog.evaluation` — SCC order, seeding and budget
handling are the driver's — with :class:`_ShardedExecutor` as
its round executor, which farms every delta join out to ``workers``
forked processes (:mod:`repro.parallel.worker`):

* **Sharding** — each semi-naive delta block is hash-partitioned by its
  full code row (``hash(codes) % workers``; int-tuple hashing is
  ``PYTHONHASHSEED``-independent, so the partition is deterministic).
  The compiled plans always scan the delta literal *first*, so
  partitioning delta rows partitions the join work exactly: per-rule
  ``rows_scanned`` sums across shards to the sequential count.
* **Barriers** — linear SCCs (no delta plan reads a same-SCC relation
  through a non-delta literal) synchronize once per round; nonlinear
  SCCs synchronize once per plan, with the facts accepted so far
  flushed to every mirror before the next plan fires — reproducing the
  sequential engine's live visibility and therefore its iteration
  counts and fixpoint digests byte for byte.
* **One kernel** — master and workers run the generated join kernels
  of :mod:`repro.datalog.plan` over interner codes, the very functions
  a sequential evaluation runs; only where their rows go differs.
* **Lazy replication** — the master keeps an append-only accept log per
  IDB predicate and a ship cursor into it.  A barrier ships a
  predicate's unshipped suffix only if one of the plans it runs reads
  that predicate through a non-delta literal; predicates that are only
  delta-scanned and head-derived (the common transitive-closure shape)
  are never replicated at all, which is what makes the fleet's
  per-round traffic proportional to the *frontier*, not the fixpoint.
* **Authority** — workers pre-deduplicate candidate heads against
  their mirrors and against everything they have already shipped, but
  only the master accepts facts into the IDB; the accepted rows travel
  back to the workers through the accept log.
* **Governance** — one :class:`~repro.robustness.budget.Governor`
  rules the fleet: the master checks all limits at barriers with the
  cumulative stats, and every task carries the governor's *remaining*
  wall-clock slice as the worker-side budget.  Any worker trip aborts
  the fleet; the master folds the aborted workers' partial stats in
  via :meth:`EvaluationStats.merge` (order-independent by
  construction) and raises the usual
  :class:`~repro.robustness.errors.BudgetExceededError` carrying a
  merged partial fixpoint — a subset of the true one, because every
  shipped head row is a sound derivation.

The worker warm-start ships the EDB with its interner, the IDB seed as
plain rows and the workload digest the worker checks them against, so a
code means the same value in every process.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import time
from collections import defaultdict
from multiprocessing.connection import wait as _conn_wait

from ..datalog.atoms import Literal
from ..datalog.database import Database, Relation
from ..datalog.evaluation import (
    EvaluationResult,
    EvaluationStats,
    _Driver,
    _SlotEngine,
)
from ..datalog.program import Program
from ..datalog.terms import Constant, Variable
from ..digest import workload_digest
from ..observability.trace import Tracer, get_tracer
from ..robustness.budget import Budget, CancellationToken, Governor
from ..robustness.errors import BudgetExceededError, InjectedFault, ReproError
from .supervisor import DEFAULT_SUPERVISION, SupervisionPolicy
from .worker import _columns_of, _rows_of, worker_main

__all__ = [
    "FleetExhausted",
    "SupervisionPolicy",
    "WorkerFailure",
    "WorkerPool",
    "evaluate_sharded",
]


class WorkerFailure(ReproError):
    """A shard worker died or broke protocol (not a budget trip).

    Budget trips inside workers travel the normal
    :class:`~repro.robustness.errors.BudgetExceededError` path (CLI
    exit 1, partial fixpoint attached); this error is for crashes and
    protocol violations the supervision layer could not (or was not
    allowed to) recover from.
    """


class FleetExhausted(WorkerFailure):
    """The supervision retry budget ran out for this evaluation run.

    Every respawn consumes one :class:`~repro.robustness.budget.RetryPolicy`
    backoff delay; when the iterator runs dry the fleet is declared
    unrecoverable at its current size.
    """


def _fork_context():
    # Fork keeps warm-start cheap (the program and EDB payloads still
    # travel the pipe, but the interpreter state does not have to be
    # re-imported); fall back to the platform default where fork is
    # unavailable.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _pre_intern_head_constants(program: Program, database: Database) -> None:
    """Intern every rule-head constant into the database's dictionary.

    Derivation is the only place evaluation *creates* interner codes
    (body constants probe without inserting).  Minting them all before
    the warm payload is built means the shipped value table is closed
    under derivation: workers never assign a code the master has not,
    so the dictionaries stay identical for the whole run.
    """
    interner = database.interner
    for rule in program.rules:
        for arg in rule.head.args:
            if isinstance(arg, Constant):
                interner.intern(arg.value)


class _DeltaBuffer:
    """A semi-naive frontier on the master: code rows in insertion order.

    The master never joins against its own delta (the workers do), and
    every row it is handed is new to the IDB, so the frontier needs no
    indexes and no seen-set — just insertion order (``row_list``) for
    deterministic sharding.  Implements the sliver of the Relation API
    the driver touches: ``len`` and ``add_fresh`` (the exit-rule sink,
    barrier accepts).
    """

    __slots__ = ("row_list",)

    def __init__(self):
        self.row_list: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self.row_list)

    def add_fresh(self, rows) -> None:
        """Bulk-append code rows already deduplicated by the caller."""
        self.row_list.extend(rows)


class _ShardedEngine(_SlotEngine):
    """The master's local engine: the slot engine, recording accepts.

    Non-recursive SCCs and exit rules run on the master (they fire once
    — forking them buys nothing); every code row a kernel finds fresh
    is accepted and appended to the per-predicate accept log so later
    barriers can replicate it into whichever worker mirrors turn out to
    need it.
    """

    def __init__(self, database, idb, tracer, accept_log):
        super().__init__(database, idb, tracer)
        self.accept_log = accept_log

    def derive(self, plan, results, head_relation, sink_delta, stats):
        new = super().derive(plan, results, head_relation, sink_delta, stats)
        if new:
            self.accept_log[plan.rule.head.predicate].extend(results[1])
        return new


def _shard_rows(rows, workers: int, column: "int | None" = None):
    """Partition code rows into per-worker buckets.

    ``column=None`` hashes the full code row (mirror mode); an int
    hashes that single position (aligned mode, so all rows of one
    partition land on the worker that owns it).  Int and int-tuple
    hashing are both ``PYTHONHASHSEED``-independent.
    """
    shards = [[] for _ in range(workers)]
    if workers == 1:
        shards[0].extend(rows)
        return shards
    if column is None:
        for codes in rows:
            shards[hash(codes) % workers].append(codes)
    else:
        for codes in rows:
            shards[hash(codes[column]) % workers].append(codes)
    return shards


def _alignment(delta_rules, members, program: Program) -> "dict[str, int] | None":
    """A partition column per member predicate, if the SCC admits one.

    Aligned sharding needs every delta derivation to land on the worker
    that owns its head row: for each delta rule there must be a
    variable shared between the delta literal (at its partition column)
    and the head (at the head predicate's partition column).  The
    choice must be consistent across all the SCC's delta rules; the
    search is brute force over the (tiny) product of member arities.
    Returns ``None`` — mirror mode — when no assignment exists.
    """
    if not delta_rules:
        return None
    constraints = []
    for _, rule, pos in delta_rules:
        delta_literal = rule.body[pos]
        pairs = set()
        for ci, arg in enumerate(delta_literal.args):
            if not isinstance(arg, Variable):
                continue
            for cj, head_arg in enumerate(rule.head.args):
                if head_arg == arg:
                    pairs.add((ci, cj))
        if not pairs:
            return None
        constraints.append((delta_literal.predicate, rule.head.predicate, pairs))
    preds = sorted(members)
    arities = [program.arity_of(pred) for pred in preds]
    combos = 1
    for arity in arities:
        combos *= arity
        if combos > 256:
            return None
    for choice in itertools.product(*(range(arity) for arity in arities)):
        columns = dict(zip(preds, choice))
        if all(
            (columns[dp], columns[hp]) in pairs for dp, hp, pairs in constraints
        ):
            return columns
    return None


class WorkerPool:
    """A fleet of warmed shard workers bound to one program + EDB.

    Construction forks the processes and performs the warm-start
    hand-off (program, EDB with interner, IDB seed); both
    are the per-run fixed cost the benchmarks report separately as
    ``shard_overhead_seconds``.  The pool is a context manager; it is
    single-use per evaluation but a benchmark may construct it ahead
    of the timed region and pass it to ``evaluate_sharded(..., pool=...)``.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        workers: int,
        *,
        idb: "dict[str, Relation] | None" = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if database.storage != "columnar":
            raise ValueError("WorkerPool requires a columnar database")
        self.program = program
        self.database = database
        self.workers = workers
        _pre_intern_head_constants(program, database)
        warm = self._warm_payload(idb)
        self._ctx = _fork_context()
        self.conns = []
        self.procs = []
        self._closed = False
        try:
            for index in range(workers):
                proc, conn = self._spawn()
                self.conns.append(conn)
                self.procs.append(proc)
            for index, conn in enumerate(self.conns):
                conn.send(("start", {**warm, "index": index}))
            for index in range(workers):
                self._check_ready(index)
        except BaseException:
            self.close()
            raise
        # Values shipped so far; take_intern_extension() sends the rest.
        self.sent_values = len(database.interner)

    # ------------------------------------------------------------------
    def _warm_payload(self, idb: "dict[str, Relation] | None") -> dict:
        """The warm-start hand-off, built from the *current* state.

        Called at construction and again on every :meth:`respawn`: a
        replacement worker is warmed from the master's live IDB and
        interner (a superset of anything the dead worker knew), so its
        mirrors are complete up to the current barrier and re-shipped
        accept-log suffixes deduplicate as no-ops.
        """
        self.interner_digest = self.database.interner.digest()
        return {
            "workers": self.workers,
            "program": self.program,
            "edb": self.database.to_dict(include_interner=True),
            "idb": {
                pred: relation.rows()
                for pred, relation in (idb or {}).items()
                if len(relation)
            },
            "workload": workload_digest(self.program, self.database),
            "interner_digest": self.interner_digest,
        }

    def _spawn(self):
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _check_ready(self, index: int) -> None:
        kind, payload = self._recv(index)
        if kind != "ready":
            raise WorkerFailure(
                f"worker {index} failed to warm up: "
                f"{payload.get('message', kind)}"
            )
        if payload.get("interner_digest") != self.interner_digest:
            raise WorkerFailure(
                f"worker {index} warm-start interner digest mismatch"
            )

    def kill(self, index: int) -> None:
        """SIGKILL worker ``index`` and reap it (the chaos kill lever)."""
        proc = self.procs[index]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)

    def respawn(self, index: int, *, idb: "dict[str, Relation] | None" = None) -> object:
        """Reap worker ``index`` and warm a replacement in its slot.

        The replacement is warmed from the master's *current* IDB and
        interner (``idb`` is the live relation map), which is exactly
        the state a worker is held to at a barrier boundary: mid-merge
        the round's accepted rows are not yet flushed, so the IDB seed
        captures barrier-start state and the in-flight task's update
        suffixes re-absorb idempotently.  Returns the new connection;
        raises :class:`WorkerFailure` if the replacement fails to warm.
        """
        self.kill(index)
        try:
            self.conns[index].close()
        except OSError:  # pragma: no cover - already closed
            pass
        warm = self._warm_payload(idb)
        proc, conn = self._spawn()
        self.procs[index] = proc
        self.conns[index] = conn
        conn.send(("start", {**warm, "index": index}))
        self._check_ready(index)
        return conn

    def take_intern_extension(self) -> list:
        """Values interned by the master since the last barrier."""
        values = self.database.interner.values
        extension = list(values[self.sent_values :])
        self.sent_values = len(values)
        return extension

    def _recv(self, index: int):
        try:
            return self.conns[index].recv()
        except (EOFError, OSError) as exc:
            raise WorkerFailure(
                f"worker {index} died mid-protocol ({exc.__class__.__name__})"
            ) from exc

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self.conns:
            try:
                conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for proc in self.procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - terminate-resistant
                proc.kill()
                proc.join(timeout=1.0)
        for conn in self.conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        # The joins above reaped every exit status; close() releases the
        # Process objects' OS resources too, so an aborted round leaves
        # no dead or zombie worker behind in the pool.
        for proc in self.procs:
            try:
                proc.close()
            except ValueError:  # pragma: no cover - still-running straggler
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _ShardedExecutor:
    """The sharded round executor of the fixpoint driver.

    :class:`repro.datalog.evaluation._Driver` owns the SCC/round loop,
    the IDB seeding and the abort handler; this class only
    answers "where does a round's delta join run?" — on the fleet, one
    :meth:`barrier` per round (linear SCCs) or per plan (nonlinear
    ones).  Exit and non-recursive rules still fire locally on the
    master through :class:`_ShardedEngine`, which records every accept.
    """

    def __init__(
        self,
        driver,
        pool: "WorkerPool | None",
        workers: int,
        policy: SupervisionPolicy,
        started_cpu: float,
    ):
        self.driver = driver
        # Every code row ever accepted into the IDB, in acceptance order,
        # plus the per-predicate cursor up to which the workers have been
        # told.
        self.accept_log: "defaultdict[str, list[tuple]]" = defaultdict(list)
        self.shipped_upto: "defaultdict[str, int]" = defaultdict(int)
        self.eng = _ShardedEngine(
            driver.database, driver.idb, driver.tracer, self.accept_log
        )
        if pool is None:
            pool = WorkerPool(
                driver.program, driver.database, workers, idb=driver.idb
            )
        self.pool = pool
        self.span_attrs = {"workers": pool.workers}
        self.policy = policy
        # One backoff iterator per run: every worker recovery consumes
        # one delay, so the whole evaluation is bounded to
        # ``attempts - 1`` respawns before FleetExhausted.
        self.retry_delays = policy.retry.delays()
        # Per-worker dispatch heartbeat (``time.monotonic`` at the last
        # successful send): merge-side liveness checks measure straggler
        # time from here.
        self.sent_at = [0.0] * pool.workers
        # Per-worker accounting and the modeled critical path.  Both
        # sides report CPU time (``time.process_time``), which is immune
        # to core contention: the master's own CPU is its serial work
        # (dispatch pickling, merge, dedup — it runs while workers
        # idle), and on a machine with >= ``workers`` free cores the
        # fleet's wall clock converges to ``master_cpu + sum over
        # barriers of max(worker cpu)``, so the benchmarks report that
        # quantity (``critical_path_seconds``) alongside raw wall time.
        self.started_cpu = started_cpu
        self.worker_report = [
            {"tasks": 0, "cpu_seconds": 0.0, "wall_seconds": 0.0, "results": 0, "accepted": 0}
            for _ in range(pool.workers)
        ]
        self.barrier_max_cpu = 0.0

    def report(self) -> dict:
        """The ``EvaluationResult.shards`` payload."""
        master_serial = max(0.0, time.process_time() - self.started_cpu)
        return {
            "workers": self.pool.workers,
            "per_worker": [
                {key: round(val, 6) if isinstance(val, float) else val
                 for key, val in report.items()}
                for report in self.worker_report
            ],
            "master_serial_seconds": round(master_serial, 6),
            "critical_path_seconds": round(
                master_serial + self.barrier_max_cpu, 6
            ),
        }

    def new_frontier(self, predicate: str) -> _DeltaBuffer:
        return _DeltaBuffer()

    def begin_scc(self, members: "set[str]", delta_rules) -> None:
        """Per-SCC dispatch metadata; the *workers* compile the plans."""
        idb_preds = self.driver.program.idb_predicates
        self.compile_specs: "list | None" = [
            (rule_index, pos) for rule_index, _, pos in delta_rules
        ]
        #: plan id -> (rule_key, head_pred): stats attribution and head
        #: acceptance in :meth:`barrier`
        self.plan_meta = {
            plan_id: (repr(rule), rule.head.predicate)
            for plan_id, (_, rule, pos) in enumerate(delta_rules)
        }
        self.delta_pred_of = [rule.body[pos].predicate for _, rule, pos in delta_rules]
        # The IDB predicates each plan reads through non-delta literals
        # (positive or negated): exactly the mirrors that must be
        # current before it runs.
        self.needed_of = [
            {
                item.predicate
                for i, item in enumerate(rule.body)
                if i != pos
                and isinstance(item, Literal)
                and item.predicate in idb_preds
            }
            for _, rule, pos in delta_rules
        ]
        # A delta plan that reads a same-SCC relation through a
        # non-delta literal sees facts derived earlier in the same
        # round; those SCCs barrier per plan so the mirrors can be
        # refreshed in between.
        self.nonlinear = any(
            i != pos
            and isinstance(item, Literal)
            and item.positive
            and item.predicate in members
            for _, rule, pos in delta_rules
            for i, item in enumerate(rule.body)
        )
        # Aligned sharding needs the workers' mirrors to be exact for
        # their partitions, which nonlinear SCCs (reading whole
        # same-SCC relations) cannot give.
        self.aligned_cols = (
            None
            if self.nonlinear
            else _alignment(delta_rules, members, self.driver.program)
        )
        self.first_round = True
        # Retained past the SCC's first barrier so recovery can
        # re-dispatch the compile payload to replacement workers that
        # never saw it.
        self.compile_cache: dict = {}

    def run_round(self, delta, new_delta, scc_index: int, iteration: int) -> None:
        delta_pred_of = self.delta_pred_of
        if self.nonlinear:
            for plan_id, pred in enumerate(delta_pred_of):
                if len(delta[pred]):
                    self.barrier(
                        [plan_id],
                        {pred: delta[pred]},
                        self.needed_of[plan_id],
                        new_delta,
                        scc_index,
                        iteration,
                    )
        else:
            run_ids = [
                plan_id
                for plan_id, pred in enumerate(delta_pred_of)
                if len(delta[pred])
            ]
            needed = set()
            for plan_id in run_ids:
                needed |= self.needed_of[plan_id]
            self.barrier(
                run_ids,
                delta,
                needed,
                new_delta,
                scc_index,
                iteration,
                self.aligned_cols,
                self.aligned_cols is None or self.first_round,
            )
        self.first_round = False

    def barrier(
        self,
        run_plan_ids,
        delta_by_pred,
        needed,
        new_delta,
        scc_index,
        iteration,
        aligned_cols=None,
        ship_delta=True,
    ) -> None:
        """One fleet synchronization: dispatch tasks, merge replies.

        ``needed`` is the set of IDB predicates the dispatched plans
        read through non-delta literals (only their accept-log suffixes
        are shipped).  In aligned mode (``aligned_cols`` set) the delta
        ships only on the SCC's first round (``ship_delta``) —
        afterwards each worker's frontier *is* its shard — and replies
        are accepted without re-deduplication, because partition
        ownership makes the workers' mirror checks exact.

        The SCC's compile payload rides its first barrier and is
        retained in ``compile_cache`` so a replacement worker (which
        has no compiled plans) can be re-dispatched mid-SCC.  Worker
        deaths, protocol errors and stragglers are *recovered* —
        respawn plus shard re-dispatch under the run's retry budget —
        raising :class:`FleetExhausted` only when the budget runs dry;
        worker budget trips still raise the usual abort.
        """
        driver, pool, policy = self.driver, self.pool, self.policy
        stats, idb, governor = driver.stats, driver.idb, driver.governor
        tracer, trace_on = driver.tracer, driver.trace_on
        accept_log, shipped_upto = self.accept_log, self.shipped_upto
        plan_meta, compile_cache = self.plan_meta, self.compile_cache
        retry_delays, sent_at = self.retry_delays, self.sent_at
        worker_report = self.worker_report
        compile_specs, self.compile_specs = self.compile_specs, None
        extension = pool.take_intern_extension()
        updates = []
        for pred in sorted(needed):
            log = accept_log[pred]
            cursor = shipped_upto[pred]
            if len(log) > cursor:
                fresh = log[cursor:]
                updates.append((pred, len(fresh), _columns_of(fresh)))
            shipped_upto[pred] = len(log)
        compile_payload = None
        if compile_specs is not None:
            # The workers compile against the master's sizes at this
            # exact point — right after the SCC's exit rules, the same
            # point the sequential engine compiles at — so cost-based
            # plan orders (and with them per-rule ``rows_scanned``)
            # match a sequential run's even when the worker mirrors are
            # lazily behind.
            compile_payload = {
                "specs": compile_specs,
                "sizes": {pred: len(rel) for pred, rel in idb.items()},
                "aligned": aligned_cols,
            }
            compile_cache["payload"] = compile_payload
        deadline = None if governor is None else governor.remaining()
        task = {
            "intern": extension,
            "updates": updates,
            "compile": compile_payload,
            "plans": run_plan_ids,
            "deadline": deadline,
        }
        shared = pickle.dumps(task, pickle.HIGHEST_PROTOCOL)
        def partition() -> dict:
            return {
                pred: _shard_rows(
                    rel.row_list,
                    pool.workers,
                    None if aligned_cols is None else aligned_cols[pred],
                )
                for pred, rel in delta_by_pred.items()
                if len(rel)
            }

        def shard_of(index: int, buckets: dict) -> list:
            return [
                (pred, len(bucket), _columns_of(bucket))
                for pred, by_worker in buckets.items()
                for bucket in (by_worker[index],)
                if bucket
            ]

        shard_by_pred = partition() if ship_delta else {}
        update_rows = sum(n for _, n, _ in updates)
        straggler_limit = policy.straggler_limit(deadline)

        def recover(index: int, reason: str) -> None:
            """Respawn worker ``index`` and re-dispatch its shard.

            Loops until the replacement is warm and dispatched or the
            retry budget runs dry (:class:`FleetExhausted`).  Each
            attempt consumes one backoff delay, clamped to the
            governor's remaining deadline — recovery never outlives
            the budget's timeout.
            """
            while True:
                driver.check()
                delay = next(retry_delays, None)
                if delay is None:
                    raise FleetExhausted(
                        f"worker {index} unrecoverable: retry budget of "
                        f"{policy.retry.attempts - 1} restart(s) exhausted "
                        f"({reason})"
                    )
                if trace_on:
                    tracer.event(
                        "shard.retry",
                        worker=index,
                        scc=scc_index,
                        iteration=iteration,
                        delay=round(delay, 6),
                        reason=reason,
                    )
                remaining = None if governor is None else governor.remaining()
                if remaining is not None:
                    delay = max(0.0, min(delay, remaining))
                if delay > 0:
                    time.sleep(delay)
                try:
                    conn = pool.respawn(index, idb=idb)
                except WorkerFailure as exc:
                    reason = f"respawn failed: {exc}"
                    continue
                stats.worker_restarts += 1
                if trace_on:
                    tracer.event(
                        "shard.respawn",
                        worker=index,
                        scc=scc_index,
                        iteration=iteration,
                        reason=reason,
                    )
                # The recovery task always carries the SCC's compile
                # payload (the replacement has no plans) and a fresh
                # deadline slice; interner extension and accept-log
                # updates re-absorb idempotently on top of the warm
                # IDB seed.  Shards are pure functions of ``(round,
                # partition)``: the master's delta buffers hold the full
                # current-round frontier (in aligned mode too —
                # ``new_delta`` accumulates every accepted row), so the
                # replacement's bucket comes out byte-identical to the
                # one the dead worker held, even when the original
                # dispatch shipped no delta at all (``ship_delta=False``:
                # live workers keep their own frontier, but a
                # replacement lost its).
                blob = pickle.dumps(
                    {
                        **task,
                        "compile": compile_cache.get("payload"),
                        "deadline": None
                        if governor is None
                        else governor.remaining(),
                    },
                    pickle.HIGHEST_PROTOCOL,
                )
                try:
                    conn.send(
                        ("task", blob, shard_of(index, shard_by_pred or partition()))
                    )
                except (BrokenPipeError, OSError) as exc:
                    reason = f"re-dispatch failed ({exc.__class__.__name__})"
                    continue
                stats.shards_redispatched += 1
                sent_at[index] = time.monotonic()
                return

        for index in range(pool.workers):
            shard = shard_of(index, shard_by_pred)
            if trace_on:
                try:
                    tracer.event(
                        "shard.dispatch",
                        worker=index,
                        scc=scc_index,
                        iteration=iteration,
                        plans=len(run_plan_ids),
                        delta_rows=sum(n for _, n, _ in shard),
                        update_rows=update_rows,
                    )
                except InjectedFault:
                    # The chaos harness's worker-kill site: an armed
                    # fault at ``shard.dispatch`` kills this worker
                    # instead of aborting the run — the dead pipe on
                    # the send below engages recovery.
                    pool.kill(index)
            try:
                pool.conns[index].send(("task", shared, shard))
                sent_at[index] = time.monotonic()
            except (BrokenPipeError, OSError) as exc:
                # A worker that died between barriers (or was killed by
                # the chaos site above) surfaces here, on the dispatch
                # send.
                recover(index, f"died before dispatch ({exc.__class__.__name__})")

        # Merge replies in arrival order, overlapping the master's
        # dedup work with the slower workers' compute.  Every decision
        # below is content-based (sets and sums), so arrival order
        # cannot change what is accepted — only which worker a
        # duplicate is attributed to in the trace.
        aborted: "dict | None" = None
        round_max_cpu = 0.0
        firings_by_plan: "defaultdict[int, int]" = defaultdict(int)
        rows_by_plan: "defaultdict[int, int]" = defaultdict(int)
        accepted_by_plan: "defaultdict[int, int]" = defaultdict(int)
        accepted_rows: "dict[str, list[tuple]]" = {}
        batch_seen: "dict[str, set]" = {}
        outstanding = set(range(pool.workers))
        while outstanding:
            # Deadline-based liveness: without a straggler limit the
            # wait blocks (a dead worker's pipe closes and wakes it);
            # with one, the wait polls so silent-but-alive workers can
            # be declared stuck, killed and recovered.
            by_conn = {pool.conns[i]: i for i in outstanding}
            ready = _conn_wait(
                list(by_conn), None if straggler_limit is None else 0.05
            )
            if not ready:
                now = time.monotonic()
                for index in sorted(by_conn.values()):
                    if not pool.procs[index].is_alive():
                        recover(index, "died mid-round")
                    elif (
                        straggler_limit is not None
                        and now - sent_at[index] > straggler_limit
                    ):
                        pool.kill(index)
                        recover(
                            index,
                            f"straggler exceeded {straggler_limit:.3f}s",
                        )
                continue
            for conn in ready:
                index = by_conn[conn]
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError) as exc:
                    recover(
                        index, f"died mid-protocol ({exc.__class__.__name__})"
                    )
                    continue
                if kind == "error":
                    # A protocol break (worker traceback) is treated
                    # like a crash: kill the broken worker, recover.
                    pool.kill(index)
                    recover(
                        index,
                        f"worker error: {payload.get('message', '').strip().splitlines()[-1] if payload.get('message') else 'unknown'}",
                    )
                    continue
                outstanding.discard(index)
                cpu = payload.get("cpu", 0.0)
                report = worker_report[index]
                report["tasks"] += 1
                report["cpu_seconds"] += cpu
                report["wall_seconds"] += payload.get("elapsed", 0.0)
                round_max_cpu = max(round_max_cpu, cpu)
                if kind == "abort":
                    # Fold the tripped worker's partial counters in
                    # through the order-independent merge; its head rows
                    # are sound derivations, merged below like any
                    # other reply's.
                    stats.merge(EvaluationStats.from_dict(payload["stats"]))
                    aborted = payload
                else:
                    wstats = payload["stats"]
                    stats.probes += wstats["probes"]
                    stats.env_allocations += wstats["env_allocations"]
                    stats.index_builds += wstats["index_builds"]
                    for plan_id, count, rows in payload["plans"]:
                        stats.rule_firings += count
                        stats.rows_scanned += rows
                        firings_by_plan[plan_id] += count
                        rows_by_plan[plan_id] += rows
                        key = plan_meta[plan_id][0]
                        stats.rows_scanned_by_rule[key] = (
                            stats.rows_scanned_by_rule.get(key, 0) + rows
                        )
                results = 0
                accepted = 0
                for plan_id, n, cols in payload.get("heads", ()):
                    head_pred = plan_meta[plan_id][1]
                    results += n
                    if aligned_cols is not None:
                        # Partition ownership: the shipping worker is
                        # the only process that can derive these rows
                        # and its mirror is complete for its partition,
                        # so every row is fresh by construction.
                        acc = accepted_rows.setdefault(head_pred, [])
                        acc.extend(_rows_of(n, cols))
                        accepted += n
                        accepted_by_plan[plan_id] += n
                        continue
                    live = idb[head_pred].all_rows()
                    seen = batch_seen.get(head_pred)
                    if seen is None:
                        seen = batch_seen[head_pred] = set()
                        accepted_rows[head_pred] = []
                    acc = accepted_rows[head_pred]
                    for codes in _rows_of(n, cols):
                        if codes in live or codes in seen:
                            continue
                        seen.add(codes)
                        acc.append(codes)
                        accepted += 1
                        accepted_by_plan[plan_id] += 1
                report["results"] += results
                report["accepted"] += accepted
                if trace_on:
                    try:
                        tracer.event(
                            "shard.merge",
                            worker=index,
                            scc=scc_index,
                            iteration=iteration,
                            results=results,
                            accepted=accepted,
                            elapsed=round(payload.get("elapsed", 0.0), 6),
                            aborted=kind == "abort",
                        )
                    except InjectedFault:
                        # Chaos worker-kill at the merge ack: the reply
                        # was already folded in, so the kill costs
                        # nothing this round — the dead pipe engages
                        # recovery at the next dispatch.
                        pool.kill(index)
        self.barrier_max_cpu += round_max_cpu
        for pred, acc in accepted_rows.items():
            if not acc:
                continue
            idb[pred].add_fresh(acc)
            accept_log[pred].extend(acc)
            new_delta[pred].add_fresh(acc)
            stats.facts_derived += len(acc)
        if trace_on:
            for plan_id in run_plan_ids:
                if not (
                    firings_by_plan[plan_id]
                    or rows_by_plan[plan_id]
                    or accepted_by_plan[plan_id]
                ):
                    continue
                key, head_pred = plan_meta[plan_id]
                with tracer.span(
                    "rule",
                    predicate=head_pred,
                    rule=key,
                    scc=scc_index,
                    iteration=iteration,
                    delta=True,
                ) as span:
                    span.set(
                        firings=firings_by_plan[plan_id],
                        rows_scanned=rows_by_plan[plan_id],
                        facts_derived=accepted_by_plan[plan_id],
                    )
        if aborted is not None:
            raise BudgetExceededError(
                aborted.get("message")
                or "worker budget slice exhausted; fleet aborted",
                limit=aborted.get("limit") or "timeout",
            )
        driver.check()


def evaluate_sharded(
    program: Program,
    database: Database,
    *,
    workers: int,
    pool: WorkerPool | None = None,
    tracer: Tracer | None = None,
    budget: "Budget | Governor | None" = None,
    cancellation: CancellationToken | None = None,
    supervision: "SupervisionPolicy | None" = None,
) -> EvaluationResult:
    """Semi-naive evaluation sharded across ``workers`` processes.

    Reached by direct call only; the benchmark passes a pre-built
    ``pool`` so fork + EDB shipping stays outside the timed region.
    ``database`` is converted to columnar storage when it is not
    already.  Results — fixpoint, digests,
    ``iterations``, ``rule_firings``, ``facts_derived``,
    ``rows_scanned`` (total and per rule) — are byte-identical to the
    sequential engine; the per-process counters (``probes``,
    ``env_allocations``, ``index_builds``) report fleet totals and
    therefore exceed the sequential values.

    Worker deaths and stragglers are handled by the supervision layer
    (``supervision``, a :class:`SupervisionPolicy`): the dead worker is
    respawned warm from the master's current state and its shard
    re-dispatched — byte-identical results, because shards are pure
    functions of ``(round, partition)`` and a dead worker's reply was
    never merged.  Recovery is bounded by the policy's retry budget;
    exhausting it raises :class:`FleetExhausted`.
    """
    if not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive int, got {workers!r}")
    if tracer is None:
        tracer = get_tracer()
    database = database.to_storage("columnar")
    if pool is not None:
        if pool.workers != workers:
            raise ValueError(
                f"pool has {pool.workers} workers, evaluation asked for {workers}"
            )
        if pool.database is not database or pool.program is not program:
            raise ValueError(
                "pool was built for a different program/database object"
            )
    started_cpu = time.process_time()
    driver = _Driver(
        program,
        database,
        tracer=tracer,
        governor=Governor.of(budget, cancellation),
    )
    executor = _ShardedExecutor(
        driver,
        pool,
        workers,
        supervision if supervision is not None else DEFAULT_SUPERVISION,
        started_cpu,
    )
    try:
        return driver.run(executor)
    finally:
        if pool is None:
            executor.pool.close()
