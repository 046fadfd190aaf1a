"""The sharded semi-naive master: hash-partitioned multiprocess evaluation.

``evaluate_sharded`` runs the one fixpoint driver of
:mod:`repro.datalog.evaluation` — SCC order and seeding are the
driver's — with :class:`_ShardedExecutor` as
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
* **No governance, no tracing** — the driver runs on the disabled
  tracer with no budget.  A worker that dies or replies with an error
  ends the run: its own :class:`~repro.robustness.errors.ReproError`
  is raised again on the master, anything else as
  :class:`WorkerFailure`.  Nothing is respawned or retried.

The worker warm-start ships the EDB with its interner and the workload
digest the worker checks it against, so a code means the same value in
every process.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import time
from collections import defaultdict
from multiprocessing.connection import wait as _conn_wait

from ..datalog.atoms import Literal
from ..datalog.database import Database
from ..datalog.evaluation import EvaluationResult, _Driver, _SlotEngine
from ..datalog.program import Program
from ..datalog.terms import Constant, Variable
from ..digest import workload_digest
from ..observability.trace import NULL_TRACER
from ..robustness.errors import ReproError
from .worker import _columns_of, _rows_of, worker_main

__all__ = ["WorkerFailure", "WorkerPool", "evaluate_sharded"]


class WorkerFailure(ReproError):
    """A shard worker died, broke protocol or failed with an error that
    is not a :class:`~repro.robustness.errors.ReproError` (its message
    carries the worker's traceback)."""


def _worker_error(index: int, payload: dict) -> ReproError:
    """The master-side error for a worker's ``("error", ...)`` reply.

    A worker's own :class:`ReproError` comes back as its class and
    message, not as the pickled exception: a class whose constructor
    takes other arguments than its message (``IncomparableValues(left,
    right)``) does not unpickle.  The instance is rebuilt around the
    message without calling its constructor.
    """
    cls = payload["type"]
    if cls is None:
        return WorkerFailure(f"worker {index} failed: {payload['message']}")
    error = cls.__new__(cls)
    error.args = (payload["message"],)
    return error


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
    hand-off (program, EDB with interner); both are the per-run fixed
    cost the benchmark reports separately as ``parallel.pool_start_s``.
    The pool is a context manager; it is single-use per evaluation but
    a benchmark may construct it ahead of the timed region and pass it
    to ``evaluate_sharded(..., pool=...)``.
    """

    def __init__(self, program: Program, database: Database, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if database.storage != "columnar":
            raise ValueError("WorkerPool requires a columnar database")
        self.program = program
        self.database = database
        self.workers = workers
        _pre_intern_head_constants(program, database)
        self.interner_digest = interner_digest = database.interner.digest()
        warm = {
            "workers": workers,
            "program": program,
            "edb": database.to_dict(include_interner=True),
            "workload": workload_digest(program, database),
            "interner_digest": interner_digest,
        }
        ctx = _fork_context()
        self.conns = []
        self.procs = []
        self._closed = False
        try:
            for index in range(workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(target=worker_main, args=(child_conn,), daemon=True)
                proc.start()
                child_conn.close()
                self.conns.append(parent_conn)
                self.procs.append(proc)
            for index, conn in enumerate(self.conns):
                conn.send(("start", {**warm, "index": index}))
            for index in range(workers):
                kind, payload = self.recv(index)
                if kind != "ready":
                    raise WorkerFailure(
                        f"worker {index} failed to warm up: "
                        f"{payload.get('message', kind)}"
                    )
                if payload.get("interner_digest") != interner_digest:
                    raise WorkerFailure(
                        f"worker {index} warm-start interner digest mismatch"
                    )
        except BaseException:
            self.close()
            raise
        # Values shipped so far; take_intern_extension() sends the rest.
        self.sent_values = len(database.interner)

    def take_intern_extension(self) -> list:
        """Values interned by the master since the last barrier."""
        values = self.database.interner.values
        extension = list(values[self.sent_values :])
        self.sent_values = len(values)
        return extension

    def recv(self, index: int):
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
        # Process objects' OS resources too, so a failed run leaves
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

    :class:`repro.datalog.evaluation._Driver` owns the SCC/round loop
    and the IDB seeding; this class only
    answers "where does a round's delta join run?" — on the fleet, one
    :meth:`barrier` per round (linear SCCs) or per plan (nonlinear
    ones).  Exit and non-recursive rules still fire locally on the
    master through :class:`_ShardedEngine`, which records every accept.
    """

    def __init__(self, driver, pool: WorkerPool, started_cpu: float):
        self.driver = driver
        # Every code row ever accepted into the IDB, in acceptance order,
        # plus the per-predicate cursor up to which the workers have been
        # told.
        self.accept_log: "defaultdict[str, list[tuple]]" = defaultdict(list)
        self.shipped_upto: "defaultdict[str, int]" = defaultdict(int)
        self.eng = _ShardedEngine(
            driver.database, driver.idb, driver.tracer, self.accept_log
        )
        self.pool = pool
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
        ownership makes the workers' mirror checks exact.  The SCC's
        compile payload rides its first barrier.

        A worker that is dead at dispatch or at merge, or that replies
        with an error, ends the run (:func:`_worker_error`).
        """
        driver, pool = self.driver, self.pool
        stats, idb = driver.stats, driver.idb
        accept_log, shipped_upto = self.accept_log, self.shipped_upto
        plan_meta, worker_report = self.plan_meta, self.worker_report
        compile_specs, self.compile_specs = self.compile_specs, None
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
        task = {
            "intern": pool.take_intern_extension(),
            "updates": updates,
            "compile": compile_payload,
            "plans": run_plan_ids,
        }
        shared = pickle.dumps(task, pickle.HIGHEST_PROTOCOL)
        shard_by_pred = {
            pred: _shard_rows(
                rel.row_list,
                pool.workers,
                None if aligned_cols is None else aligned_cols[pred],
            )
            for pred, rel in delta_by_pred.items()
            if ship_delta and len(rel)
        }
        for index in range(pool.workers):
            shard = [
                (pred, len(bucket), _columns_of(bucket))
                for pred, by_worker in shard_by_pred.items()
                for bucket in (by_worker[index],)
                if bucket
            ]
            try:
                pool.conns[index].send(("task", shared, shard))
            except (BrokenPipeError, OSError) as exc:
                raise WorkerFailure(
                    f"worker {index} died before dispatch "
                    f"({exc.__class__.__name__})"
                ) from exc

        # Merge replies in arrival order, overlapping the master's
        # dedup work with the slower workers' compute.  Every decision
        # below is content-based (sets and sums), so arrival order
        # cannot change what is accepted.  A dead worker's pipe closes,
        # which wakes the wait; a stopped but live one blocks it.
        round_max_cpu = 0.0
        accepted_rows: "dict[str, list[tuple]]" = {}
        batch_seen: "dict[str, set]" = {}
        outstanding = set(range(pool.workers))
        while outstanding:
            by_conn = {pool.conns[i]: i for i in outstanding}
            for conn in _conn_wait(list(by_conn)):
                index = by_conn[conn]
                kind, payload = pool.recv(index)
                if kind == "error":
                    raise _worker_error(index, payload)
                outstanding.discard(index)
                cpu = payload["cpu"]
                report = worker_report[index]
                report["tasks"] += 1
                report["cpu_seconds"] += cpu
                report["wall_seconds"] += payload["elapsed"]
                round_max_cpu = max(round_max_cpu, cpu)
                wstats = payload["stats"]
                stats.probes += wstats["probes"]
                stats.env_allocations += wstats["env_allocations"]
                stats.index_builds += wstats["index_builds"]
                for plan_id, count, rows in payload["plans"]:
                    stats.rule_firings += count
                    stats.rows_scanned += rows
                    key = plan_meta[plan_id][0]
                    stats.rows_scanned_by_rule[key] = (
                        stats.rows_scanned_by_rule.get(key, 0) + rows
                    )
                results = 0
                accepted = 0
                for plan_id, n, cols in payload["heads"]:
                    head_pred = plan_meta[plan_id][1]
                    results += n
                    if aligned_cols is not None:
                        # Partition ownership: the shipping worker is
                        # the only process that can derive these rows
                        # and its mirror is complete for its partition,
                        # so every row is fresh by construction.
                        accepted_rows.setdefault(head_pred, []).extend(
                            _rows_of(n, cols)
                        )
                        accepted += n
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
                report["results"] += results
                report["accepted"] += accepted
        self.barrier_max_cpu += round_max_cpu
        for pred, acc in accepted_rows.items():
            if not acc:
                continue
            idb[pred].add_fresh(acc)
            accept_log[pred].extend(acc)
            new_delta[pred].add_fresh(acc)
            stats.facts_derived += len(acc)


def evaluate_sharded(
    program: Program,
    database: Database,
    *,
    workers: int,
    pool: WorkerPool | None = None,
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

    The run is neither traced nor governed.  A worker that dies or
    fails ends it with an error (see :func:`_worker_error`); a pool
    built here is closed either way.
    """
    if not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive int, got {workers!r}")
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
    driver = _Driver(program, database, tracer=NULL_TRACER)
    own_pool = pool is None
    if own_pool:
        pool = WorkerPool(program, database, workers)
    try:
        return driver.run(_ShardedExecutor(driver, pool, started_cpu))
    finally:
        if own_pool:
            pool.close()
