"""The shard worker: one process of the sharded semi-naive fleet.

A worker is a *mirror* of the master's evaluation state.  It is warmed
exactly once with the program, the EDB (shipped as
``Database.to_dict(include_interner=True)``, so dictionary codes are
reproduced verbatim), the IDB seed as plain rows, and the workload
digest the worker checks the shipped program and EDB against.  After
that it answers barrier tasks:

1. apply the interner extension (values the master interned since the
   last barrier — normally empty, because the master pre-interns every
   rule-head constant before warm-up),
2. apply the IDB updates — code rows the master accepted since its
   per-predicate ship cursor.  The master ships a predicate's rows
   only for barriers whose plans actually *read* that predicate
   through a non-delta literal, and the worker materializes them into
   the mirror relation lazily, on the first read: predicates
   that are only ever delta-scanned and head-derived (plain transitive
   closures, say) cost the fleet nothing to keep in sync,
3. optionally compile the delta plans of the SCC about to iterate.
   The compile message carries the master's relation sizes at its own
   compile point, so cost-based plan orders come out identical in
   every process — which is what makes per-rule ``rows_scanned``
   byte-identical to the sequential engine,
4. run its delta shard through the requested plans — the generated
   kernels of :meth:`~repro.datalog.plan.RulePlan.run`, over codes, as
   a sequential columnar evaluation runs them — and ship back the head
   rows they find fresh against its mirror, less everything it has
   already shipped.

Workers never assign new interner codes (the guard in
:meth:`_WorkerState.run_task` turns a violation into a loud protocol
error instead of a silent digest divergence) and never accept facts
from their own results — the master is the single authority on which
facts are new; acceptance comes back as a later barrier's updates.

Row payloads travel transposed (``(n, [column, ...])`` of int codes):
lists of small ints pickle several times faster than lists of tuples,
and both ends transpose cheaply.

The per-task ``deadline`` is the master governor's remaining wall-clock
slice; a worker that trips it replies ``("abort", ...)`` with whatever
head rows it had already produced (every one of them is a sound
derivation, so the master may fold them into the partial fixpoint).
"""

from __future__ import annotations

import pickle
import signal
import time
import traceback

from ..datalog.database import Database, Frontier
from ..datalog.evaluation import EvaluationStats
from ..datalog.plan import DEFAULT_IDB_ESTIMATE, compile_rule
from ..digest import workload_digest
from ..robustness.budget import Budget, Governor
from ..robustness.errors import EvaluationAborted

__all__ = ["worker_main"]


def _rows_of(n: int, columns) -> list[tuple[int, ...]]:
    """Transpose shipped columns back into code tuples."""
    if not columns:
        return [()] * n
    return list(zip(*columns))


def _columns_of(rows) -> list[list[int]]:
    """Transpose code tuples into per-position columns for shipping."""
    return [list(column) for column in zip(*rows)]


class _WorkerState:
    """Everything one worker process keeps between barriers."""

    def __init__(self, payload: dict):
        self.index: int = payload["index"]
        self.workers: int = payload["workers"]
        self.program = payload["program"]
        database = Database.from_dict(payload["edb"])
        if database.storage != "columnar":
            database = database.to_storage("columnar")
        self.database = database
        self.interner = database.interner
        if payload["workload"] != workload_digest(self.program, self.database):
            raise ValueError(
                "worker warm-start IDB does not match the shipped "
                "program/EDB (workload digest mismatch)"
            )
        expected = payload.get("interner_digest")
        if expected is not None and self.interner.digest() != expected:
            raise ValueError(
                "worker interner diverged from master during warm-start "
                "(value-table digest mismatch)"
            )
        # Per-IDB-predicate mirror state: the materialized relation the
        # kernels read, the authoritative code row set (updates land
        # here immediately), and the backlog of rows not yet flushed
        # into the relation.
        self.idb: dict = {}
        self.mirror: dict[str, set] = {}
        self.stale: dict[str, list] = {}
        # Everything this worker has ever shipped as a candidate head:
        # shipping a row twice is pure waste (the master either accepted
        # it — it can never become new again — or deduplicated it).
        self.shipped: dict[str, set] = {}
        for pred in self.program.idb_predicates:
            relation = database.new_relation(self.program.arity_of(pred))
            for row in payload["idb"].get(pred, ()):
                relation.add(row)
            self.idb[pred] = relation
            self.mirror[pred] = set(relation.all_rows())
            self.stale[pred] = []
            self.shipped[pred] = set()
        self.plans: list = []
        self.sizes: dict[str, int] = {}
        # Aligned mode (set per SCC by the compile message): partition
        # column per member predicate, plus the locally-retained
        # frontier — the candidates this worker accepted last round,
        # which *are* its delta shard for the next round.
        self.aligned: "dict[str, int] | None" = None
        self.frontier: dict[str, list] = {}

    # -- plan compilation ------------------------------------------------
    def _size_of(self, literal) -> float:
        size = self.sizes.get(literal.predicate)
        if size is not None:
            return float(size) or float(DEFAULT_IDB_ESTIMATE)
        return float(
            len(self.database.relation(literal.predicate, literal.atom.arity))
        )

    def _compile(self, compile_payload: dict) -> None:
        # The master's IDB sizes at its compile point, so cost-based
        # orders match a sequential run's exactly (the local mirrors may
        # be lazily behind for predicates no plan reads).
        self.sizes = compile_payload["sizes"]
        self.aligned = compile_payload.get("aligned")
        self.frontier = {}
        self.plans = [
            compile_rule(
                self.program.rules[rule_index],
                delta_index,
                size_of=self._size_of,
            )
            for rule_index, delta_index in compile_payload["specs"]
        ]

    def _absorb(self, predicate: str, rows) -> None:
        """Record accepted rows in the mirror (and the flush backlog)."""
        mirror = self.mirror[predicate]
        backlog = self.stale[predicate]
        for codes in rows:
            if codes not in mirror:
                mirror.add(codes)
                backlog.append(codes)

    def _relation_of(self, predicate: str, arity: int):
        relation = self.idb.get(predicate)
        if relation is None:
            return self.database.relation(predicate, arity)
        backlog = self.stale[predicate]
        if backlog:
            relation.add_fresh(backlog)  # new to the mirror, so to the relation
            backlog.clear()
        return relation

    # -- one barrier task ------------------------------------------------
    def run_task(self, task: dict) -> tuple:
        task_started = time.perf_counter()
        task_cpu0 = time.process_time()
        interner = self.interner
        for value in task.get("intern", ()):
            interner.intern(value)
        for pred, n, columns in task.get("updates", ()):
            self._absorb(pred, _rows_of(n, columns))
        if task.get("compile") is not None:
            self._compile(task["compile"])
        aligned = self.aligned

        stats = EvaluationStats()
        plan_results: list[tuple[int, int, int]] = []
        heads: list[tuple[int, int, list[list[int]]]] = []
        plan_ids = task.get("plans") or ()
        if not plan_ids:
            return ("ok", self._reply(plan_results, heads, stats, task_started, task_cpu0))

        deadline = task.get("deadline")
        governor = None
        if deadline is not None:
            # The master's remaining wall-clock slice.  A non-positive
            # slice still constructs a governor: its first tick trips,
            # which is exactly the abort the fleet wants.
            governor = Governor(Budget(timeout=max(deadline, 1e-9)))

        delta_rows: dict[str, list] = {}
        for pred, n, columns in task.get("delta", ()):
            rows = _rows_of(n, columns)
            if aligned is not None:
                # Shipped shards in aligned mode are accepted facts
                # (the exit layer): absorbing
                # them completes this worker's partition of the mirror,
                # which is what makes the local dedup exact.
                self._absorb(pred, rows)
            delta_rows.setdefault(pred, []).extend(rows)
        if aligned is not None and self.frontier:
            for pred, rows in self.frontier.items():
                if rows:
                    delta_rows.setdefault(pred, []).extend(rows)
            self.frontier = {}
        delta = {}
        for pred, rows in delta_rows.items():
            frontier = Frontier(self.program.arity_of(pred))
            # Distinct: a shard of the master's frontier, or (aligned, after
            # the first round) the rows this worker accepted last round.
            frontier.add_fresh(rows)
            delta[pred] = frontier

        # Workers must never mint codes: every value a plan can produce
        # (head constants included) was pre-interned by the master, so
        # any growth here means the mirrors have diverged.
        expected_values = len(interner)
        try:
            for plan_id in plan_ids:
                plan = self.plans[plan_id]
                delta_relation = delta.get(plan.delta_predicate)
                if delta_relation is None or not len(delta_relation):
                    continue
                head_pred = plan.rule.head.predicate
                mirror = self.mirror[head_pred]
                rows_before = stats.rows_scanned
                matches, found = plan.run(
                    self._relation_of,
                    delta_relation,
                    mirror,
                    stats,
                    governor=governor,
                    interner=interner,
                )
                plan_results.append(
                    (plan_id, matches, stats.rows_scanned - rows_before)
                )
                if aligned is not None:
                    # This worker owns the head row's partition, so the
                    # mirror check is exact: fresh here means fresh on
                    # the master too.  Accepted rows join the mirror at
                    # once (round-local dedup across plans, like the
                    # sequential engine's immediate IDB insert) and the
                    # frontier (next round's local delta shard).
                    fresh = list(found)
                    mirror.update(fresh)
                    self.stale[head_pred] += fresh
                    self.frontier.setdefault(head_pred, []).extend(fresh)
                else:
                    shipped = self.shipped[head_pred]
                    fresh = [codes for codes in found if codes not in shipped]
                    shipped.update(fresh)
                if fresh:
                    heads.append((plan_id, len(fresh), _columns_of(fresh)))
        except EvaluationAborted as exc:
            reply = self._reply(plan_results, heads, stats, task_started, task_cpu0)
            reply["limit"] = exc.limit or "timeout"
            reply["message"] = str(exc)
            return ("abort", reply)
        if len(interner) != expected_values:
            raise RuntimeError(
                "worker interned "
                f"{len(interner) - expected_values} new value(s) during a "
                "task; master and worker dictionaries have diverged"
            )
        return ("ok", self._reply(plan_results, heads, stats, task_started, task_cpu0))

    @staticmethod
    def _reply(plan_results, heads, stats: EvaluationStats, started: float, cpu0: float) -> dict:
        return {
            "plans": plan_results,
            "heads": heads,
            "elapsed": time.perf_counter() - started,
            "cpu": time.process_time() - cpu0,
            "stats": {
                "probes": stats.probes,
                "env_allocations": stats.env_allocations,
                "index_builds": stats.index_builds,
                "rows_scanned": stats.rows_scanned,
            },
        }


def worker_main(conn) -> None:
    """The worker process entry point: a warm-then-serve message loop.

    The protocol is strictly synchronous — the master sends one message
    per worker per barrier and then receives one reply per worker — so
    a plain blocking loop over the pipe is deadlock-free.  Task
    messages arrive as ``("task", shared_blob, shard)``: the shared
    part (updates, compile specs, deadline) is pickled once by the
    master and broadcast; only the delta shard differs per worker.
    SIGINT is ignored: on Ctrl-C the master coordinates shutdown by
    closing the pipes (recv raises EOFError and the worker exits).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    state: _WorkerState | None = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            return
        try:
            if kind == "start":
                state = _WorkerState(message[1])
                conn.send(
                    (
                        "ready",
                        {
                            "index": state.index,
                            "values": len(state.interner),
                            "interner_digest": state.interner.digest(),
                        },
                    )
                )
            elif kind == "task":
                if state is None:
                    raise RuntimeError("task received before warm-start")
                task = pickle.loads(message[1])
                task["delta"] = message[2]
                conn.send(state.run_task(task))
            else:
                raise RuntimeError(f"unknown message kind {kind!r}")
        except Exception:
            try:
                conn.send(("error", {"message": traceback.format_exc()}))
            except (BrokenPipeError, OSError):
                return
