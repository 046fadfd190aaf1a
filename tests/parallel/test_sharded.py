"""The sharded evaluator's own contract: argument validation, the
pool protocol, the sharding report, and worker-death failure modes.

Cross-engine *agreement* (digests, iterations, work counters) lives in
``tests/datalog/test_engines_agree.py``; this file covers everything
around the fixpoint itself.
"""

import multiprocessing

import pytest

from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_program
from repro.digest import fixpoint_digest
from repro.parallel import WorkerFailure, WorkerPool, engine, evaluate_sharded, worker
from repro.workloads.generators import random_workload


def _workload(seed=21, **kwargs):
    kwargs.setdefault("nodes", 8)
    kwargs.setdefault("edges", 40)
    program, database, _ = random_workload(seed, **kwargs)
    return program, database.to_storage("columnar")


def _digest(result):
    return fixpoint_digest([("workload", result.idb)])


# ----------------------------------------------------------------------
# Validation


class TestValidation:
    def test_rejects_non_positive_workers(self):
        program, database = _workload()
        with pytest.raises(ValueError, match="positive int"):
            evaluate_sharded(program, database, workers=0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            WorkerPool(program, database, 0)

    def test_pool_requires_columnar_database(self):
        program, database, _ = random_workload(0)
        with pytest.raises(ValueError, match="columnar"):
            WorkerPool(program, database, 2)  # rows backend


class TestPoolMismatch:
    def test_worker_count_mismatch(self):
        program, database = _workload(0, nodes=4, edges=6)
        with WorkerPool(program, database, 2) as pool:
            with pytest.raises(ValueError, match="pool has 2 workers"):
                evaluate_sharded(program, database, workers=4, pool=pool)

    def test_different_database_object(self):
        program, database = _workload(0, nodes=4, edges=6)
        with WorkerPool(program, database, 2) as pool:
            with pytest.raises(ValueError, match="different program/database"):
                evaluate_sharded(program, database.copy(), workers=2, pool=pool)


# ----------------------------------------------------------------------
# The sharding report and the pre-built pool path


def test_shards_report_shape_and_accounting():
    program, database = _workload()
    result = evaluate_sharded(program, database, workers=2)
    shards = result.shards
    assert shards["workers"] == 2
    assert len(shards["per_worker"]) == 2
    for report in shards["per_worker"]:
        assert set(report) == {
            "tasks", "cpu_seconds", "wall_seconds", "results", "accepted",
        }
        assert report["tasks"] >= 0 and report["cpu_seconds"] >= 0.0
    # Something was actually dispatched, and the modeled critical path
    # is master serial time plus at least one barrier's worker CPU.
    assert sum(r["tasks"] for r in shards["per_worker"]) > 0
    assert shards["critical_path_seconds"] >= shards["master_serial_seconds"]
    assert shards["master_serial_seconds"] >= 0.0


def test_prebuilt_pool_matches_own_pool_digest():
    program, database = _workload()
    own = evaluate_sharded(program, database.copy(), workers=2)
    pooled_db = database.copy().to_storage("columnar")
    with WorkerPool(program, pooled_db, 2) as pool:
        pooled = evaluate_sharded(program, pooled_db, workers=2, pool=pool)
    assert _digest(pooled) == _digest(own)
    assert pooled.stats.iterations == own.stats.iterations


def test_renaming_rules_shard_like_the_sequential_engine():
    # Renaming rules run loop-free (one set difference) on the master's
    # exit rules and as the workers' delta plans of a recursive SCC.
    program = parse_program(
        "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), q(Z, Y).\nq(X, Y) :- p(X, Y).\n"
        "r(X, Y) :- f(X, Y).\nr(X, Z) :- r(X, Y), p(Y, Z).\np(X, Y) :- r(X, Y).\n"
        "s(X, Y) :- q(X, Y).",
        query="s",
    )
    rows = {"e": [(i, i + 1) for i in range(12)] + [(12, 0)], "f": [(20 + i, i) for i in range(4)]}
    sequential = evaluate(program, Database.from_rows(rows, storage="columnar"))
    sharded = evaluate_sharded(program, Database.from_rows(rows, storage="columnar"), workers=2)
    assert _digest(sharded) == _digest(sequential)
    for counter in ("iterations", "rule_firings", "facts_derived", "rows_scanned"):
        assert getattr(sharded.stats, counter) == getattr(sequential.stats, counter), counter
    assert sharded.stats.rows_scanned_by_rule == sequential.stats.rows_scanned_by_rule
    assert len(sequential.rows("s")) == 17 * 13


# ----------------------------------------------------------------------
# Failure modes: a dead or failing worker ends the run


def test_dead_worker_before_dispatch_raises_worker_failure():
    program, database = _workload()
    pool = WorkerPool(program, database, 2)
    try:
        pool.procs[0].terminate()
        pool.procs[0].join(timeout=5.0)
        with pytest.raises(WorkerFailure, match="worker 0"):
            evaluate_sharded(program, database, workers=2, pool=pool)
    finally:
        pool.close()


def test_dead_worker_of_an_own_pool_leaves_no_children(monkeypatch):
    """With ``pool=None`` the run builds its pool, and a worker death
    still closes it: no worker process outlives the error."""

    class DoomedPool(WorkerPool):
        def __init__(self, *args):
            super().__init__(*args)
            self.procs[0].terminate()
            self.procs[0].join(timeout=5.0)

    monkeypatch.setattr(engine, "WorkerPool", DoomedPool)
    program, database = _workload()
    with pytest.raises(WorkerFailure):
        evaluate_sharded(program, database, workers=2)
    assert multiprocessing.active_children() == []


def test_a_worker_crash_is_a_worker_failure_carrying_its_traceback(monkeypatch):
    # Forked workers inherit the patched method.
    def crash(self, task):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr(worker._WorkerState, "run_task", crash)
    program, database = _workload()
    with pytest.raises(WorkerFailure, match="RuntimeError: kernel exploded"):
        evaluate_sharded(program, database, workers=2)
    assert multiprocessing.active_children() == []


def test_pool_close_is_idempotent():
    program, database = _workload(0, nodes=4, edges=6)
    pool = WorkerPool(program, database, 1)
    pool.close()
    pool.close()  # second close is a no-op, not an error


def test_pool_close_leaves_no_zombies():
    """After a worker death every worker process is reaped and closed."""
    program, database = _workload()
    pool = WorkerPool(program, database, 2)
    procs = list(pool.procs)
    pool.procs[0].terminate()
    pool.procs[0].join(timeout=5.0)
    pool.close()
    for proc in procs:
        # A closed Process raises ValueError on any operation: the pool
        # released the underlying handle, so no zombie can linger.
        with pytest.raises(ValueError):
            proc.is_alive()
