"""The sharded evaluator's own contract: argument validation, the
pool protocol, the sharding report, trace events, and worker-death
failure modes.

Cross-engine *agreement* (digests, iterations, work counters) lives in
``tests/datalog/test_engines_agree.py``; this file covers everything
around the fixpoint itself.
"""

import pytest

from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_program
from repro.digest import fixpoint_digest
from repro.observability import RingBufferSink, build_profile, tracing
from repro.parallel import WorkerFailure, WorkerPool, evaluate_sharded
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
# Trace events


def test_dispatch_and_merge_trace_events():
    program, database = _workload()
    sink = RingBufferSink()
    with tracing(sink):
        evaluate_sharded(program, database, workers=2)
    events = [e for e in sink.events if e.name.startswith("shard.")]
    dispatches = [e for e in events if e.name == "shard.dispatch"]
    merges = [e for e in events if e.name == "shard.merge"]
    assert dispatches and merges
    for event in dispatches:
        assert event.attrs["worker"] in (0, 1)
        assert event.attrs["delta_rows"] >= 0
    for event in merges:
        assert event.attrs["results"] >= 0
        assert event.attrs["accepted"] >= 0
        assert event.attrs["elapsed"] >= 0.0
    # Every dispatched (worker, scc, iteration) barrier merges back.
    dispatched = {
        (e.attrs["worker"], e.attrs["scc"], e.attrs["iteration"])
        for e in dispatches
    }
    merged = {
        (e.attrs["worker"], e.attrs["scc"], e.attrs["iteration"])
        for e in merges
    }
    assert dispatched == merged
    # ...and the profiler turns them into its per-worker table.
    assert "shard workers (2):" in build_profile(sink).render()


# ----------------------------------------------------------------------
# Failure modes and supervision


def test_dead_worker_is_recovered_not_fatal():
    """A worker dead before dispatch is respawned, not a WorkerFailure."""
    program, database = _workload()
    reference = evaluate(program, database.copy())
    pool = WorkerPool(program, database, 2)
    try:
        pool.procs[0].terminate()
        pool.procs[0].join(timeout=5.0)
        result = evaluate_sharded(program, database, workers=2, pool=pool)
    finally:
        pool.close()
    assert _digest(result) == _digest(reference)
    assert result.stats.worker_restarts >= 1
    assert result.stats.shards_redispatched >= 1
    assert result.stats.iterations == reference.stats.iterations
    assert result.stats.rule_firings == reference.stats.rule_firings


def test_recovery_exhaustion_raises_fleet_exhausted():
    """A worker that dies on every respawn drains the retry budget."""
    from repro.parallel import FleetExhausted, SupervisionPolicy
    from repro.persist.store import RetryPolicy

    program, database = _workload()
    pool = WorkerPool(program, database, 2)
    original_respawn = pool.respawn

    def doomed_respawn(index, *, idb=None):
        conn = original_respawn(index, idb=idb)
        pool.kill(index)  # replacement dies immediately
        return conn

    pool.respawn = doomed_respawn
    try:
        pool.procs[0].terminate()
        pool.procs[0].join(timeout=5.0)
        with pytest.raises(FleetExhausted, match="retry budget"):
            evaluate_sharded(
                program,
                database,
                workers=2,
                pool=pool,
                supervision=SupervisionPolicy(
                    retry=RetryPolicy(attempts=2, base_delay=0.0)
                ),
            )
    finally:
        pool.close()


def test_straggler_is_killed_and_recovered():
    """A SIGSTOP-ed worker trips the straggler timeout and is replaced."""
    import signal

    from repro.parallel import SupervisionPolicy
    from repro.persist.store import RetryPolicy

    program, database = _workload()
    reference = evaluate(program, database.copy())
    pool = WorkerPool(program, database, 2)
    try:
        import os

        os.kill(pool.procs[0].pid, signal.SIGSTOP)
        result = evaluate_sharded(
            program,
            database,
            workers=2,
            pool=pool,
            supervision=SupervisionPolicy(
                retry=RetryPolicy(base_delay=0.0),
                straggler_timeout=0.5,
            ),
        )
    finally:
        pool.close()
    assert _digest(result) == _digest(reference)
    assert result.stats.worker_restarts >= 1


def test_recovery_trace_events():
    """shard.retry and shard.respawn events are emitted on recovery."""
    program, database = _workload()
    pool = WorkerPool(program, database, 2)
    sink = RingBufferSink()
    try:
        pool.procs[1].terminate()
        pool.procs[1].join(timeout=5.0)
        with tracing(sink):
            evaluate_sharded(program, database, workers=2, pool=pool)
    finally:
        pool.close()
    retries = [e for e in sink.events if e.name == "shard.retry"]
    respawns = [e for e in sink.events if e.name == "shard.respawn"]
    assert retries and respawns
    assert retries[0].attrs["worker"] == 1
    assert "reason" in retries[0].attrs and retries[0].attrs["delay"] >= 0.0
    assert respawns[0].attrs["worker"] == 1


def test_pool_close_is_idempotent():
    program, database = _workload(0, nodes=4, edges=6)
    pool = WorkerPool(program, database, 1)
    pool.close()
    pool.close()  # second close is a no-op, not an error


def test_pool_close_leaves_no_zombies():
    """After an aborted round every worker process is reaped and closed."""
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
