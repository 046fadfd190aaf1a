"""Chaos-driven supervision tests: injected worker kills at the
dispatch/merge fault sites and the recovery counters.

The core invariant under test: a worker killed at *any* dispatch or
merge occurrence is recovered (respawn + shard re-dispatch) and the
result stays byte-identical to the sequential engine — digests,
iterations, ``rule_firings``, ``rows_scanned``, all of it — because
shards are pure functions of ``(round, partition)`` and a dead worker's
reply was never merged.
"""

import pytest

from repro.datalog.evaluation import EvaluationStats, evaluate
from repro.digest import fixpoint_digest
from repro.parallel import evaluate_sharded
from repro.robustness import FaultInjector
from repro.robustness.faults import chaos
from repro.workloads.generators import random_workload


def _workload(seed=21, **kwargs):
    kwargs.setdefault("nodes", 8)
    kwargs.setdefault("edges", 40)
    program, database, _ = random_workload(seed, **kwargs)
    return program, database.to_storage("columnar")


def _digest(result):
    return fixpoint_digest([("workload", result.idb)])


@pytest.fixture()
def reference():
    program, database = _workload()
    return evaluate(program, database.copy())


# ----------------------------------------------------------------------
# Injected worker kills at the dispatch / merge sites


class TestChaosWorkerKill:
    @pytest.mark.parametrize("occurrence", [1, 2, 3, 5])
    def test_kill_at_dispatch_recovers_byte_identical(self, reference, occurrence):
        program, database = _workload()
        injector = FaultInjector().arm("shard.dispatch", at=occurrence)
        with chaos(injector):
            result = evaluate_sharded(program, database, workers=2)
        assert injector.fired, "the armed occurrence must actually fire"
        assert _digest(result) == _digest(reference)
        assert result.stats.iterations == reference.stats.iterations
        assert result.stats.rule_firings == reference.stats.rule_firings
        assert result.stats.facts_derived == reference.stats.facts_derived
        assert result.stats.rows_scanned == reference.stats.rows_scanned
        assert result.stats.worker_restarts >= 1
        assert result.stats.shards_redispatched >= 1

    @pytest.mark.parametrize("occurrence", [1, 2])
    def test_kill_at_merge_recovers_byte_identical(self, reference, occurrence):
        # A merge-site kill lands *after* the reply was folded in, so
        # the kill costs nothing that round; the dead pipe engages
        # recovery at the next barrier's dispatch.
        program, database = _workload()
        injector = FaultInjector().arm("shard.merge", at=occurrence)
        with chaos(injector):
            result = evaluate_sharded(program, database, workers=2)
        assert injector.fired
        assert _digest(result) == _digest(reference)
        assert result.stats.rule_firings == reference.stats.rule_firings
        assert result.stats.worker_restarts >= 1

    def test_recovery_counters_in_per_rule_agreement(self, reference):
        # Per-rule rows_scanned — the strictest counter — survives a
        # mid-run worker kill and re-dispatch untouched.
        program, database = _workload()
        injector = FaultInjector().arm("shard.dispatch", at=2)
        with chaos(injector):
            result = evaluate_sharded(program, database, workers=2)
        assert (
            result.stats.rows_scanned_by_rule
            == reference.stats.rows_scanned_by_rule
        )


# ----------------------------------------------------------------------
# Stats plumbing for the recovery counters


class TestRecoveryStats:
    def test_as_dict_merge_from_dict_round_trip(self):
        stats = EvaluationStats()
        stats.worker_restarts = 2
        stats.shards_redispatched = 3
        payload = stats.as_dict()
        assert payload["worker_restarts"] == 2
        assert payload["shards_redispatched"] == 3
        rebuilt = EvaluationStats.from_dict(payload)
        assert rebuilt.worker_restarts == 2
        assert rebuilt.shards_redispatched == 3
        other = EvaluationStats()
        other.worker_restarts = 1
        other.shards_redispatched = 1
        rebuilt.merge(other)
        assert rebuilt.worker_restarts == 3
        assert rebuilt.shards_redispatched == 4

    def test_from_dict_tolerates_missing_recovery_keys(self):
        # Payloads written before the supervision layer existed.
        payload = EvaluationStats().as_dict()
        for key in ("worker_restarts", "shards_redispatched"):
            payload.pop(key)
        rebuilt = EvaluationStats.from_dict(payload)
        assert rebuilt.worker_restarts == 0
        assert rebuilt.shards_redispatched == 0

    def test_compare_covers_recovery_counters(self):
        a = EvaluationStats()
        b = EvaluationStats()
        b.worker_restarts = 1
        diff = a.compare(b)
        assert any("worker_restarts" in line for line in diff)


# ----------------------------------------------------------------------
# arm_random determinism across engines and fleet sizes (satellite)


class TestArmRandomDeterminism:
    @staticmethod
    def _fired(run=evaluate, seed=13, rate=0.35):
        program, database, _ = random_workload(5, nodes=6, edges=18)
        injector = FaultInjector(seed).arm_random("iteration", rate=rate)
        with chaos(injector):
            try:
                run(program, database)
            except Exception:
                pass
        return list(injector.fired)

    def test_same_seed_same_occurrences_across_engines_and_workers(self):
        # ``iteration`` fires once per semi-naive round in every
        # configuration, and the rng draw sequence depends only on the
        # observation sequence — so the faulted occurrences agree
        # across both storages and every fleet size.
        runs = [
            evaluate,
            lambda program, database: evaluate(program, database.to_storage("columnar")),
            *(
                lambda program, database, n=n: evaluate_sharded(program, database, workers=n)
                for n in (1, 2, 4)
            ),
        ]
        patterns = [self._fired(run) for run in runs]
        assert all(pattern == patterns[0] for pattern in patterns[1:])
        assert patterns[0], "the random arm must fire at least once"

    def test_different_seed_differs(self):
        # Seed 13 first fires at occurrence 1, seed 0 at occurrence 4
        # (the workload runs 7 rounds) — different seeds, different
        # faulted occurrences.
        base = self._fired(seed=13)
        other = self._fired(seed=0)
        assert base != other
