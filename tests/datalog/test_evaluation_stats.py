"""EvaluationStats: as_dict parity, merge, and compare's zero guards."""

import math

from repro.datalog.evaluation import EvaluationStats


def _stats(**overrides):
    base = dict(
        rule_firings=4,
        probes=10,
        rows_scanned=20,
        facts_derived=8,
        iterations=3,
        index_builds=2,
        env_allocations=6,
    )
    base.update(overrides)
    return EvaluationStats(**base)


def test_as_dict_covers_every_counter_including_iterations():
    stats = _stats(rows_scanned_by_rule={"r": 20})
    payload = stats.as_dict()
    # Parity with the dataclass fields: nothing missing, nothing extra.
    assert payload == {
        "rule_firings": 4,
        "probes": 10,
        "rows_scanned": 20,
        "facts_derived": 8,
        "iterations": 3,
        "index_builds": 2,
        "env_allocations": 6,
        "intern_hits": 0,
        "block_probes": 0,
        "budget_trips": 0,
        "wall_time_seconds": 0.0,
        "worker_restarts": 0,
        "shards_redispatched": 0,
        "rows_scanned_by_rule": {"r": 20},
    }
    assert set(payload) == set(EvaluationStats.__dataclass_fields__)


def test_as_dict_copies_the_per_rule_breakdown():
    stats = _stats(rows_scanned_by_rule={"r": 20})
    payload = stats.as_dict()
    payload["rows_scanned_by_rule"]["r"] = 999
    assert stats.rows_scanned_by_rule == {"r": 20}


def test_merge_sums_every_counter():
    left = _stats(
        rows_scanned_by_rule={"r": 5, "s": 1},
        budget_trips=1,
        wall_time_seconds=0.25,
    )
    left.merge(
        _stats(
            iterations=5,
            rows_scanned_by_rule={"r": 2, "t": 3},
            intern_hits=7,
            block_probes=4,
            budget_trips=2,
            wall_time_seconds=0.5,
        )
    )
    assert left.as_dict() == {
        "rule_firings": 8,
        "probes": 20,
        "rows_scanned": 40,
        "facts_derived": 16,
        "iterations": 8,
        "index_builds": 4,
        "env_allocations": 12,
        "intern_hits": 7,
        "block_probes": 4,
        "budget_trips": 3,
        "wall_time_seconds": 0.75,
        "worker_restarts": 0,
        "shards_redispatched": 0,
        "rows_scanned_by_rule": {"r": 7, "s": 1, "t": 3},
    }


def test_merge_is_order_independent():
    """Sharded evaluation merges per-worker stats in arrival order,
    which varies run to run — the merged result (including the float
    wall time, summed in integer nanoseconds, and the per-rule dict's
    insertion order) must not depend on it."""
    import random

    parts = [
        _stats(
            rule_firings=i,
            probes=i * 3,
            rows_scanned=i * 7,
            facts_derived=i * 2,
            iterations=i,
            wall_time_seconds=0.1 * i + 1e-9 * i,
            budget_trips=i % 2,
            rows_scanned_by_rule={f"r{i % 3}": i, f"s{i % 5}": 2 * i},
        )
        for i in range(12)
    ]
    reference = None
    rng = random.Random(0)
    for _ in range(20):
        order = parts[:]
        rng.shuffle(order)
        merged = EvaluationStats()
        for part in order:
            merged.merge(part)
        payload = merged.as_dict()
        # Bitwise equality, including the float and dict key order.
        if reference is None:
            reference = payload
        assert payload == reference
        assert list(payload["rows_scanned_by_rule"]) == sorted(
            payload["rows_scanned_by_rule"]
        )
        assert merged.wall_time_seconds == reference["wall_time_seconds"]


def test_compare_ratios():
    baseline = _stats(budget_trips=2)
    half = EvaluationStats(
        rule_firings=2,
        probes=5,
        rows_scanned=10,
        facts_derived=4,
        iterations=3,
        index_builds=1,
        env_allocations=3,
        budget_trips=1,
    )
    ratios = baseline.compare(half)
    assert ratios["probes"] == 0.5
    assert ratios["index_builds"] == 0.5
    assert ratios["env_allocations"] == 0.5
    assert ratios["iterations"] == 1.0
    assert ratios["budget_trips"] == 0.5
    # Integer counters only: the per-rule dict has no meaningful ratio,
    # and wall time is a float too noisy to compare as a work ratio.
    assert set(ratios) == set(baseline.as_dict()) - {
        "rows_scanned_by_rule",
        "wall_time_seconds",
    }


def test_compare_zero_baseline_never_divides_by_zero():
    empty = EvaluationStats()
    other = _stats()
    ratios = empty.compare(other)
    # 0/0 -> 1.0 (no change), n/0 -> inf, and never an exception.
    # budget_trips, intern_hits, block_probes and the recovery counters
    # are zero on both sides here, so their ratios are 1.0.
    zero_on_both = {
        "budget_trips",
        "intern_hits",
        "block_probes",
        "worker_restarts",
        "shards_redispatched",
    }
    for key in zero_on_both:
        assert ratios[key] == 1.0
    assert all(
        math.isinf(value)
        for key, value in ratios.items()
        if key not in zero_on_both
    )
    assert empty.compare(EvaluationStats()) == {
        "rule_firings": 1.0,
        "probes": 1.0,
        "rows_scanned": 1.0,
        "facts_derived": 1.0,
        "iterations": 1.0,
        "index_builds": 1.0,
        "env_allocations": 1.0,
        "intern_hits": 1.0,
        "block_probes": 1.0,
        "budget_trips": 1.0,
        "worker_restarts": 1.0,
        "shards_redispatched": 1.0,
    }


def test_compare_zero_guard_covers_storage_counters():
    """The PR 4 zero-guard, re-asserted for the columnar counters: a
    rows-backend baseline has zero intern_hits/block_probes, and
    comparing a columnar run against it must yield inf, not raise."""
    rows_baseline = _stats()  # intern_hits == block_probes == 0
    columnar = _stats(intern_hits=12, block_probes=9)
    ratios = rows_baseline.compare(columnar)
    assert math.isinf(ratios["intern_hits"])
    assert math.isinf(ratios["block_probes"])
    # And the reverse direction divides normally.
    back = columnar.compare(rows_baseline)
    assert back["intern_hits"] == 0.0
    assert back["block_probes"] == 0.0


def test_compare_mixed_zero_and_nonzero_counters():
    baseline = EvaluationStats(rule_firings=0, probes=10)
    other = EvaluationStats(rule_firings=3, probes=0)
    ratios = baseline.compare(other)
    assert math.isinf(ratios["rule_firings"])
    assert ratios["probes"] == 0.0
    assert ratios["iterations"] == 1.0


def test_from_dict_round_trips_as_dict():
    stats = _stats(
        rows_scanned_by_rule={"r": 20}, budget_trips=1, wall_time_seconds=0.5
    )
    restored = EvaluationStats.from_dict(stats.as_dict())
    assert restored.as_dict() == stats.as_dict()


def test_from_dict_tolerates_missing_newer_fields():
    """Checkpoints written by an older build lack newer counters; they
    must load with zero defaults, not crash."""
    payload = _stats().as_dict()
    for key in ("budget_trips", "wall_time_seconds", "rows_scanned_by_rule"):
        del payload[key]
    restored = EvaluationStats.from_dict(payload)
    assert restored.budget_trips == 0
    assert restored.wall_time_seconds == 0.0
    assert restored.rows_scanned_by_rule == {}
    assert restored.rule_firings == 4


def test_merge_tolerates_stats_missing_newer_fields():
    class OldStats:
        """Stand-in for stats deserialized from an older checkpoint."""

        rule_firings = 3
        probes = 1
        rows_scanned = 2
        facts_derived = 1
        iterations = 1
        index_builds = 0
        env_allocations = 0
        # no budget_trips / wall_time_seconds / rows_scanned_by_rule

    current = _stats(budget_trips=2, wall_time_seconds=0.25)
    current.merge(OldStats())
    assert current.rule_firings == 7
    assert current.budget_trips == 2  # missing field treated as zero
    assert current.wall_time_seconds == 0.25


def test_compare_tolerates_dict_missing_newer_fields():
    baseline = _stats(budget_trips=2)
    ratios = baseline.compare(_stats())
    assert ratios["budget_trips"] == 0.0  # other side defaults to zero


def test_copy_is_independent():
    stats = _stats(rows_scanned_by_rule={"r": 5})
    clone = stats.copy()
    clone.rule_firings += 1
    clone.rows_scanned_by_rule["r"] = 99
    assert stats.rule_firings == 4
    assert stats.rows_scanned_by_rule == {"r": 5}
    assert clone.as_dict() != stats.as_dict()


def test_wall_time_is_populated_by_evaluate():
    from repro.datalog.database import Database
    from repro.datalog.evaluation import evaluate
    from repro.datalog.parser import parse_program

    program = parse_program(
        "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).", query="t"
    )
    database = Database.from_rows({"e": [(1, 2), (2, 3)]})
    result = evaluate(program, database)
    assert result.stats.wall_time_seconds > 0.0
    assert result.stats.budget_trips == 0
