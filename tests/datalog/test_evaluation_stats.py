"""EvaluationStats: as_dict parity and merge."""

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
        "budget_trips": 0,
        "wall_time_seconds": 0.0,
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
        "budget_trips": 3,
        "wall_time_seconds": 0.75,
        "rows_scanned_by_rule": {"r": 7, "s": 1, "t": 3},
    }


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
