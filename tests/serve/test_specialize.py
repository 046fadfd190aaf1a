"""Seed-as-data specialization: cached reports answer like fresh runs.

The load-bearing invariant of the serving layer: a pipeline is
compiled once per (program shape, order, predicate, adornment)
and the one cached report answers every goal of the shape, the goal's
constants entering the fixpoint as a row of the magic seed predicate
(``PipelineReport.evaluation(db, goal)``) — for every cacheable order
exactly like a fresh ``run_pipeline`` over the same goal.
``magic-first`` is the counterexample (the semantic rewrite sees the
seed constants) and must bypass the cache.  Only a compile that
finished is ever stored.
"""

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.evaluation import evaluate
from repro.datalog.terms import Constant, Variable
from repro.magic import run_pipeline
from repro.magic.pipeline import (
    CACHEABLE_ORDERS,
    PIPELINE_ORDERS,
    artifact_key,
    specialize_pipeline,
)
from repro.magic.transform import match_query_atom
from repro.observability import RingBufferSink
from repro.observability.trace import tracing
from repro.robustness import Budget, BudgetExceededError, Governor
from repro.serve.cache import ArtifactCache
from repro.workloads.generators import ab_database
from repro.workloads.programs import ab_transitive_closure


@pytest.fixture()
def workload():
    program, constraints = ab_transitive_closure()
    database = ab_database(num_b=8, num_a=8, branching=2, seed=0)
    return program, constraints, database


def goal(constant, predicate="p"):
    return Atom(predicate, (Constant(constant), Variable("Y")))


def answers(report, database, query_atom):
    """``report.program`` evaluated as the complete program it is."""
    if report.program is None:
        return frozenset()
    result = evaluate(report.program, database.copy())
    return frozenset(
        row for row in result.query_rows() if match_query_atom(row, query_atom)
    )


def test_cacheable_orders_excludes_magic_first():
    assert "magic-first" not in CACHEABLE_ORDERS
    assert set(CACHEABLE_ORDERS) < set(PIPELINE_ORDERS)


def test_another_goal_is_rejected_under_magic_first(workload):
    program, constraints, database = workload
    report = run_pipeline(program, constraints, goal(0), order="magic-first")
    with pytest.raises(ValueError, match="magic-first"):
        report.evaluation(database, goal(1))
    assert report.answers(database, goal(0)) == answers(report, database, goal(0))


def test_specialize_rejects_shape_mismatch(workload):
    program, constraints, database = workload
    report = run_pipeline(program, constraints, goal(0), order="semantic-first")
    with pytest.raises(ValueError):
        report.evaluation(database, goal(0, predicate="q"))
    with pytest.raises(ValueError):  # bb adornment, the report is bf
        report.evaluation(database, Atom("p", (Constant(0), Constant(1))))


def test_another_goal_is_a_seed_row_not_a_new_program(workload):
    program, constraints, database = workload
    compiled = run_pipeline(program, constraints, goal(0))
    fresh = run_pipeline(program, constraints, goal(7))
    seedless = compiled._seedless
    assert compiled.answers(database, goal(7)) == answers(fresh, database, goal(7))
    # Same work counters as the complete program a fresh compile prints
    # (bar the two environments a compiled seed rule would allocate) ...
    served = compiled.evaluation(database, goal(7)).stats.as_dict()
    whole = evaluate(fresh.program, database).stats.as_dict()
    assert whole.pop("env_allocations") == served.pop("env_allocations") + 2
    for noisy in ("wall_time_seconds", "rows_scanned_by_rule"):
        served.pop(noisy), whole.pop(noisy)
    assert served == whole
    # ... from one shared constant-free program; the report is as it was.
    assert compiled._seedless is seedless
    assert seedless.rules == compiled.program.rules[1:]
    assert compiled.query_atom == goal(0)
    assert compiled.magic.seed.head.args == (Constant(0),)


def test_an_aborted_compile_is_never_cached(workload):
    """The poisoned-cache regression: a budget that trips inside the
    rewrite raises, and the next query of the shape compiles afresh."""
    program, constraints, _ = workload
    cache = ArtifactCache()
    with pytest.raises(BudgetExceededError) as info:
        specialize_pipeline(
            program, constraints, goal(0), cache=cache,
            budget=Governor(Budget(timeout=1e-3)),
        )
    assert info.value.phase in {"optimize", "adornments", "querytree", "pipeline"}
    assert len(cache) == 0
    healthy = run_pipeline(program, constraints, goal(1))
    second, hit_second = specialize_pipeline(program, constraints, goal(1), cache=cache)
    assert hit_second is False
    assert len(second.program.rules) == len(healthy.program.rules)
    assert second.magic is not None
    third, hit_third = specialize_pipeline(program, constraints, goal(2), cache=cache)
    assert hit_third is True
    assert third is second  # the shared report, compiled for goal(1)


@pytest.mark.parametrize("order", CACHEABLE_ORDERS)
def test_cached_artifact_answers_like_fresh_pipeline(workload, order):
    program, constraints, database = workload
    cache = ArtifactCache()
    for constant in (0, 1, 2):
        query_atom = goal(constant)
        cached, hit = specialize_pipeline(
            program, constraints, query_atom, order=order, cache=cache
        )
        fresh = run_pipeline(program, constraints, query_atom, order=order)
        assert hit is (constant > 0)
        assert cached.answers(database, query_atom) == answers(
            fresh, database, query_atom
        )
    assert len(cache) == 1  # one artifact served all three constants


def test_magic_first_bypasses_the_cache(workload):
    program, constraints, database = workload
    cache = ArtifactCache()
    sink = RingBufferSink()
    with tracing(sink):
        report, hit = specialize_pipeline(
            program, constraints, goal(0), order="magic-first", cache=cache
        )
    assert hit is False
    assert len(cache) == 0
    fresh = run_pipeline(program, constraints, goal(0), order="magic-first")
    assert answers(report, database, goal(0)) == answers(fresh, database, goal(0))
    events = [e for e in sink if e.kind == "event" and e.name == "serve.cache"]
    assert events and events[0].attrs["cacheable"] is False


def test_cache_site_emits_hit_and_miss_trace_events(workload):
    program, constraints, _ = workload
    cache = ArtifactCache()
    sink = RingBufferSink()
    with tracing(sink):
        specialize_pipeline(program, constraints, goal(0), cache=cache)
        specialize_pipeline(program, constraints, goal(1), cache=cache)
    events = [e for e in sink if e.kind == "event" and e.name == "serve.cache"]
    assert [e.attrs["hit"] for e in events] == [False, True]
    assert all(e.attrs["cacheable"] for e in events)


def test_artifact_key_is_data_independent(workload):
    """The key hashes program shape — ingesting EDB facts never
    invalidates a compiled artifact."""
    program, constraints, _ = workload
    key_before = artifact_key(program, constraints, goal(0), order="semantic-first")
    # Same program, any database state: the key has no database input
    # at all, and differing constants map to the same key (seed swap).
    assert key_before == artifact_key(
        program, constraints, goal(7), order="semantic-first"
    )
    assert key_before != artifact_key(
        program, constraints, goal(0), order="magic-only"
    )
    assert key_before != artifact_key(
        program,
        constraints,
        Atom("p", (Constant(0), Constant(1))),
        order="semantic-first",
    )


def test_unsatisfiable_artifact_is_cached(workload):
    """A constraint-refuted shape caches as unsatisfiable too."""
    from repro.datalog.parser import parse_constraints, parse_program

    program = parse_program(
        "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).", query="p"
    )
    constraints = tuple(parse_constraints(":- e(X, Y)."))
    cache = ArtifactCache()
    first, hit_first = specialize_pipeline(
        program, constraints, goal(0), cache=cache
    )
    second, hit_second = specialize_pipeline(
        program, constraints, goal(1), cache=cache
    )
    assert (hit_first, hit_second) == (False, True)
    assert first.program is None and second.program is None
