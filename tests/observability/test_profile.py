"""The evaluation profiler: aggregation, top-k, rendering."""

from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.observability import (
    RingBufferSink,
    build_profile,
    profile_evaluation,
    tracing,
)
from repro.persist import Session
from repro.workloads.generators import good_path_bidirectional_database
from repro.workloads.programs import good_path


def _workload():
    program, _ = good_path()
    database = good_path_bidirectional_database(num_chains=2, chain_length=8, seed=0)
    return program, database


def test_profile_totals_match_evaluation_stats():
    program, database = _workload()
    profile, result = profile_evaluation(program, database)
    stats = result.stats
    assert sum(r.firings for r in profile.rules.values()) == stats.rule_firings
    assert sum(r.probes for r in profile.rules.values()) == stats.probes
    assert sum(r.facts_derived for r in profile.rules.values()) == stats.facts_derived
    assert profile.iterations == stats.iterations
    assert profile.sccs >= 1
    assert profile.total_time > 0


def test_profile_answers_unchanged():
    program, database = _workload()
    # Independent copies: hash indexes are cached on the Relation objects,
    # so a shared database would make index_builds differ between runs.
    baseline = evaluate(program, database.copy())
    _, result = profile_evaluation(program, database.copy())
    assert result.query_rows() == baseline.query_rows()
    # Wall time is never identical between runs; every other counter must be.
    profiled = result.stats.as_dict()
    expected = baseline.stats.as_dict()
    profiled.pop("wall_time_seconds")
    expected.pop("wall_time_seconds")
    assert profiled == expected


def test_top_rules_ordering_and_keys():
    program, database = _workload()
    profile, _ = profile_evaluation(program, database)
    by_time = profile.top_rules(10, key="time")
    assert [r.time for r in by_time] == sorted((r.time for r in by_time), reverse=True)
    by_facts = profile.top_rules(2, key="facts_derived")
    assert len(by_facts) == 2
    assert by_facts[0].facts_derived >= by_facts[1].facts_derived


def test_render_contains_rules_and_predicates():
    program, database = _workload()
    profile, _ = profile_evaluation(program, database)
    text = profile.render(top=3)
    assert "rule" in text and "predicate" in text
    assert "path" in text and "goodPath" in text
    assert "hit" in text  # probe hit-rate column


def test_build_profile_from_captured_events_matches_helper():
    program, database = _workload()
    sink = RingBufferSink()
    with tracing(sink):
        evaluate(program, database)
    profile = build_profile(sink)
    helper_profile, _ = profile_evaluation(program, database)
    assert set(profile.rules) == set(helper_profile.rules)
    for name, rule in profile.rules.items():
        other = helper_profile.rules[name]
        assert (rule.firings, rule.probes, rule.facts_derived) == (
            other.firings,
            other.probes,
            other.facts_derived,
        )


def test_naive_strategy_profiles_too():
    program, database = _workload()
    profile, result = profile_evaluation(program, database, strategy="naive")
    assert sum(r.firings for r in profile.rules.values()) == result.stats.rule_firings
    assert profile.iterations == result.stats.iterations


def test_ingest_is_traced_and_profiled_like_a_cold_run():
    """An incremental ingest runs on the shared fixpoint driver, so it
    emits the same span kinds a cold run does — tagged with its seed —
    and the profiler renders it."""
    program, database = _workload()
    base, held_back = {}, []
    for pred in sorted(database.predicates()):
        rows = sorted(database.relation(pred).rows())
        base[pred] = rows[: len(rows) // 2]
        held_back.extend((pred, row) for row in rows[len(rows) // 2 :])
    session = Session(program, Database.from_rows(base, storage="columnar"))
    before = session.run().stats
    with tracing(RingBufferSink()) as tracer:
        outcome = session.ingest(held_back)
    assert outcome.mode == "incremental"
    events = list(tracer.sinks[0])
    spans = {e.name for e in events if e.kind == "span"}
    assert {"evaluate", "scc", "rule"} <= spans
    assert any(e.kind == "event" and e.name == "iteration" for e in events)
    (root,) = [e for e in events if e.name == "evaluate"]
    assert root.attrs["seed"] == "ingest"
    assert root.attrs["facts_derived"] == outcome.stats.facts_derived
    profile = build_profile(events)
    new_facts = outcome.stats.facts_derived - before.facts_derived
    assert new_facts > 0
    assert sum(r.facts_derived for r in profile.rules.values()) == new_facts
    assert profile.iterations == outcome.stats.iterations - before.iterations
    assert "rule" in profile.render(top=3)
    # dictionary re-use is accounted on columnar storage, cumulatively
    assert outcome.stats.intern_hits > before.intern_hits
