"""Engine agreement: the compiled engine over both storages computes
the fixpoint of the independent model (``tests/reference_model.py``
over ``perf/reference.py``) on random workloads.  Only rows storage is
reachable from a command or the daemon; columnar is built by direct
call.

``random_workload`` draws recursive programs that include negated EDB
literals and order-atom filters, so the property exercises every step
kind of the compiled engine against a model that shares no code with
it, over values and over interner codes on every workload; hand-written
cases add the shapes where codes and values part ways.
"""

import pytest

from repro.datalog.atoms import IncomparableValues
from repro.datalog.database import STORAGES, Database
from repro.datalog.evaluation import _INT_COUNTERS, evaluate
from repro.datalog.parser import parse_facts, parse_program
from repro.parallel import evaluate_sharded
from repro.digest import fixpoint_digest
from repro.workloads.generators import random_workload
from repro.workloads.programs import good_path
from repro.workloads.generators import good_path_bidirectional_database
from reference_model import model_fixpoint


def _agree_with_the_model(program, database):
    expected = model_fixpoint(program, database)
    for storage in STORAGES:
        result = evaluate(program, database.to_storage(storage))
        assert {pred: result.rows(pred) for pred in expected} == expected, storage


@pytest.mark.parametrize("seed", range(20))
def test_all_engines_agree_on_random_workloads(seed):
    program, database, _ = random_workload(seed)
    _agree_with_the_model(program, database)


@pytest.mark.parametrize("seed", range(20, 26))
def test_engines_agree_on_denser_graphs(seed):
    program, database, _ = random_workload(seed, nodes=8, edges=40)
    _agree_with_the_model(program, database)


# ----------------------------------------------------------------------
# The workers axis: the multiprocess sharded evaluator (repro.parallel)
# held to the sequential slot engine.  A WorkerPool is bound to one
# program + EDB, so every seed costs a fresh fork — seeds are pooled
# inside each worker-count case instead of crossed into the parametrize
# grid to keep the fork bill bounded.

WORKER_COUNTS = (1, 2, 4)

#: ``random_workload`` draws negated EDB literals and order-atom
#: filters at these seeds; the denser draws run enough semi-naive
#: rounds to exercise repeated barrier merges.
SHARDED_SEEDS = (
    (0, {}),
    (3, {}),
    (7, {}),
    (21, {"nodes": 8, "edges": 40}),
    (24, {"nodes": 8, "edges": 40}),
)


def _digest(result):
    return fixpoint_digest([("workload", result.idb)])


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sharded_evaluator_matches_sequential_slots(workers):
    """``evaluate_sharded`` must reproduce the sequential slot engine
    exactly: same fixpoint digest, same iteration count, and the
    same join-work counters — sharding redistributes the work, it never
    changes it (docs/parallel.md)."""
    for seed, kwargs in SHARDED_SEEDS:
        program, database, _ = random_workload(seed, **kwargs)
        sequential = evaluate(program, database.to_storage("columnar"))
        sharded = evaluate_sharded(
            program, database.to_storage("columnar"), workers=workers
        )
        label = f"seed={seed} workers={workers}"
        assert _digest(sharded) == _digest(sequential), label
        assert sharded.stats.iterations == sequential.stats.iterations, label
        assert sharded.stats.rule_firings == sequential.stats.rule_firings, label
        assert sharded.stats.facts_derived == sequential.stats.facts_derived, label
        assert sharded.stats.rows_scanned == sequential.stats.rows_scanned, label
        assert (
            sharded.stats.rows_scanned_by_rule
            == sequential.stats.rows_scanned_by_rule
        ), label
        assert sharded.shards is not None and sharded.shards["workers"] == workers


@pytest.mark.parametrize("storage", STORAGES)
def test_sharded_evaluator_agrees_across_input_storages(storage):
    """The sharded evaluator accepts either storage backend as input
    (converting to columnar for the hand-off) and lands on the same
    digest either way."""
    program, database, _ = random_workload(21, nodes=8, edges=40)
    sequential = evaluate(program, database.to_storage(storage))
    sharded = evaluate_sharded(program, database.to_storage(storage), workers=2)
    assert _digest(sharded) == _digest(sequential)
    assert sharded.stats.iterations == sequential.stats.iterations


def test_storages_agree_on_example31():
    """Example 3.1 (the paper's goodPath workload): both storages
    compute identical answers under the compiled engine, and every work
    counter but ``intern_hits`` is equal — one kernel does the same work
    over values and over codes."""
    program, _ = good_path()
    database = good_path_bidirectional_database(num_chains=3, chain_length=12, seed=0)

    rows = evaluate(program, database.copy())
    columnar = evaluate(program, database.to_storage("columnar"))

    assert columnar.query_rows() == rows.query_rows()
    for counter in _INT_COUNTERS:
        if counter != "intern_hits":
            assert getattr(columnar.stats, counter) == getattr(rows.stats, counter), counter
    assert columnar.stats.rows_scanned_by_rule == rows.stats.rows_scanned_by_rule


#: Where codes and values part ways: query, program, facts (loaded in
#: fact order, so codes follow first appearance), the answers or the
#: error, and whether the rule recurses (then it runs sharded too).
CODED_EDGE_CASES = {
    # "z" is code 0 and "a" code 1: the comparison must read values.
    "symbols-ordered-by-value": (
        "up",
        "up(X, Y) :- e(X, Y), X < Y.\nup(X, Z) :- up(X, Y), e(Y, Z), Y < Z.",
        'e("z", "a"). e("a", "z"). e("a", "m"). e("m", "z").',
        {("a", "m"), ("a", "z"), ("m", "z")},
        True,
    ),
    "mixed-family-comparison": (
        "big",
        "big(X) :- n(X), X > 3.",
        'n(5). n("abc").',
        IncomparableValues,
        False,
    ),
    # The comparison fails inside a worker's delta plan: its own error
    # reaches the caller, not a respawn loop.
    "incomparable-in-a-recursive-rule": (
        "big",
        "big(X, Y) :- e(X, Y).\nbig(X, Z) :- big(X, Y), e(Y, Z), Y > Z.",
        'e(1, "abc"). e("abc", 2). e(2, 1).',
        IncomparableValues,
        True,
    ),
    # A constant no row holds probes as the miss sentinel.
    "negated-constant-never-held": (
        "ok",
        'ok(X) :- n(X), not bad(X, "never").',
        "n(1). n(2). bad(1, 1).",
        {(1,), (2,)},
        False,
    ),
    # The master interns head constants before forking: no worker mints one.
    "head-constant-not-in-edb": (
        "tag",
        'tag(X, "seen") :- e(X, Y).\ntag(Y, "seen") :- tag(X, "seen"), e(X, Y).',
        "e(1, 2). e(2, 3).",
        {(1, "seen"), (2, "seen"), (3, "seen")},
        True,
    ),
}


@pytest.mark.parametrize("case", sorted(CODED_EDGE_CASES))
def test_storages_agree_on_coded_edge_cases(case):
    query, text, facts, expected, recursive = CODED_EDGE_CASES[case]
    program = parse_program(text, query=query)
    runs = {
        storage: lambda storage=storage: evaluate(
            program, Database(parse_facts(facts), storage=storage)
        )
        for storage in STORAGES
    }
    if recursive:
        runs["sharded-w2"] = lambda: evaluate_sharded(
            program, Database(parse_facts(facts), storage="columnar"), workers=2
        )
    for name, run in runs.items():
        if isinstance(expected, type):
            with pytest.raises(expected):
                run()
        else:
            assert run().query_rows() == expected, name


#: Rows the cost order scans on Example 3.1, per rule.  The greedy
#: bound-count order scanned 72 / 864 / 76 (1 012 in all): it probes
#: ``path`` before the 1-row ``endPoint``.
EXAMPLE31_SCANS = {
    "path(X, Y) :- step(X, Y).": 72,
    "path(X, Y) :- step(X, Z), path(Z, Y).": 864,
    "goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).": 13,
}


def test_example31_rows_scanned_regression():
    """The cost-ordered engine's scans on the Example 3.1 workload are
    pinned rule by rule, with the model's answers."""
    program, _ = good_path()
    database = good_path_bidirectional_database(num_chains=3, chain_length=12, seed=0)

    cost = evaluate(program, database.copy())

    assert cost.query_rows() == model_fixpoint(program, database)[program.query]
    assert cost.stats.rows_scanned_by_rule == EXAMPLE31_SCANS
    assert cost.stats.rows_scanned == sum(EXAMPLE31_SCANS.values())
