"""Pipeline orders: equivalence on canonical + random workloads."""

import pytest

from repro import parse_atom, parse_constraints, parse_program
from repro.datalog.atoms import Atom
from repro.datalog.evaluation import evaluate
from repro.datalog.terms import Constant, Variable
from repro.magic import assert_equivalent, check_equivalence, run_pipeline
from repro.magic.pipeline import PIPELINE_ORDERS, query_atom_answers
from repro.workloads import (
    ab_database,
    ab_transitive_closure,
    flight_database,
    flight_routes,
    good_path_database,
    good_path_order_constraints,
    random_workload,
    same_generation,
    same_generation_database,
    taint_analysis,
    taint_database,
)


def _bound_atom(predicate, constant, arity):
    args = (Constant(constant),) + tuple(
        Variable(f"V{i}") for i in range(arity - 1)
    )
    return Atom(predicate, args)


def _workloads():
    program, ics = ab_transitive_closure()
    yield "ab", program, ics, ab_database(seed=1), _bound_atom("p", 0, 2)

    program, ics = good_path_order_constraints()
    db = good_path_database(num_chains=3, chain_length=8, seed=1)
    start = min(row[0] for row in db.relation("startPoint", 1))
    yield "goodPath", program, ics, db, _bound_atom("goodPath", start, 2)

    program, ics = same_generation()
    db = same_generation_database(depth=4, fanout=2, seed=1)
    yield "sg", program, ics, db, _bound_atom("query", 2, 2)

    program, ics = taint_analysis()
    db = taint_database(variables=30, flows=60, seed=1)
    sink = min(row[0] for row in db.relation("sink", 1))
    yield "taint", program, ics, db, _bound_atom("alarm", sink, 1)

    program, ics = flight_routes()
    yield "flight", program, ics, flight_database(seed=1), _bound_atom(
        "trip", 2, 2
    )


WORKLOADS = {name: rest for name, *rest in _workloads()}


@pytest.mark.parametrize("order", PIPELINE_ORDERS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_all_orders_preserve_answers(name, order):
    program, ics, database, atom = WORKLOADS[name]
    report = run_pipeline(program, ics, atom, order=order)
    assert report.satisfiable
    assert_equivalent(program, report, atom, database)


@pytest.mark.parametrize("seed", range(8))
def test_random_workloads_preserve_answers(seed):
    """Seeded random programs: magic alone and composed with the
    semantic rewrite answer exactly like the original."""
    program, database, atom = random_workload(seed)
    for order in ("magic-only", "semantic-first"):
        report = run_pipeline(program, (), atom, order=order)
        assert_equivalent(program, report, atom, database)


@pytest.mark.parametrize("name", ["ab", "goodPath", "sg"])
def test_magic_reduces_work_on_bound_queries(name):
    program, ics, database, atom = WORKLOADS[name]
    baseline = evaluate(program, database)
    for order in ("magic-only", "semantic-first"):
        report = run_pipeline(program, ics, atom, order=order)
        check = check_equivalence(program, report, atom, database)
        assert check.equivalent
        assert check.transformed_stats.facts_derived < baseline.stats.facts_derived


def test_unsatisfiable_query_yields_empty_program():
    program = parse_program("q(X) :- s(X), bad(X).", query="q")
    ics = parse_constraints(":- s(X), bad(X).")
    from repro.datalog.database import Database

    db = Database()
    db.add_row("s", (1,))
    atom = parse_atom("q(1)")
    for order in ("semantic-first", "magic-first"):
        report = run_pipeline(program, ics, atom, order=order)
        assert not report.satisfiable
        assert report.program is None
        assert report.answer_predicate is None
        assert report.answers(db) == frozenset()
        # The original derives nothing on a consistent database either.
        check = check_equivalence(program, report, atom, db)
        assert check.equivalent
        assert "unsatisfiable" in report.summary()


def test_unknown_order_rejected():
    program, ics, _, atom = WORKLOADS["ab"]
    with pytest.raises(ValueError, match="unknown pipeline order"):
        run_pipeline(program, ics, atom, order="magic-sandwich")


def test_non_idb_query_atom_rejected():
    program, ics, _, _ = WORKLOADS["ab"]
    with pytest.raises(ValueError, match="IDB predicate"):
        run_pipeline(program, ics, parse_atom("edge(1, Y)"), order="magic-only")


def test_stages_reflect_the_order():
    program, ics, database, atom = WORKLOADS["ab"]
    report = run_pipeline(program, ics, atom, order="semantic-first")
    assert [s.name for s in report.stages] == ["semantic rewrite", "magic transform"]
    report = run_pipeline(program, ics, atom, order="magic-first")
    assert [s.name for s in report.stages] == ["magic transform", "semantic rewrite"]
    report = run_pipeline(program, ics, atom, order="magic-only")
    assert [s.name for s in report.stages] == ["magic transform"]
    assert report.magic is not None and report.semantic_report is None
    text = report.summary()
    assert "pipeline order: magic-only" in text
    assert "final program" in text


def test_query_atom_answers_filters_rows():
    program, _, database, _ = WORKLOADS["ab"]
    bound = parse_atom("p(0, Y)")
    rows, result = query_atom_answers(program, database, bound)
    assert rows == {r for r in result.query_rows() if r[0] == 0}


def test_equivalence_check_reports_work():
    program, ics, database, atom = WORKLOADS["ab"]
    report = run_pipeline(program, ics, atom, order="magic-only")
    check = check_equivalence(program, report, atom, database)
    text = check.work_summary()
    assert "original:" in text and "transformed:" in text
    assert check.missing == frozenset() and check.extra == frozenset()
