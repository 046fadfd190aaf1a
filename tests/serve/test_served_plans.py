"""A served query compiles nothing: seed rows, kept plans, shared programs.

The cache-hit path of ``mode=magic`` evaluates one constant-free
``Program`` per shape with the request's constants as a row of the seed
predicate, through plans the tenant keeps per cached shape.  These
tests pin that it answers like a fresh pipeline, that the second
request of a shape neither compiles a plan nor builds a ``Program``,
that the kept tables are per tenant, bounded, and die with their
tenant and with their cache entry, and that concurrent requests and
aborted ones leave them sound.
"""

import asyncio
import gc
import sys
import threading
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datalog.evaluation as evaluation
from reference_model import model_fixpoint
from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import (
    parse_atom,
    parse_constraints,
    parse_facts,
    parse_program,
)
from repro.datalog.program import Program, ProgramError
from repro.magic import run_pipeline
from repro.magic.pipeline import specialize_pipeline
from repro.magic.transform import match_query_atom
from repro.robustness import Budget
from repro.robustness.errors import ReproError
from repro.serve.app import ServeApp
from repro.serve.wire import parse_query, rows_payload

RULES = "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y)."
ICS = ":- e(X, Y), X >= Y."  # every edge generated below goes upwards
PROGRAM = parse_program(RULES, query="p")
CONSTRAINTS = tuple(parse_constraints(ICS))
NODES = 7


def spec(edges):
    return {
        "program": RULES,
        "constraints": ICS,
        "query": "p",
        "facts": "\n".join(f"e({a}, {b})." for a, b in sorted(edges)),
    }


def chain(n):
    return {(i, i + 1) for i in range(n)}


def registered(edges, **kwargs):
    """An app with tenant ``t`` over ``edges`` (and its event loop's run)."""
    app = ServeApp(**kwargs)
    status, payload = asyncio.run(app.handle("PUT", "/programs/t", spec(edges)))
    assert status == 200, payload
    return app


def ask(app, goal, tenant="t", **fields):
    """One ``mode=magic`` request as an executor thread runs it."""
    request = parse_query({"goal": goal, **fields})
    governor = app.governors.for_request(
        timeout=request.timeout,
        max_facts=request.max_facts,
        max_iterations=request.max_iterations,
    )
    return app._answer_magic(app.registry.get(tenant), request, governor)


def reach(node, last):
    """``p(node, Y)`` over ``chain(last)``, as the wire orders rows."""
    return rows_payload((node, n) for n in range(node + 1, last + 1))


def closure_answers(edges, goal):
    """The oracle of oracles: ``evaluate(P)`` filtered by the goal."""
    database = Database(parse_facts(spec(edges)["facts"]))
    rows = evaluate(PROGRAM, database).query_rows()
    return frozenset(row for row in rows if match_query_atom(row, goal))


@lru_cache(maxsize=None)
def fresh_report(goal_text, order):
    return run_pipeline(PROGRAM, CONSTRAINTS, parse_atom(goal_text), order=order)


# ----------------------------------------------------------------------
# (a) differential: kept-plan path == fresh pipeline == evaluate(P)
# ----------------------------------------------------------------------
edge = st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)).filter(
    lambda e: e[0] < e[1]
)
goal_text = st.one_of(
    st.integers(0, NODES).map(lambda c: f"p({c}, Y)"),  # bf
    st.integers(0, NODES).map(lambda c: f"p(X, {c})"),  # fb
    st.just("p(X, Y)"),  # all-free: a 0-ary seed
)
step = st.one_of(
    st.tuples(
        st.just("query"),
        goal_text,
        st.sampled_from(["semantic-first", "magic-only", "semantic-only"]),
    ),
    st.tuples(st.just("ingest"), edge),
    st.tuples(st.just("register"), st.sets(edge, max_size=6)),
)


@settings(max_examples=20, deadline=None)
@given(st.sets(edge, max_size=6), st.lists(step, min_size=1, max_size=8))
def test_kept_plan_path_answers_like_a_fresh_pipeline(edges, steps):
    async def drive():
        app = ServeApp()
        live = set(edges)
        assert (await app.handle("PUT", "/programs/t", spec(live)))[0] == 200
        for kind, *args in steps:
            if kind == "ingest":
                live.add(args[0])
                body = {"facts": "e({}, {}).".format(*args[0])}
                assert (await app.handle("POST", "/programs/t/ingest", body))[0] == 200
            elif kind == "register":
                live = set(args[0])
                assert (await app.handle("PUT", "/programs/t", spec(live)))[0] == 200
            else:
                text, order = args
                status, payload = await app.handle(
                    "POST", "/programs/t/query", {"goal": text, "order": order}
                )
                assert status == 200, payload
                goal = parse_atom(text)
                database = Database(parse_facts(spec(live)["facts"]))
                fresh = fresh_report(text, order).answers(database)
                assert payload["answers"] == rows_payload(fresh)
                assert fresh == closure_answers(live, goal)

    asyncio.run(drive())


# ----------------------------------------------------------------------
# (b) the second request of a shape compiles nothing
# ----------------------------------------------------------------------
def test_second_request_of_a_shape_compiles_nothing(monkeypatch):
    app = registered(chain(8))
    compiled, built = [], []
    compile_rule, init = evaluation.compile_rule, Program.__init__

    def counting_compile(*args, **kwargs):
        compiled.append(args[0])
        return compile_rule(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(evaluation, "compile_rule", counting_compile)
    monkeypatch.setattr(Program, "__init__", counting_init)
    first = ask(app, "p(1, Y)")
    assert first["cache_hit"] is False and compiled and built
    del compiled[:], built[:]
    second = ask(app, "p(4, Y)")
    assert second["cache_hit"] is True
    assert second["answers"] == reach(4, 8)
    assert compiled == [] and built == []
    # An ingest keeps the tenant's plans (as a Session keeps its own).
    status, _ = asyncio.run(
        app.handle("POST", "/programs/t/ingest", {"facts": "e(8, 9)."})
    )
    assert status == 200
    del compiled[:], built[:]
    assert ask(app, "p(7, Y)")["answers"] == reach(7, 9)
    assert compiled == [] and built == []


# ----------------------------------------------------------------------
# (c) two threads, one shape, different constants
# ----------------------------------------------------------------------
def test_concurrent_requests_of_one_shape_keep_their_own_seed():
    app = registered(chain(12))
    expected = {c: reach(c, 12) for c in (2, 9)}
    wrong: list = []

    def client(constant):
        for _ in range(200):
            answers = ask(app, f"p({constant}, Y)")["answers"]
            if answers != expected[constant]:
                wrong.append((constant, answers))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(c,)) for c in expected]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


# ----------------------------------------------------------------------
# (d) nothing grows with traffic; magic-first keeps no plans
# ----------------------------------------------------------------------
def test_tables_do_not_grow_with_traffic():
    app = registered(chain(30))
    tenant = app.registry.get("t")
    sizes = set()
    for i in range(500):
        order = "magic-first" if i % 10 == 9 else "semantic-first"
        reply = ask(app, f"p({i % 30}, Y)", order=order)
        assert reply["answers"] == reach(i % 30, 30)
        sizes.add((len(app.cache), len(tenant.plans), tenant.info()["plans_kept"]))
    assert len(sizes) == 1  # as after the first request of the one cached shape
    (entries, shapes, kept), = sizes
    assert (entries, shapes) == (1, 1) and kept > 0


# ----------------------------------------------------------------------
# (e) an aborted request leaves the kept plans valid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("limit", [{"max_facts": 2}, {"timeout": 1e-9}])
def test_a_tripped_request_does_not_poison_the_shape(limit):
    app = registered(chain(8))
    ask(app, "p(0, Y)")

    async def drive():
        tripped = await app.handle(
            "POST", "/programs/t/query", {"goal": "p(1, Y)", "mode": "magic", **limit}
        )
        normal = await app.handle(
            "POST", "/programs/t/query", {"goal": "p(5, Y)", "mode": "magic"}
        )
        return tripped, normal

    (status, payload), (ok, reply) = asyncio.run(drive())
    assert status == 503 and payload["aborted"] is True
    assert ok == 200 and reply["cache_hit"] is True
    assert reply["answers"] == reach(5, 8)


# ----------------------------------------------------------------------
# (f) the seed-free form costs what the complete program costs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("goal_text", ["p(2, Y)", "p(X, 5)", "p(X, Y)"])
@pytest.mark.parametrize(
    # the options both runs take: plain, governed
    "reference",
    [{}, {"budget": Budget(timeout=60)}],
)
def test_seed_row_and_seed_rule_cost_the_same(goal_text, reference):
    database = Database(parse_facts(spec(chain(8))["facts"]))
    report = run_pipeline(PROGRAM, CONSTRAINTS, parse_atom(goal_text))
    # A fresh copy per run: EDB indexes are built on first use.
    whole = evaluate(report.program, database.copy(), **reference)
    assert whole.rows(report.program.query) == model_fixpoint(report.program, database)[
        report.program.query
    ]
    seed = report.magic.seed.head
    row = tuple(arg.value for arg in seed.args)
    seeded = evaluate(
        report._seedless, database.copy(), seed_fact=(seed.predicate, row), **reference
    )
    assert seeded.query_rows() == whole.query_rows()
    assert seeded.rows(seed.predicate) == whole.rows(seed.predicate)
    for counter in ("facts_derived", "rule_firings", "iterations",
                    "rows_scanned", "probes", "index_builds"):
        assert getattr(seeded.stats, counter) == getattr(whole.stats, counter), counter
    if not reference:
        served = report.evaluation(database.copy()).stats
        assert served.as_dict() | {"wall_time_seconds": 0} == (
            seeded.stats.as_dict() | {"wall_time_seconds": 0}
        )


# ----------------------------------------------------------------------
# (g) plans live with the sizes they were costed on
# ----------------------------------------------------------------------
def test_tenants_share_a_report_but_not_plans():
    app = registered(chain(3))
    status, _ = asyncio.run(app.handle("PUT", "/programs/big", spec(chain(40))))
    assert status == 200
    assert ask(app, "p(1, Y)")["cache_hit"] is False
    assert ask(app, "p(1, Y)", tenant="big")["cache_hit"] is True
    small, big = app.registry.get("t"), app.registry.get("big")
    (report,) = small.plans  # the one cached report keys both tables
    assert list(big.plans) == [report] and len(app.cache) == 1
    assert small.plans[report] is not big.plans[report]
    assert small.plans[report].keys() == big.plans[report].keys()
    stats = asyncio.run(app.handle("GET", "/stats"))[1]
    assert stats["cache"]["shapes_with_plans"] == 1
    assert stats["tenants"]["big"]["plans_kept"] == len(big.plans[report])
    inspected = asyncio.run(app.handle("GET", "/programs/t"))[1]
    assert inspected["plans_kept"] == len(small.plans[report]) > 0


def test_plans_die_with_reregistration_and_with_eviction():
    app = registered(chain(6), cache_capacity=1)
    ask(app, "p(1, Y)")
    old = app.registry.get("t")
    assert old.info()["plans_kept"] > 0
    assert asyncio.run(app.handle("PUT", "/programs/t", spec(chain(4))))[0] == 200
    tenant = app.registry.get("t")
    assert tenant is not old and tenant.info()["plans_kept"] == 0
    assert ask(app, "p(1, Y)")["answers"] == reach(1, 4)
    assert len(tenant.plans) == 1
    ask(app, "p(X, 2)")  # capacity 1: the bf shape is evicted
    gc.collect()
    assert len(app.cache) == 1 and len(tenant.plans) == 1
    assert ask(app, "p(1, Y)")["cache_hit"] is False


# ----------------------------------------------------------------------
# A goal on a predicate with no rules: one typed error, every order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("order", ["semantic-first", "magic-first", "semantic-only"])
def test_goal_on_a_non_idb_predicate_is_one_typed_error(order):
    goal = parse_atom("e(1, Y)")
    message = "query atom e(1, Y) does not use an IDB predicate of the program"
    for call in (
        lambda: specialize_pipeline(PROGRAM, CONSTRAINTS, goal, order=order),
        lambda: specialize_pipeline(PROGRAM, CONSTRAINTS, goal, order=order, cache={}),
        lambda: run_pipeline(PROGRAM, CONSTRAINTS, goal, order=order),
    ):
        with pytest.raises(ProgramError) as info:
            call()
        assert str(info.value) == message
        assert isinstance(info.value, ReproError) and isinstance(info.value, ValueError)


def test_goal_on_a_non_idb_predicate_is_http_400():
    app = registered(chain(3))
    for body in ({"goal": "e(1, Y)"}, {"goal": "e(1, Y)", "mode": "materialized"},
                 {"goal": "e(1, Y)", "order": "magic-first"}):
        status, payload = asyncio.run(app.handle("POST", "/programs/t/query", body))
        assert status == 400
        assert "does not use an IDB predicate" in payload["error"]
