"""What a ``mode: magic`` request runs: a plan compiled for its goal.

Each request runs :func:`~repro.magic.pipeline.run_pipeline` for its
goal and evaluates the compiled program once over the tenant's EDB; the
tenant keeps no compiled program and no plan table between requests.
These tests pin that it answers like a fresh pipeline (and like
``evaluate(P)``) across ingests and re-registrations, that concurrent
requests of one shape get their own answers, that an aborted request
leaves the next one whole, and that a goal on a predicate no rule
defines is one typed error on every path.
"""

import asyncio
import sys
import threading
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import (
    parse_atom,
    parse_constraints,
    parse_facts,
    parse_program,
)
from repro.datalog.program import ProgramError
from repro.magic import PIPELINE_ORDERS, run_pipeline
from repro.magic.transform import match_query_atom
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


def registered(edges):
    """An app with tenant ``t`` over ``edges``."""
    app = ServeApp()
    status, payload = asyncio.run(app.handle("PUT", "/programs/t", spec(edges)))
    assert status == 200, payload
    return app


def ask(app, goal, tenant="t"):
    """One ``mode=magic`` request as an executor thread runs it."""
    request = parse_query({"goal": goal, "mode": "magic"})
    return app._answer_magic(app.registry.get(tenant), request, None)


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
# Differential: served magic == fresh pipeline == evaluate(P)
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
    st.tuples(st.just("query"), goal_text, st.sampled_from(PIPELINE_ORDERS)),
    st.tuples(st.just("ingest"), edge),
    st.tuples(st.just("register"), st.sets(edge, max_size=6)),
)


@settings(max_examples=20, deadline=None)
@given(st.sets(edge, max_size=6), st.lists(step, min_size=1, max_size=8))
def test_magic_answers_like_a_fresh_pipeline_across_ingests(edges, steps):
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
                database = Database(parse_facts(spec(live)["facts"]))
                fresh = fresh_report(text, order).answers(database)
                assert payload["answers"] == rows_payload(fresh)
                assert fresh == closure_answers(live, parse_atom(text))

    asyncio.run(drive())


# ----------------------------------------------------------------------
# Two threads, one shape, different constants
# ----------------------------------------------------------------------
def test_concurrent_requests_of_one_shape_keep_their_own_seed():
    app = registered(chain(12))
    expected = {c: reach(c, 12) for c in (2, 9)}
    wrong: list = []

    def client(constant):
        for _ in range(100):
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
# An aborted request leaves the next one of its shape whole
# ----------------------------------------------------------------------
@pytest.mark.parametrize("limit", [{"max_facts": 2}, {"timeout": 1e-9}])
def test_a_tripped_request_does_not_poison_the_shape(limit):
    app = registered(chain(8))

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
    assert ok == 200 and reply["answers"] == reach(5, 8)


# ----------------------------------------------------------------------
# A goal on a predicate with no rules: one typed error, every order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("order", ["semantic-first", "magic-first", "semantic-only"])
def test_goal_on_a_non_idb_predicate_is_one_typed_error(order):
    with pytest.raises(ProgramError) as info:
        run_pipeline(PROGRAM, CONSTRAINTS, parse_atom("e(1, Y)"), order=order)
    assert str(info.value) == (
        "query atom e(1, Y) does not use an IDB predicate of the program"
    )
    assert isinstance(info.value, ReproError) and isinstance(info.value, ValueError)


def test_goal_on_a_non_idb_predicate_is_http_400():
    app = registered(chain(3))
    for body in ({"goal": "e(1, Y)"}, {"goal": "e(1, Y)", "mode": "materialized"},
                 {"goal": "e(1, Y)", "order": "magic-first"}):
        status, payload = asyncio.run(app.handle("POST", "/programs/t/query", body))
        assert status == 400
        assert "does not use an IDB predicate" in payload["error"]
