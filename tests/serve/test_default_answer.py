"""A query naming neither ``mode`` nor ``order`` reads the tenant's fixpoint.

Every tenant keeps ``P``'s full fixpoint current (registration
materialises it, each ingest extends it in place), so the default answer
is one probe into it: no pipeline, no evaluation.
Naming ``mode: "magic"`` or any ``order`` still runs the magic
pipeline.  By Theorem 4.1 the two agree on every acknowledged state that
satisfies the ic's, and the probe is ``evaluate(P)``'s own answer.
"""

import asyncio
import random

import pytest

from repro.datalog import evaluation
from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_atom, parse_facts, parse_program
from repro.magic.transform import match_query_atom
from repro.serve import app as app_module
from repro.serve.app import ServeApp
from repro.serve.wire import rows_payload

RULES = "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y)."
SPEC = {
    "program": RULES,
    "query": "p",
    "facts": "e(0, 1). e(1, 2). e(2, 3). e(3, 1).",
}
#: Bound in either column, all-free, repeated-variable, fully bound, and
#: a constant the data never holds.
GOALS = ["p(0, Y)", "p(X, 3)", "p(X, Y)", "p(X, X)", "p(2, 1)", "p(99, Y)"]


async def register(app, name, spec):
    status, payload = await app.handle("PUT", f"/programs/{name}", spec)
    assert status == 200, payload
    return payload


async def ask(app, goal, tenant="t", **fields):
    status, payload = await app.handle(
        "POST", f"/programs/{tenant}/query", {"goal": goal, **fields}
    )
    assert status == 200, payload
    return payload


def closure(rules, query, facts, goal_text):
    """``evaluate(P)`` over ``facts`` filtered by the goal, in wire order."""
    goal = parse_atom(goal_text)
    result = evaluate(parse_program(rules, query=query), Database(parse_facts(facts)))
    return rows_payload(
        frozenset(r for r in result.rows(goal.predicate) if match_query_atom(r, goal))
    )


def test_a_default_query_evaluates_nothing(monkeypatch):
    app = ServeApp()
    asyncio.run(register(app, "t", SPEC))
    runs, specialised = [], []
    run = evaluation._Driver.run
    specialize = app_module.specialize_pipeline

    def counting_run(self, *args, **kwargs):
        runs.append(self)
        return run(self, *args, **kwargs)

    def counting_specialize(*args, **kwargs):
        specialised.append(args)
        return specialize(*args, **kwargs)

    monkeypatch.setattr(evaluation._Driver, "run", counting_run)
    monkeypatch.setattr(app_module, "specialize_pipeline", counting_specialize)

    async def drive():
        return [await ask(app, goal) for goal in GOALS]

    replies = asyncio.run(drive())
    assert {reply["mode"] for reply in replies} == {"materialized"}
    assert runs == [] and specialised == []
    tenant = app.registry.get("t")
    assert tenant.queries == len(GOALS)
    for goal, reply in zip(GOALS, replies):
        assert reply["answers"] == closure(RULES, "p", SPEC["facts"], goal), goal


def test_an_order_alone_selects_magic():
    app = ServeApp()

    async def drive():
        await register(app, "t", SPEC)
        return await ask(app, "p(0, Y)", order="magic-first")

    reply = asyncio.run(drive())
    assert (reply["mode"], reply["order"]) == ("magic", "magic-first")
    assert reply["stats"]["facts_derived"] > 0
    assert reply["answers"] == closure(RULES, "p", SPEC["facts"], "p(0, Y)")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_equals_magic_equals_evaluate_after_ingests_and_restart(tmp_path, seed):
    rng = random.Random(seed)
    batches = [
        " ".join(f"e({rng.randrange(8)}, {rng.randrange(8)})." for _ in range(size))
        for size in [rng.randint(1, 3) for _ in range(6)]
    ]
    facts = " ".join([SPEC["facts"], *batches])

    async def answers(app):
        out = {}
        for goal in GOALS:
            default = await ask(app, goal)
            magic = await ask(app, goal, mode="magic")
            assert default["mode"] == "materialized"
            out[goal] = (default["answers"], magic["answers"])
        return out

    async def drive():
        app = ServeApp(persist_root=tmp_path)
        await register(app, "t", SPEC)
        for batch in batches:
            status, payload = await app.handle(
                "POST", "/programs/t/ingest", {"facts": batch}
            )
            assert status == 200, payload
        live = await answers(app)
        app.registry.get("t").session.journal.close()
        restarted = ServeApp(persist_root=tmp_path)
        recovered = await register(restarted, "t", SPEC)
        assert recovered["mode"] == "recovered"
        return live, await answers(restarted)

    for round_answers in asyncio.run(drive()):
        for goal, (default, magic) in round_answers.items():
            expected = closure(RULES, "p", facts, goal)
            assert default == magic == expected, goal


def test_the_default_answer_is_p_on_a_database_that_breaks_an_ic():
    """On a database violating ``:- source(V), sink(V).`` the rewrite's
    answer may differ from ``P``'s; the default answer is ``P``'s."""
    rules = (
        "taint(V) :- source(V).\n"
        "taint(V) :- flow(W, V), taint(W).\n"
        "alarm(V) :- sink(V), taint(V)."
    )
    spec = {
        "program": rules,
        "constraints": ":- source(V), sink(V).\n:- flow(W, V), sanitizer(W).",
        "query": "alarm",
        "facts": "source(1). flow(1, 2). sink(2). source(9). sink(9).",
    }
    app = ServeApp()

    async def drive():
        await register(app, "taint", spec)
        return await ask(app, "alarm(V)", tenant="taint")

    reply = asyncio.run(drive())
    assert reply["mode"] == "materialized"
    assert reply["answers"] == [[2], [9]]
    assert reply["answers"] == closure(rules, "alarm", spec["facts"], "alarm(V)")
