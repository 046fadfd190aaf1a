"""Union views: a predicate that only unions other relations stores nothing.

``r`` below is read by no rule body and each of its rules renames one
relation, so :attr:`Program.union_views` makes it a view over ``p`` (an
IDB predicate) and ``f`` (an EDB relation).  No round fires its rules;
every front door reads it as the union of its members — after a cold
run on either storage, through a session's recovery and ingests, from
a checkpoint an older build wrote with rows for ``r`` (never read), and
through the daemon's ``materialized`` probe — and always as the
independent model computes it.
"""

import asyncio
import shutil
from pathlib import Path

import pytest

from reference_model import model_fixpoint
from repro.datalog.database import Database, UnionView
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_program
from repro.persist import IngestJournal, Session
from repro.serve.app import ServeApp
from repro.serve.wire import rows_payload

TEXT = """
p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
r(X, Y) :- p(X, Y).
r(X, Y) :- f(X, Y).
"""
PROGRAM = parse_program(TEXT, query="r")
ROWS = {"e": [(1, 2), (2, 3), (3, 4)], "f": [(7, 8), (1, 3)]}
MORE = [("e", (4, 5)), ("f", (8, 9)), ("e", (7, 1))]

#: Written by ``Session(PROGRAM, e: (1, 2) (2, 3) (3, 4), f: (7, 8)).run()``
#: in a build that stored every IDB predicate: it holds rows for ``r``.
PARENT_CHECKPOINT = (
    Path(__file__).resolve().parent.parent
    / "persist" / "fixtures" / "ckpt-00000001-c12db7abedef.json"
)


def _database(rows=ROWS, storage="rows"):
    return Database.from_rows(rows, storage=storage)


def _with(rows, facts):
    grown = {pred: list(values) for pred, values in rows.items()}
    for pred, row in facts:
        grown.setdefault(pred, []).append(row)
    return grown


def _expected(rows):
    return model_fixpoint(PROGRAM, _database(rows))["r"]


@pytest.mark.parametrize(
    "text,views",
    [
        (TEXT, {"r": ("p", "f")}),
        ("q(X, Y) :- e(X, Y).", {"q": ("e",)}),
        ("q(X, Y) :- e(X, Y).\nq(X, Y) :- e(X, Y).", {"q": ("e",)}),
        # A body reads it, or a rule does more than rename.
        ("q(X, Y) :- e(X, Y).\ns(X) :- q(X, X).", {}),
        ("q(X, Y) :- e(Y, X).", {}),
        ("q(X, X) :- e(X, X).", {}),
        ("q(X, 1) :- e(X, 1).", {}),
        ("q(X, Y) :- e(X, Y), X < Y.", {}),
        ("q(X, Y) :- e(X, Y).\nq(X, Y) :- e(X, Z), f(Z, Y).", {}),
    ],
)
def test_union_views_are_detected_once_per_program(text, views):
    program = parse_program(text)
    assert program.union_views == views
    assert program.union_views is program.union_views
    for view in views:
        assert all(view not in scc[0] for scc in program.schedule)


@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_a_view_reads_as_the_union_of_its_members(storage):
    result = evaluate(PROGRAM, _database(storage=storage))
    expected = _expected(ROWS)
    assert "r" not in result.idb
    view = result.relation("r")
    assert isinstance(view, UnionView)
    assert result.rows("r") == result.query_rows() == view.rows() == expected
    assert len(view) == len(expected) == 7  # (1, 3) is in both members
    assert set(view) == expected and sorted(view.to_rows()) == sorted(expected)
    assert (1, 3) in view and (7, 8) in view and (8, 7) not in view
    assert sorted(view.probe((0,), (1,))) == [(1, 2), (1, 3), (1, 4)]
    assert view.probe((0, 1), (7, 8)) == [(7, 8)]
    assert view.probe((0,), (99,)) == []
    assert sorted(view.probe((), ())) == sorted(expected)
    # Only ``p``'s rows were derived; ``r``'s rules never fired.
    assert result.stats.facts_derived == len(result.rows("p")) == 6
    assert all(not key.startswith("r(") for key in result.stats.rows_scanned_by_rule)


@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_an_edb_predicate_reads_the_databases_relation(storage):
    database = _database(storage=storage)
    result = evaluate(PROGRAM, database)
    assert result.relation("e") is database.relation("e")
    assert result.rows("e") == frozenset(ROWS["e"])
    closure = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, Z), t(Z, Y).", query="t")
    assert evaluate(closure, database).rows("e") == frozenset(ROWS["e"])
    assert len(evaluate(closure, _database({"f": [(1, 2)]})).relation("e")) == 0
    with pytest.raises(KeyError):
        result.relation("nowhere")


@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_recovery_and_ingest_keep_the_view_live(tmp_path, storage):
    first = Session(PROGRAM, _database(storage=storage), journal=IngestJournal(tmp_path / "journal"))
    assert first.run().result.rows("r") == _expected(ROWS)
    grown = _with(ROWS, MORE[:1])
    assert first.ingest(MORE[:1]).result.rows("r") == _expected(grown)
    first.journal.close()  # acknowledged, and left to the journal
    restarted = Session(
        PROGRAM, _database(storage=storage), journal=IngestJournal(tmp_path / "journal")
    )
    recovered = restarted.recover()
    assert recovered.mode == "recovered" and "r" not in recovered.result.idb
    assert recovered.result.rows("r") == _expected(grown)
    for fact in MORE[1:]:
        grown = _with(grown, [fact])
        outcome = restarted.ingest([fact])
        assert outcome.mode == "incremental"
        cold = evaluate(PROGRAM, _database(grown, storage))
        assert outcome.result.rows("r") == cold.rows("r") == _expected(grown)


def test_a_checkpoint_holding_rows_for_a_view_still_restores(tmp_path):
    shutil.copy(PARENT_CHECKPOINT, tmp_path / PARENT_CHECKPOINT.name)
    rows = {"e": ROWS["e"], "f": [(7, 8)]}
    session = Session(PROGRAM, _database(rows), journal=IngestJournal(tmp_path / "journal"))
    outcome = session.recover()
    assert outcome.mode == "recovered" and session.base_summary()["seq"] == 1
    assert sorted(outcome.result.idb) == ["p"]
    assert outcome.result.rows("r") == _expected(rows)
    outcome = session.ingest(MORE)
    assert outcome.result.rows("r") == _expected(_with(rows, MORE))


def test_the_daemon_probes_a_view_before_and_after_an_ingest():
    app = ServeApp()
    spec = {
        "program": TEXT,
        "query": "r",
        "facts": "\n".join(
            f"{pred}({a}, {b})." for pred, rows in ROWS.items() for a, b in rows
        ),
    }
    goals = ("r(1, Y)", "r(X, 8)", "r(X, Y)")

    async def ask():
        answers = []
        for goal in goals:
            status, payload = await app.handle(
                "POST", "/programs/views/query", {"goal": goal, "mode": "materialized"}
            )
            assert status == 200, payload
            answers.append(payload["answers"])
        return answers

    async def drive():
        status, payload = await app.handle("PUT", "/programs/views", spec)
        assert status == 200, payload
        before = await ask()
        facts = " ".join(f"{pred}({a}, {b})." for pred, (a, b) in MORE)
        status, payload = await app.handle(
            "POST", "/programs/views/ingest", {"facts": facts}
        )
        assert status == 200, payload
        return before, await ask()

    before, after = asyncio.run(drive())
    for answers, rows in ((before, ROWS), (after, _with(ROWS, MORE))):
        full = _expected(rows)
        assert answers == [
            rows_payload(frozenset(row for row in full if row[0] == 1)),
            rows_payload(frozenset(row for row in full if row[1] == 8)),
            rows_payload(full),
        ]
