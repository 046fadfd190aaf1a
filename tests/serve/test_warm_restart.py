"""Warm restart: a restarted daemon answers without recomputing.

With ``--persist-dir`` every tenant anchors to a per-tenant checkpoint
directory; re-registering the same workload after a restart must
rebuild the fixpoint from the checkpoint with **zero evaluation**
(mode ``warm``) and answer byte-identically.  The checkpoint summary
surfaces ``latest_round`` and ``age_seconds`` together (the satellite
claim shared with ``repro session inspect``).
"""

import asyncio

from repro.serve.app import ServeApp

SPEC = {
    "program": "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).",
    "query": "p",
    "facts": "\n".join(f"e({i}, {i + 1})." for i in range(8)),
}


def drive(app, *requests):
    async def run():
        responses = []
        for method, path, body in requests:
            responses.append(await app.handle(method, path, body))
        return responses

    return asyncio.run(run())


def test_restart_answers_warm_and_byte_identical(tmp_path):
    first = ServeApp(persist_root=tmp_path)
    (status, registered), (_, before) = drive(
        first,
        ("PUT", "/programs/wr", SPEC),
        ("POST", "/programs/wr/query", {"goal": "p(0, Y)", "mode": "materialized"}),
    )
    assert status == 200
    assert registered["mode"] == "fresh"

    # A brand-new app on the same persist root: the daemon restarted.
    second = ServeApp(persist_root=tmp_path)
    (_, reregistered), (_, after) = drive(
        second,
        ("PUT", "/programs/wr", SPEC),
        ("POST", "/programs/wr/query", {"goal": "p(0, Y)", "mode": "materialized"}),
    )
    assert reregistered["mode"] == "warm"
    assert reregistered["resumed_seq"] is not None
    assert reregistered["idb_facts"] == registered["idb_facts"]
    assert reregistered["latest_round"] == registered["latest_round"]
    # Byte-identical answers, and the response says no evaluation ran.
    assert after["answers"] == before["answers"]
    assert after["materialized_mode"] == "warm"


def test_checkpoint_summary_reports_round_and_age(tmp_path):
    app = ServeApp(persist_root=tmp_path)
    (_, registered), (status, inspected) = drive(
        app,
        ("PUT", "/programs/wr", SPEC),
        ("GET", "/programs/wr", None),
    )
    assert status == 200
    checkpoint = inspected["checkpoint"]
    assert checkpoint is not None
    assert checkpoint["complete"] is True
    assert checkpoint["latest_round"] == registered["latest_round"]
    assert checkpoint["age_seconds"] >= 0


def test_changed_workload_does_not_warm_start(tmp_path):
    first = ServeApp(persist_root=tmp_path)
    drive(first, ("PUT", "/programs/wr", SPEC))
    changed = dict(SPEC, facts=SPEC["facts"] + "\ne(100, 101).")
    second = ServeApp(persist_root=tmp_path)
    ((_, reregistered),) = drive(second, ("PUT", "/programs/wr", changed))
    # Different EDB -> different workload digest -> full evaluation.
    assert reregistered["mode"] == "fresh"


def test_ingest_re_anchors_the_warm_start_digest(tmp_path):
    first = ServeApp(persist_root=tmp_path)
    drive(
        first,
        ("PUT", "/programs/wr", SPEC),
        ("POST", "/programs/wr/ingest", {"facts": "e(8, 9)."}),
    )
    assert first.registry.get("wr").session.checkpoint()
    # Restart registering the *ingested* EDB: the post-ingest checkpoint
    # anchors it, so the restart is warm against the new digest.
    grown = dict(SPEC, facts=SPEC["facts"] + "\ne(8, 9).")
    second = ServeApp(persist_root=tmp_path)
    (_, reregistered), (_, answer) = drive(
        second,
        ("PUT", "/programs/wr", grown),
        ("POST", "/programs/wr/query", {"goal": "p(0, Y)", "mode": "materialized"}),
    )
    assert reregistered["mode"] == "warm"
    assert [0, 9] in answer["answers"]


def test_tenants_isolate_persist_directories(tmp_path):
    app = ServeApp(persist_root=tmp_path)
    other = {
        "program": "q(X, Y) :- f(X, Y).",
        "query": "q",
        "facts": "f(1, 2).",
    }
    drive(app, ("PUT", "/programs/a", SPEC), ("PUT", "/programs/b", other))
    assert (tmp_path / "a").is_dir()
    assert (tmp_path / "b").is_dir()
    restarted = ServeApp(persist_root=tmp_path)
    (_, alpha), (_, beta) = drive(
        restarted,
        ("PUT", "/programs/a", SPEC),
        ("PUT", "/programs/b", other),
    )
    assert alpha["mode"] == "warm"
    assert beta["mode"] == "warm"
