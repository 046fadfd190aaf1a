"""Restart: a restarted daemon re-derives its tenants from the EDB.

With ``--persist-dir`` every tenant anchors to a per-tenant directory
holding bases (the EDB the tenant had reached) and the ingest journal.
Re-registering the same workload after a restart folds in the newest
base that binds, replays the journal, and evaluates once (mode
``recovered``); the answers are byte-identical.  The tenant's
``checkpoint`` block reports the base a restart would fold in, with
its age; ``latest_round`` is the current fixpoint's.
"""

import asyncio

from repro.serve.app import ServeApp

SPEC = {
    "program": "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).",
    "query": "p",
    "facts": "\n".join(f"e({i}, {i + 1})." for i in range(8)),
}
QUERY = ("POST", "/programs/wr/query", {"goal": "p(0, Y)", "mode": "materialized"})


def drive(app, *requests):
    async def run():
        responses = []
        for method, path, body in requests:
            responses.append(await app.handle(method, path, body))
        return responses

    return asyncio.run(run())


def _ingested(tmp_path, facts="e(8, 9)."):
    """A first daemon: register, ingest, leave a base covering the ingest."""
    first = ServeApp(persist_root=tmp_path)
    (_, registered), _, (_, before) = drive(
        first,
        ("PUT", "/programs/wr", SPEC),
        ("POST", "/programs/wr/ingest", {"facts": facts}),
        QUERY,
    )
    assert registered["mode"] == "fresh"
    assert "resumed_seq" not in registered
    session = first.registry.get("wr").session
    assert session.checkpoint()
    session.journal.close()
    return before


def test_restart_re_derives_byte_identical_answers(tmp_path):
    before = _ingested(tmp_path)
    # A brand-new app on the same persist root: the daemon restarted.
    second = ServeApp(persist_root=tmp_path)
    (_, reregistered), (_, after) = drive(second, ("PUT", "/programs/wr", SPEC), QUERY)
    assert reregistered["mode"] == "recovered"
    assert "resumed_seq" not in reregistered
    assert reregistered["idb_facts"] == 45  # the closure of the chain 0..9
    assert after["answers"] == before["answers"]
    assert [0, 9] in after["answers"]
    assert after["materialized_mode"] == "recovered"


def test_checkpoint_summary_reports_round_and_age(tmp_path):
    app = ServeApp(persist_root=tmp_path)
    (_, registered), (status, inspected) = drive(
        app,
        ("PUT", "/programs/wr", SPEC),
        ("GET", "/programs/wr", None),
    )
    assert status == 200
    assert inspected["latest_round"] == registered["latest_round"]
    assert inspected["checkpoint"] is None  # a registration writes nothing
    ((_, ingested),) = drive(app, ("POST", "/programs/wr/ingest", {"facts": "e(8, 9)."}))
    assert app.registry.get("wr").session.checkpoint()
    ((_, inspected),) = drive(app, ("GET", "/programs/wr", None))
    checkpoint = inspected["checkpoint"]
    assert inspected["latest_round"] == ingested["latest_round"]
    assert set(checkpoint) == {"seq", "edb_facts", "bytes", "age_seconds"}
    # The base frame's seq follows the ingest record's (1) in the journal.
    assert checkpoint["seq"] == 2 and checkpoint["edb_facts"] == 9
    assert checkpoint["bytes"] > 0 and checkpoint["age_seconds"] >= 0


def test_changed_workload_does_not_fold_the_old_base(tmp_path):
    _ingested(tmp_path)
    changed = dict(SPEC, facts=SPEC["facts"] + "\ne(100, 101).")
    second = ServeApp(persist_root=tmp_path)
    (_, reregistered), (_, answer) = drive(
        second, ("PUT", "/programs/wr", changed), QUERY
    )
    # The old base lacks e(100, 101): it belongs to another registration.
    assert reregistered["mode"] == "fresh"
    assert [0, 9] not in answer["answers"]


def test_ingest_re_anchors_the_base_digest(tmp_path):
    _ingested(tmp_path)
    # Restart registering the *ingested* EDB: the post-ingest base still
    # binds (it holds every registered row), so the restart folds it in.
    grown = dict(SPEC, facts=SPEC["facts"] + "\ne(8, 9).")
    second = ServeApp(persist_root=tmp_path)
    (_, reregistered), (_, answer) = drive(second, ("PUT", "/programs/wr", grown), QUERY)
    assert reregistered["mode"] == "recovered"
    assert [0, 9] in answer["answers"]


def test_tenants_isolate_persist_directories(tmp_path):
    app = ServeApp(persist_root=tmp_path)
    other = {
        "program": "q(X, Y) :- f(X, Y).",
        "query": "q",
        "facts": "f(1, 2).",
    }
    drive(
        app,
        ("PUT", "/programs/a", SPEC),
        ("PUT", "/programs/b", other),
        ("POST", "/programs/a/ingest", {"facts": "e(8, 9)."}),
        ("POST", "/programs/b/ingest", {"facts": "f(2, 3)."}),
    )
    assert (tmp_path / "a").is_dir()
    assert (tmp_path / "b").is_dir()
    for name in ("a", "b"):
        app.registry.get(name).session.journal.close()
    restarted = ServeApp(persist_root=tmp_path)
    (_, alpha), (_, beta), (_, answer) = drive(
        restarted,
        ("PUT", "/programs/a", SPEC),
        ("PUT", "/programs/b", other),
        ("POST", "/programs/b/query", {"goal": "q(X, Y)", "mode": "materialized"}),
    )
    assert alpha["mode"] == "recovered"
    assert beta["mode"] == "recovered"
    assert answer["answers"] == [[1, 2], [2, 3]]
