"""Serving-layer durability: journal replay on restart, lag reporting.

The registry materializes tenants via ``Session.recover``, so a daemon
killed after acknowledging an ingest but before its covering checkpoint
landed must come back serving that ingest — replayed from the tenant's
write-ahead journal.  ``/healthz`` and ``/stats`` surface the fleet's
journal lag (acked-but-uncovered records a kill right now would
replay — positive in the steady state, since checkpoints follow the
journal's growth rather than every ingest) and the replay counter; a
journal that cannot ack maps to a retryable HTTP 503.
"""

import asyncio

from repro.datalog.database import Database
from repro.datalog.parser import parse_facts, parse_program
from repro.persist import FlakyStore, RetryPolicy, Session
from repro.persist.journal import FlakyJournal, IngestJournal
from repro.robustness import FaultInjector

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


def _make_app(tmp_path):
    from repro.serve.app import ServeApp

    return ServeApp(persist_root=tmp_path)


def _orphan_ingest(tmp_path, name, rows):
    """Leave acked-but-uncovered records in a tenant's journal.

    Simulates the crash window: a store-less session shares the
    tenant's journal and acknowledges an ingest, but no checkpoint ever
    covers it — exactly the state a SIGKILL between the journal fsync
    and the checkpoint save leaves behind.
    """
    program = parse_program(SPEC["program"], query=SPEC["query"])
    database = Database(parse_facts(SPEC["facts"]))
    writer = Session(
        program,
        database,
        journal=IngestJournal(tmp_path / name / "journal"),
    )
    writer.ingest(rows)


def test_restart_replays_uncovered_journal_records(tmp_path):
    first = _make_app(tmp_path)
    ((status, registered),) = drive(first, ("PUT", "/programs/jr", SPEC))
    assert status == 200 and registered["mode"] == "fresh"
    # The daemon dies between an ingest's ack and its checkpoint.
    _orphan_ingest(tmp_path, "jr", [("e", (8, 9))])

    second = _make_app(tmp_path)
    (_, reregistered), (_, answer), (_, stats) = drive(
        second,
        ("PUT", "/programs/jr", SPEC),
        ("POST", "/programs/jr/query", {"goal": "p(0, Y)", "mode": "materialized"}),
        ("GET", "/stats", None),
    )
    assert reregistered["mode"] == "recovered"
    # The replayed ingest is part of the answers — no acked write lost.
    assert [0, 9] in answer["answers"]
    assert stats["journal"]["replayed"] >= 1
    assert stats["tenants"]["jr"]["journal"]["replayed"] >= 1


def test_healthz_and_stats_expose_journal_lag(tmp_path):
    app = _make_app(tmp_path)
    drive(
        app,
        ("PUT", "/programs/jr", SPEC),
        ("POST", "/programs/jr/ingest", {"facts": "e(8, 9)."}),
    )
    (status, health), (_, stats) = drive(
        app, ("GET", "/healthz", None), ("GET", "/stats", None)
    )
    assert status == 200
    # The ingest was acknowledged by its journal fsync; no checkpoint
    # covers it yet, so a kill right now would replay one record.
    assert health["journal"] == {"lag": 1, "replayed": 0}
    assert stats["journal"] == {"lag": 1, "replayed": 0}
    assert stats["tenants"]["jr"]["journal"]["lag"] == 1
    # Once a covering checkpoint lands the record is compacted away.
    assert app.registry.get("jr").session.checkpoint()
    ((_, stats),) = drive(app, ("GET", "/stats", None))
    assert stats["journal"] == {"lag": 0, "replayed": 0}
    tenant = stats["tenants"]["jr"]["journal"]
    assert tenant["lag"] == 0
    assert tenant["last_seq"] >= 1  # the record existed before compaction


def test_healthz_reports_positive_lag_when_checkpoints_fail(tmp_path):
    """An acked ingest whose checkpoint save keeps failing stays in the
    journal: the daemon answers 200 (durability is the fsync, not the
    checkpoint) but ``/healthz`` shows the record as replay lag."""
    app = _make_app(tmp_path)
    drive(app, ("PUT", "/programs/jr", SPEC))
    tenant = app.registry.get("jr")
    injector = FaultInjector().arm_random("checkpoint.save", rate=1.0)
    tenant.session.store = FlakyStore(tenant.session.store, injector)
    tenant.session.retry = RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0)
    (status, _), (_, health) = drive(
        app,
        ("POST", "/programs/jr/ingest", {"facts": "e(8, 9)."}),
        ("GET", "/healthz", None),
    )
    assert status == 200  # acked: the record is fsynced in the journal
    assert health["journal"]["lag"] >= 1


def test_journal_unavailable_ingest_is_retryable_503(tmp_path):
    app = _make_app(tmp_path)
    drive(app, ("PUT", "/programs/jr", SPEC))
    tenant = app.registry.get("jr")
    injector = FaultInjector().arm_random("journal.append", rate=1.0)
    healthy_journal = tenant.session.journal
    tenant.session.journal = FlakyJournal(healthy_journal, injector)
    tenant.session.retry = RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0)
    (status, payload), (_, answer) = drive(
        app,
        ("POST", "/programs/jr/ingest", {"facts": "e(8, 9)."}),
        ("POST", "/programs/jr/query", {"goal": "p(0, Y)", "mode": "materialized"}),
    )
    assert status == 503
    assert payload["retryable"] is True
    # The refused ingest mutated nothing: the tenant answers without it.
    assert [0, 9] not in answer["answers"]
    # Once the journal heals, the same ingest is accepted.
    tenant.session.journal = healthy_journal
    (status, accepted), (_, after) = drive(
        app,
        ("POST", "/programs/jr/ingest", {"facts": "e(8, 9)."}),
        ("POST", "/programs/jr/query", {"goal": "p(0, Y)", "mode": "materialized"}),
    )
    assert status == 200, accepted
    assert [0, 9] in after["answers"]
