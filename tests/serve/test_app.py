"""The in-process daemon: routes, concurrency, per-request budgets, chaos.

Drives :class:`ServeApp.handle` directly (no sockets) — the HTTP shell
is covered separately.  The headline tests: N concurrent clients over
two tenants get exactly the single-threaded pipeline's answers, and an
armed ``serve.request`` fault surfaces as HTTP 503 carrying the same
diagnostics shape as a budget trip.
"""

import asyncio

import pytest

from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_atom, parse_facts, parse_program
from repro.magic import run_pipeline
from repro.magic.transform import match_query_atom
from repro.robustness import Budget, FaultInjector, UsageError
from repro.robustness.faults import chaos
from repro.serve.app import ServeApp
from repro.serve.registry import TenantRegistry
from repro.serve.wire import parse_register, rows_payload

ALPHA = {
    "program": "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).",
    "query": "p",
    "facts": "\n".join(f"e({i}, {i + 1})." for i in range(10)),
}
BETA = {
    "program": "q(X, Y) :- f(X, Y).\nq(X, Y) :- f(X, Z), q(Z, Y).",
    "query": "q",
    "facts": "\n".join(f"f({i}, {i + 2})." for i in range(0, 12, 2)),
}


def run(coro):
    return asyncio.run(coro)


async def register(app, name, spec):
    status, payload = await app.handle("PUT", f"/programs/{name}", spec)
    assert status == 200, payload
    return payload


def expected_answers(spec, goal_text):
    program = parse_program(spec["program"], query=spec["query"])
    database = Database(parse_facts(spec["facts"]))
    goal = parse_atom(goal_text)
    report = run_pipeline(program, (), goal, order="semantic-first")
    assert report.program is not None
    result = evaluate(report.program, database)
    return rows_payload(
        frozenset(row for row in result.query_rows() if match_query_atom(row, goal))
    )


class TestRoutes:
    def test_healthz(self):
        app = ServeApp()
        status, payload = run(app.handle("GET", "/healthz"))
        assert status == 200
        assert payload["ok"] is True

    def test_unknown_route_is_400(self):
        app = ServeApp()
        status, payload = run(app.handle("GET", "/nope"))
        assert status == 400
        assert "no such route" in payload["error"]

    def test_wrong_method_is_400(self):
        app = ServeApp()
        status, payload = run(app.handle("POST", "/healthz"))
        assert status == 400
        assert "use GET" in payload["error"]

    def test_unknown_tenant_is_404(self):
        app = ServeApp()
        status, payload = run(
            app.handle("POST", "/programs/ghost/query", {"goal": "p(1, Y)"})
        )
        assert status == 404
        assert "register it first" in payload["error"]

    def test_register_with_mixed_arity_facts_is_400(self):
        app = ServeApp()
        spec = dict(ALPHA, facts="e(1, 2). e(1).")
        status, payload = run(app.handle("PUT", "/programs/alpha", spec))
        assert status == 400
        assert payload == {"error": "arity mismatch for e: expected 2, got 1"}

    def test_ingest_with_wrong_arity_is_400_and_applies_nothing(self):
        app = ServeApp()

        async def drive():
            await register(app, "alpha", ALPHA)
            before = await app.handle("POST", "/programs/alpha/query", {"goal": "p(X, Y)"})
            rejected = await app.handle(
                "POST", "/programs/alpha/ingest", {"facts": "e(10, 11). e(11)."}
            )
            after = await app.handle("POST", "/programs/alpha/query", {"goal": "p(X, Y)"})
            return before, rejected, after

        before, rejected, after = run(drive())
        assert rejected == (400, {"error": "arity mismatch for e: expected 2, got 1"})
        assert after[1]["answers"] == before[1]["answers"]

    def test_mixed_family_comparison_is_400(self, tmp_path):
        # e(2, "abc") meets Y < 3: bad data, not a server fault — at
        # registration and on the ingest's incremental fixpoint.  The
        # rejected batch is gone: the tenant keeps answering and
        # ingesting, and a restarted daemon recovers it.
        app = ServeApp(persist_root=tmp_path)
        spec = {"program": "q(X) :- e(X, Y), Y < 3.", "query": "q", "facts": "e(1, 2)."}
        bad = 'e(2, "abc"). e(7, 0).'
        ask = ("POST", "/programs/alpha/query", {"goal": "q(X)", "mode": "magic"})
        resident = ("POST", "/programs/alpha/query", {"goal": "q(X)", "mode": "materialized"})

        async def drive():
            await register(app, "alpha", spec)
            rejected = [
                await app.handle("PUT", "/programs/beta", dict(spec, facts=bad)),
                await app.handle("POST", "/programs/alpha/ingest", {"facts": bad}),
            ]
            served = [await app.handle(*ask), await app.handle(*resident)]
            status, _ = await app.handle(
                "POST", "/programs/alpha/ingest", {"facts": "e(3, 1)."}
            )
            assert status == 200
            served += [await app.handle(*ask), await app.handle(*resident)]
            app.registry.get("alpha").session.journal.close()
            restarted = ServeApp(persist_root=tmp_path)
            recovered = await register(restarted, "alpha", spec)
            served.append(await restarted.handle(*resident))
            return rejected, served, recovered

        rejected, served, recovered = run(drive())
        for reply in rejected:
            assert reply == (400, {"error": "values of types int and str are not order-comparable"})
        assert [status for status, _ in served] == [200] * 5
        assert [payload["answers"] for _, payload in served] == [
            [[1]], [[1]], [[1], [3]], [[1], [3]], [[1], [3]]
        ]
        assert recovered["mode"] == "recovered"

    @pytest.mark.parametrize("name", [".", "..", "a\\b", "a\x00b"])
    def test_a_tenant_name_must_be_one_path_component(self, name, tmp_path):
        # Each name once reached outside the persist root (``..``), the
        # root itself (``.``) or a 500 (NUL).
        app = ServeApp(persist_root=tmp_path / "root")
        status, payload = run(app.handle("PUT", f"/programs/{name}", ALPHA))
        assert status == 400
        assert payload == {
            "error": f"invalid tenant name {name!r}: expected one plain path component"
        }
        assert not any(tmp_path.rglob("*"))
        assert app.registry.names() == []

    @pytest.mark.parametrize("name", ["", "a/b", "/"])
    def test_a_name_no_route_carries_is_refused_by_the_registry(self, name):
        with pytest.raises(UsageError, match="one plain path component"):
            TenantRegistry().create(name, parse_register(ALPHA))

    def test_register_naming_a_removed_option_is_400(self):
        status, payload = run(
            ServeApp().handle("PUT", "/programs/alpha", {**ALPHA, "workers": 2})
        )
        assert status == 400
        assert "unknown field(s) 'workers'" in payload["error"]

    def test_register_then_query_and_stats(self):
        app = ServeApp()

        async def drive():
            registered = await register(app, "alpha", ALPHA)
            assert registered["mode"] == "fresh"
            assert registered["latest_round"] >= 1
            status, answer = await app.handle(
                "POST", "/programs/alpha/query", {"goal": "p(0, Y)", "mode": "magic"}
            )
            assert status == 200
            status, stats = await app.handle("GET", "/stats")
            assert status == 200
            return answer, stats

        answer, stats = run(drive())
        assert answer["answers"] == expected_answers(ALPHA, "p(0, Y)")
        assert answer["satisfiable"] is True
        assert stats["tenants"]["alpha"]["queries"] == 1
        # An unbounded request needs no governor at all.
        assert stats["governors_minted"] == 0

    def test_goal_must_be_idb(self):
        app = ServeApp()

        async def drive():
            await register(app, "alpha", ALPHA)
            return await app.handle(
                "POST", "/programs/alpha/query", {"goal": "e(1, Y)"}
            )

        status, payload = run(drive())
        assert status == 400
        assert "IDB" in payload["error"]

    def test_materialized_mode_answers_from_resident_fixpoint(self):
        app = ServeApp()

        async def drive():
            await register(app, "alpha", ALPHA)
            return await app.handle(
                "POST",
                "/programs/alpha/query",
                {"goal": "p(0, Y)", "mode": "materialized"},
            )

        status, payload = run(drive())
        assert status == 200
        assert payload["mode"] == "materialized"
        assert payload["materialized_mode"] == "fresh"
        assert payload["answers"] == expected_answers(ALPHA, "p(0, Y)")

    def test_materialized_mode_probes_the_live_index_across_ingests(self):
        """Bound, repeated-variable, absent-constant and all-free goals
        agree with a scan of the fixpoint, before and after ingests that
        extend the probed relation (and its index) in place."""
        app = ServeApp()
        goals = ["p(0, Y)", "p(X, 5)", "p(3, 7)", "p(X, X)", "p(99, Y)", "p(X, Y)"]

        async def ask():
            answers = {}
            for goal in goals:
                status, payload = await app.handle(
                    "POST", "/programs/alpha/query",
                    {"goal": goal, "mode": "materialized"},
                )
                assert status == 200, payload
                answers[goal] = payload["answers"]
            return answers

        async def drive():
            await register(app, "alpha", ALPHA)
            relation = app.registry.get("alpha").materialized.result.idb["p"]
            rounds = [await ask()]
            for facts in ("e(10, 11).", "e(5, 5).", "e(11, 0)."):
                status, _ = await app.handle(
                    "POST", "/programs/alpha/ingest", {"facts": facts}
                )
                assert status == 200
                assert app.registry.get("alpha").materialized.result.idb["p"] is relation
                rounds.append(await ask())
            return rounds

        facts = ALPHA["facts"]
        for answers, extra in zip(
            run(drive()), ("", "e(10, 11).", "e(5, 5).", "e(11, 0).")
        ):
            facts += "\n" + extra
            scanned = evaluate(
                parse_program(ALPHA["program"], query="p"), Database(parse_facts(facts))
            ).query_rows()
            for goal in goals:
                atom = parse_atom(goal)
                assert answers[goal] == rows_payload(
                    frozenset(row for row in scanned if match_query_atom(row, atom))
                ), goal

    def test_ingest_refreshes_answers(self):
        app = ServeApp()

        async def drive():
            await register(app, "alpha", ALPHA)
            _, before = await app.handle(
                "POST", "/programs/alpha/query", {"goal": "p(0, Y)", "mode": "magic"}
            )
            status, ingested = await app.handle(
                "POST", "/programs/alpha/ingest", {"facts": "e(10, 11)."}
            )
            assert status == 200
            _, after = await app.handle(
                "POST", "/programs/alpha/query", {"goal": "p(0, Y)", "mode": "magic"}
            )
            return before, ingested, after

        before, ingested, after = run(drive())
        assert ingested["ingested"] == 1
        assert ingested["mode"] in ("incremental", "recompute")
        assert [0, 11] in after["answers"]
        assert len(after["answers"]) == len(before["answers"]) + 1

    def test_inspect_reports_tenant_summary(self):
        app = ServeApp()

        async def drive():
            await register(app, "alpha", ALPHA)
            return await app.handle("GET", "/programs/alpha")

        status, payload = run(drive())
        assert status == 200
        assert payload["tenant"] == "alpha"
        assert payload["query"] == "p"
        assert payload["edb_facts"] == 10
        assert payload["latest_round"] >= 1


class TestBudgets:
    def test_request_budget_trip_is_503_with_partial_diagnostics(self):
        app = ServeApp()

        async def drive():
            await register(app, "alpha", ALPHA)
            return await app.handle(
                "POST",
                "/programs/alpha/query",
                {"goal": "p(0, Y)", "max_facts": 1, "mode": "magic"},
            )

        status, payload = run(drive())
        assert status == 503
        assert payload["aborted"] is True
        assert payload["limit"] == "max_facts"
        assert payload["partial"]["facts_derived"] >= 1
        assert app.aborted == 1
        assert app.governors.minted == 1

    def test_fact_budget_trips_inside_one_explosive_rule(self):
        # Same 503 body as a trip between firings; only ``partial`` shows
        # that the 216 000-fact join was stopped a stride past the limit.
        app = ServeApp()
        cross = {
            "program": "c(X, Y, Z) :- n(X), n(Y), n(Z).",
            "query": "c",
            "facts": " ".join(f"n({i})." for i in range(60)),
        }

        async def drive():
            await register(app, "cross", cross)
            return await app.handle(
                "POST",
                "/programs/cross/query",
                {"goal": "c(X, Y, Z)", "max_facts": 1000, "mode": "magic"},
            )

        status, payload = run(drive())
        assert status == 503
        assert sorted(payload) == [
            "aborted", "error", "limit", "partial", "partial_answers", "phase",
        ]
        assert payload["limit"] == "max_facts" and payload["aborted"] is True
        assert sorted(payload["partial"]) == [
            "facts_derived", "iterations", "rows_scanned", "wall_time_seconds",
        ]
        assert payload["partial"]["rows_scanned"] < 2000
        assert payload["partial_answers"] == 0

    def test_server_ceiling_binds_unlimited_requests(self):
        app = ServeApp(defaults=Budget(max_facts=1))

        async def drive():
            await register(app, "alpha", ALPHA)
            return await app.handle(
                "POST", "/programs/alpha/query", {"goal": "p(0, Y)", "mode": "magic"}
            )

        status, payload = run(drive())
        assert status == 503
        assert payload["limit"] == "max_facts"

    def test_aborted_request_does_not_poison_the_next(self):
        app = ServeApp()

        async def drive():
            await register(app, "alpha", ALPHA)
            first = await app.handle(
                "POST",
                "/programs/alpha/query",
                {"goal": "p(0, Y)", "max_facts": 1, "mode": "magic"},
            )
            second = await app.handle(
                "POST", "/programs/alpha/query", {"goal": "p(0, Y)", "mode": "magic"}
            )
            return first, second

        (first_status, _), (second_status, second_payload) = run(drive())
        assert first_status == 503
        assert second_status == 200
        assert second_payload["answers"] == expected_answers(ALPHA, "p(0, Y)")

    def test_a_timeout_inside_the_rewrite_does_not_poison_the_next_request(self):
        """The 503 keeps nothing, so the next query compiles the real
        pipeline and costs what it costs on a fresh daemon."""

        async def drive(app, *goals):
            await register(app, "alpha", ALPHA)
            return [
                await app.handle("POST", "/programs/alpha/query", body)
                for body in goals
            ]

        ((_, fresh),) = run(drive(ServeApp(), {"goal": "p(3, Y)", "mode": "magic"}))
        app = ServeApp()
        (status, aborted), (_, after), (_, third) = run(
            drive(
                app,
                {"goal": "p(0, Y)", "timeout": 1e-6, "mode": "magic"},
                {"goal": "p(3, Y)", "mode": "magic"},
                {"goal": "p(5, Y)", "mode": "magic"},
            )
        )
        assert status == 503 and aborted["aborted"] is True
        assert aborted["phase"] in {"pipeline", "optimize", "adornments", "querytree"}
        assert after["stats"]["rows_scanned"] == fresh["stats"]["rows_scanned"]
        assert after["answers"] == expected_answers(ALPHA, "p(3, Y)")
        assert third["answers"] == expected_answers(ALPHA, "p(5, Y)")


class TestChaos:
    def test_armed_serve_request_fault_is_503(self):
        app = ServeApp()
        injector = FaultInjector().arm("serve.request", at=2)

        async def drive():
            with chaos(injector):
                first = await register(app, "alpha", ALPHA)
                second = await app.handle(
                    "POST", "/programs/alpha/query", {"goal": "p(0, Y)"}
                )
            return first, second

        async def wrapped():
            # register() asserts 200; the fault fires on the 2nd request.
            return await drive()

        first, (status, payload) = run(wrapped())
        assert first["mode"] == "fresh"
        assert status == 503
        assert payload["aborted"] is True
        assert "injected fault" in payload["error"]
        assert injector.fired == [("serve.request", 2)]


class TestConcurrency:
    @pytest.mark.parametrize("clients", [8])
    def test_concurrent_clients_get_single_threaded_answers(self, clients):
        """N async clients over two tenants, half on the default path and
        half on magic; every response equals the single-threaded
        pipeline's answers for that goal."""
        app = ServeApp()
        goals = {
            "alpha": ["p(0, Y)", "p(1, Y)", "p(2, Y)"],
            "beta": ["q(0, Y)", "q(2, Y)", "q(4, Y)"],
        }
        expected = {
            (tenant, goal): expected_answers(spec, goal)
            for tenant, spec in (("alpha", ALPHA), ("beta", BETA))
            for goal in goals[tenant]
        }

        async def client(index):
            plan = sorted(expected)
            responses = []
            for step in range(6):
                tenant, goal = plan[(index + step) % len(plan)]
                # Odd clients ask magic, which runs in executor threads.
                body = {"goal": goal, **({"mode": "magic"} if index % 2 else {})}
                status, payload = await app.handle(
                    "POST", f"/programs/{tenant}/query", body
                )
                assert status == 200, payload
                responses.append((tenant, goal, payload["answers"]))
            return responses

        async def drive():
            await register(app, "alpha", ALPHA)
            await register(app, "beta", BETA)
            return await asyncio.gather(*(client(i) for i in range(clients)))

        for responses in run(drive()):
            for tenant, goal, answers in responses:
                assert answers == expected[(tenant, goal)]

    def test_concurrent_queries_and_ingest_stay_consistent(self):
        """Writers exclude readers: a query, default or magic, never sees
        a half-applied ingest — every response matches the pipeline over
        either the old or the new EDB."""
        app = ServeApp()
        before = expected_answers(ALPHA, "p(0, Y)")
        extended = dict(ALPHA, facts=ALPHA["facts"] + "\ne(10, 11).")
        after = expected_answers(extended, "p(0, Y)")

        async def reader(index):
            seen = []
            body = {"goal": "p(0, Y)", **({"mode": "magic"} if index % 2 else {})}
            for _ in range(4):
                status, payload = await app.handle(
                    "POST", "/programs/alpha/query", body
                )
                assert status == 200, payload
                seen.append(payload["answers"])
            return seen

        async def writer():
            status, payload = await app.handle(
                "POST", "/programs/alpha/ingest", {"facts": "e(10, 11)."}
            )
            assert status == 200, payload

        async def drive():
            await register(app, "alpha", ALPHA)
            results = await asyncio.gather(
                reader(0), reader(1), reader(2), writer(), reader(3)
            )
            return [r for r in results if r is not None]

        for seen in run(drive()):
            for answers in seen:
                assert answers in (before, after)
