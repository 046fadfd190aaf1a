"""Per-tenant profiler lines and the shared digest helpers."""

import asyncio

from repro.digest import program_digest, workload_digest
from repro.observability import RingBufferSink, build_profile
from repro.observability.trace import tracing
from repro.serve.app import ServeApp

SPEC = {
    "program": "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).",
    "query": "p",
    "facts": "\n".join(f"e({i}, {i + 1})." for i in range(8)),
}


def _drive_traced():
    sink = RingBufferSink()
    app = ServeApp()

    async def run():
        await app.handle("PUT", "/programs/t1", SPEC)
        for body in ({"goal": "p(0, Y)"}, {"goal": "p(1, Y)"},
                     {"goal": "p(0, Y)", "max_facts": 1}):
            await app.handle(
                "POST", "/programs/t1/query", {**body, "mode": "magic"}
            )
        await app.handle("POST", "/programs/t1/ingest", {"facts": "e(8, 9)."})

    with tracing(sink):
        asyncio.run(run())
    return build_profile(sink)


def test_profile_aggregates_per_tenant_lines():
    profile = _drive_traced()
    tenant = profile.tenants["t1"]
    assert tenant.requests == 5
    assert tenant.queries == 3
    assert tenant.ingests == 1
    assert tenant.errors == 1
    assert tenant.aborted == 1


def test_profile_render_has_serving_section():
    text = _drive_traced().render()
    assert "serving, per tenant:" in text
    assert "tenant" in text
    assert "t1" in text


class TestSharedDigests:
    """Satellite: one digest implementation across persist/serve."""

    def test_program_digest_ignores_data(self):
        from repro.datalog.parser import parse_program

        program = parse_program(SPEC["program"], query="p")
        assert program_digest(program) == workload_digest(program, None, ())

    def test_workload_digest_covers_data(self):
        from repro.datalog.database import Database
        from repro.datalog.parser import parse_facts, parse_program

        program = parse_program(SPEC["program"], query="p")
        small = Database(parse_facts("e(1, 2)."))
        large = Database(parse_facts("e(1, 2).\ne(2, 3)."))
        assert workload_digest(program, small) != workload_digest(program, large)
