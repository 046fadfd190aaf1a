"""The wire format: parsing, normalized limit messages, abort payloads.

The satellite claim under test: a malformed ``timeout`` or
``max_facts`` produces the byte-identical message on both transports —
``repro run --timeout banana`` prints it to stderr and exits 2, a POST
body with ``"timeout": "banana"`` returns it as HTTP 400.
"""

import asyncio

import pytest

from repro.cli import main
from repro.datalog.atoms import Atom
from repro.datalog.database import FactRows
from repro.datalog.parser import parse_facts
from repro.datalog.terms import Constant
from repro.robustness import UsageError
from repro.robustness.budget import parse_limit_value, parse_timeout_value
from repro.serve.app import ServeApp
from repro.serve.wire import (
    aborted_payload,
    parse_ingest,
    parse_query,
    parse_register,
    rows_payload,
)

PROGRAM = "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y)."
FACTS = "e(1, 2).\ne(2, 3)."


class TestParseRegister:
    def test_minimal(self):
        request = parse_register({"program": PROGRAM, "facts": FACTS, "query": "p"})
        assert request.program.query == "p"
        assert len(request.facts) == 2

    def test_facts_text_joins_inline_facts_without_becoming_atoms(self, built):
        body = {
            "program": PROGRAM + "\ne(1, 2).",
            "facts": "e(2, 3).\n" + "".join(f"far({i}, {i + 1}).\n" for i in range(500)),
            "query": "p",
        }
        app = ServeApp()

        async def drive():
            status, _ = await app.handle("PUT", "/programs/t", body)
            assert status == 200
            return await app.handle("POST", "/programs/t/query", {"goal": "p(1, Y)"})

        status, payload = asyncio.run(drive())
        assert (status, payload["answers"]) == (200, [[1, 2], [1, 3]])
        ground = [a for a in built[Atom] if a.predicate in ("e", "far") and a.is_ground()]
        assert ground == [Atom("e", (Constant(1), Constant(2)))]
        # Inline facts first, then the text, as when both were atoms.
        request = parse_register(body)
        assert request.facts[:2] == parse_facts("e(1, 2). e(2, 3).")
        assert len(request.facts) == 502

    def test_body_must_be_object(self):
        with pytest.raises(UsageError, match="JSON object"):
            parse_register([1, 2])

    def test_program_required(self):
        with pytest.raises(UsageError, match="missing required field 'program'"):
            parse_register({})

    def test_bad_program_text(self):
        with pytest.raises(UsageError, match="cannot parse program"):
            parse_register({"program": "p(X :-"})



#: (parser, a body that parses, a field the route does not read)
UNREAD_FIELDS = [
    *(
        (parse_register, {"program": PROGRAM}, field)
        for field in ("engine", "plan_order", "strategy", "storage", "workers", "goal")
    ),
    (parse_query, {"goal": "p(1, Y)"}, "engine"),
    (parse_query, {"goal": "p(1, Y)"}, "facts"),
    (parse_ingest, {"facts": FACTS}, "workers"),
    (parse_ingest, {"facts": FACTS}, "program"),
]


@pytest.mark.parametrize(
    "parse,body,field", UNREAD_FIELDS, ids=[f"{p.__name__}-{f}" for p, _, f in UNREAD_FIELDS]
)
def test_a_field_the_route_does_not_read_is_refused(parse, body, field):
    parse(body)
    with pytest.raises(UsageError, match=f"unknown field.*'{field}'"):
        parse({**body, field: 2})


def test_a_query_naming_a_sideways_order_is_http_400():
    app = ServeApp()

    async def drive():
        await app.handle("PUT", "/programs/t", {"program": PROGRAM, "facts": FACTS})
        return await app.handle(
            "POST", "/programs/t/query", {"goal": "p(1, Y)", "sips": "most-bound"}
        )

    status, payload = asyncio.run(drive())
    assert status == 400
    assert "unknown field(s) 'sips'" in payload["error"]


def test_the_benchmark_bodies_parse():
    """The field sets ``perf/serve.py`` sends."""
    parse_register({"program": PROGRAM, "constraints": "", "facts": FACTS, "query": "p"})
    parse_query({"goal": "p(1, Y)", "mode": "materialized"})
    parse_query({"goal": "p(1, Y)", "order": "magic-first"})
    parse_ingest({"facts": FACTS})


def test_an_order_on_a_materialized_query_is_http_400():
    """A materialized answer runs no pipeline, so an ``order`` beside it
    would be dropped: the request is refused, naming the field."""
    with pytest.raises(UsageError, match="'order'"):
        parse_query({"goal": "p(1, Y)", "mode": "materialized", "order": "magic-first"})
    app = ServeApp()

    async def drive():
        await app.handle("PUT", "/programs/t", {"program": PROGRAM, "facts": FACTS})
        return await app.handle(
            "POST", "/programs/t/query",
            {"goal": "p(1, Y)", "mode": "materialized", "order": "semantic-first"},
        )

    status, payload = asyncio.run(drive())
    assert status == 400
    assert "'order'" in payload["error"]


class TestParseQuery:
    def test_defaults(self):
        request = parse_query({"goal": "p(1, Y)"})
        assert request.mode == "materialized"
        assert request.order == "semantic-first"
        assert request.timeout is None

    def test_bad_goal(self):
        with pytest.raises(UsageError, match="cannot parse goal"):
            parse_query({"goal": "p(1"})

    def test_bad_mode(self):
        with pytest.raises(UsageError, match="invalid mode"):
            parse_query({"goal": "p(1, Y)", "mode": "psychic"})

    @pytest.mark.parametrize("value", ["banana", -1, 0, "0", False])
    def test_bad_timeout_is_normalized(self, value):
        with pytest.raises(UsageError, match="expected a positive number of seconds"):
            parse_query({"goal": "p(1, Y)", "timeout": value})

    @pytest.mark.parametrize("value", ["many", 0, -3, 2.5])
    def test_bad_max_facts_is_normalized(self, value):
        with pytest.raises(UsageError, match="expected a positive integer"):
            parse_query({"goal": "p(1, Y)", "max_facts": value})


class TestParseIngest:
    def test_facts_required(self):
        with pytest.raises(UsageError, match="missing required field 'facts'"):
            parse_ingest({})

    def test_empty_facts_rejected(self):
        with pytest.raises(UsageError, match="no ground facts"):
            parse_ingest({"facts": "% just a comment"})

    def test_parses(self):
        assert len(parse_ingest({"facts": FACTS}).facts) == 2

    def test_an_ingest_carries_real_atoms(self):
        facts = parse_ingest({"facts": FACTS}).facts
        assert isinstance(facts, FactRows) and all(type(fact) is Atom for fact in facts)
        assert facts == parse_facts(FACTS)


class TestNormalizedMessagesSharedWithCli:
    """One normalization helper, two transports, identical bytes."""

    def test_timeout_message_identical(self, capsys):
        assert main(["run", "program.dl", "--timeout", "banana"]) == 2
        cli_message = capsys.readouterr().err.strip()
        with pytest.raises(UsageError) as info:
            parse_timeout_value("banana")
        assert cli_message == f"error: {info.value}"

    def test_max_facts_message_identical(self, capsys):
        assert main(["run", "program.dl", "--max-facts", "0"]) == 2
        cli_message = capsys.readouterr().err.strip()
        with pytest.raises(UsageError) as info:
            parse_limit_value("0", option="max-facts")
        assert cli_message == f"error: {info.value}"

    def test_http_400_carries_the_same_message(self):
        app = ServeApp()

        async def drive():
            await app.handle("PUT", "/programs/t", {"program": PROGRAM, "facts": FACTS})
            return await app.handle(
                "POST", "/programs/t/query", {"goal": "p(1, Y)", "timeout": "banana"}
            )

        status, payload = asyncio.run(drive())
        assert status == 400
        with pytest.raises(UsageError) as info:
            parse_timeout_value("banana")
        assert payload["error"] == str(info.value)


def test_rows_payload_is_sorted_and_json_ready():
    rows = frozenset([(2, 3), (1, 2)])
    assert rows_payload(rows) == [[1, 2], [2, 3]]


def test_aborted_payload_mirrors_cli_diagnostics():
    from repro.datalog.database import Database
    from repro.datalog.evaluation import evaluate
    from repro.datalog.parser import parse_program
    from repro.robustness import Budget, BudgetExceededError, Governor

    program = parse_program(PROGRAM, query="p")
    database = Database()
    for left in range(8):
        database.add_row("e", (left, left + 1))
    with pytest.raises(BudgetExceededError) as info:
        evaluate(program, database, budget=Governor(Budget(max_facts=3)))
    payload = aborted_payload(info.value)
    assert payload["aborted"] is True
    assert payload["limit"] == "max_facts"
    assert payload["partial"]["facts_derived"] >= 3
    assert payload["partial"]["iterations"] >= 0
    assert payload["phase"] == "evaluate"
    assert payload["partial_answers"] >= 0
