"""The daemon's JSON wire format: request parsing and response shaping.

Parsing reuses the exact normalization helpers the CLI uses
(:func:`~repro.robustness.budget.parse_timeout_value`,
:func:`~repro.robustness.budget.parse_limit_value`, the parser's own
input errors), so a malformed ``timeout`` in a POST body produces the
byte-identical message ``repro run --timeout ...`` prints — HTTP 400
and exit code 2 are the same diagnostic on two transports.

Response shaping mirrors the CLI's abort contract: a tripped budget or
injected fault becomes HTTP 503 whose body carries the same
partial-result summary the CLI prints on exit code 1 (facts derived,
iterations, rows scanned, wall time, partial answer count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..datalog.atoms import Atom
from ..datalog.database import FactRows
from ..datalog.parser import parse_atom, parse_constraints, parse_facts, parse_program_and_facts
from ..magic.pipeline import PIPELINE_ORDERS
from ..robustness.budget import parse_limit_value, parse_timeout_value
from ..robustness.errors import EvaluationAborted, UsageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..constraints.integrity import IntegrityConstraint
    from ..datalog.database import Row
    from ..datalog.program import Program

__all__ = [
    "QUERY_MODES",
    "RegisterRequest",
    "QueryRequest",
    "IngestRequest",
    "parse_register",
    "parse_query",
    "parse_ingest",
    "rows_payload",
    "aborted_payload",
]

#: How a query is answered: ``materialized`` (the default) probes the
#: tenant's resident fixpoint with zero evaluation; ``magic`` runs the
#: magic-sets pipeline over the EDB.
QUERY_MODES = ("magic", "materialized")


def _require_object(payload: object, fields: Sequence[str]) -> dict:
    """``payload`` as a JSON object holding nothing outside ``fields``.

    A field the route does not read is refused, not skipped: a client
    must not be served as if an option it sent had been honoured.
    """
    if not isinstance(payload, dict):
        raise UsageError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload).difference(fields))
    if unknown:
        raise UsageError(
            f"unknown field(s) {', '.join(map(repr, unknown))} "
            f"(this route reads: {', '.join(fields)})"
        )
    return payload


def _text_field(payload: dict, name: str, *, required: bool = False) -> str | None:
    value = payload.get(name)
    if value is None:
        if required:
            raise UsageError(f"missing required field {name!r}")
        return None
    if not isinstance(value, str):
        raise UsageError(f"field {name!r} must be a string")
    return value


def _choice_field(payload: dict, name: str, choices: Sequence[str], default: str) -> str:
    value = payload.get(name, default)
    if value not in choices:
        raise UsageError(
            f"invalid {name} {value!r} (valid: {', '.join(sorted(choices))})"
        )
    return value


@dataclass(frozen=True)
class RegisterRequest:
    """``PUT /programs/{name}``: program, constraint and fact text."""

    program: "Program"
    facts: Sequence[Atom]
    constraints: "tuple[IntegrityConstraint, ...]"


@dataclass(frozen=True)
class QueryRequest:
    """``POST /programs/{name}/query``: a bound goal plus limits."""

    goal: Atom
    mode: str
    order: str
    timeout: float | None
    max_facts: int | None
    max_iterations: int | None


@dataclass(frozen=True)
class IngestRequest:
    """``POST /programs/{name}/ingest``: new ground EDB facts, as rows."""

    facts: FactRows


def parse_register(payload: object) -> RegisterRequest:
    payload = _require_object(payload, ("program", "constraints", "facts", "query"))
    source = _text_field(payload, "program", required=True)
    query = _text_field(payload, "query")
    try:
        program, inline_facts = parse_program_and_facts(source, query=query)
    except Exception as exc:
        raise UsageError(f"cannot parse program: {exc}") from exc
    facts: Sequence[Atom] = tuple(inline_facts)
    facts_text = _text_field(payload, "facts")
    if facts_text:
        try:
            facts = FactRows.of(facts, parse_facts(facts_text))
        except Exception as exc:
            raise UsageError(f"cannot parse facts: {exc}") from exc
    constraints: "tuple[IntegrityConstraint, ...]" = ()
    constraints_text = _text_field(payload, "constraints")
    if constraints_text:
        try:
            constraints = tuple(parse_constraints(constraints_text))
        except Exception as exc:
            raise UsageError(f"cannot parse constraints: {exc}") from exc
    return RegisterRequest(
        program=program, facts=facts, constraints=constraints
    )


def parse_query(payload: object) -> QueryRequest:
    payload = _require_object(
        payload,
        ("goal", "mode", "order", "timeout", "max_facts", "max_iterations"),
    )
    goal_text = _text_field(payload, "goal", required=True)
    try:
        goal = parse_atom(goal_text)
    except Exception as exc:
        # The same message shape _load_goal gives --goal on the CLI.
        raise UsageError(f"cannot parse goal {goal_text!r}: {exc}") from exc
    # A query naming neither field reads the fixpoint the tenant keeps;
    # naming an order asks for the pipeline, so it selects magic.
    default_mode = "magic" if "order" in payload else "materialized"
    mode = _choice_field(payload, "mode", QUERY_MODES, default_mode)
    if mode == "materialized" and "order" in payload:
        raise UsageError(
            "field 'order' does not apply to mode 'materialized' "
            "(a materialized answer runs no pipeline)"
        )
    return QueryRequest(
        goal=goal,
        mode=mode,
        order=_choice_field(payload, "order", PIPELINE_ORDERS, "semantic-first"),
        timeout=parse_timeout_value(payload.get("timeout")),
        max_facts=parse_limit_value(payload.get("max_facts"), option="max-facts"),
        max_iterations=parse_limit_value(
            payload.get("max_iterations"), option="max-iterations"
        ),
    )


def parse_ingest(payload: object) -> IngestRequest:
    payload = _require_object(payload, ("facts",))
    facts_text = _text_field(payload, "facts", required=True)
    try:
        facts = parse_facts(facts_text)
    except Exception as exc:
        raise UsageError(f"cannot parse facts: {exc}") from exc
    if not facts:
        raise UsageError("field 'facts' holds no ground facts")
    return IngestRequest(facts=facts)


def rows_payload(rows: "Sequence[Row] | frozenset[Row]") -> list[list]:
    """Rows as JSON arrays, in the CLI's deterministic print order."""
    return [list(row) for row in sorted(rows, key=repr)]


def aborted_payload(exc: EvaluationAborted) -> dict:
    """The HTTP 503 body for an aborted request.

    Field-for-field the information the CLI prints to stderr before
    exiting 1: the abort message, the tripped phase and limit, the
    partial-work counters and the count of partial answers already
    derived for the query predicate.
    """
    body: dict = {
        "error": str(exc),
        "aborted": True,
        "phase": exc.phase,
        "limit": exc.limit,
    }
    stats = exc.stats
    partial = exc.partial
    if stats is None and partial is not None:
        stats = partial.stats
    if stats is not None:
        body["partial"] = {
            "facts_derived": stats.facts_derived,
            "iterations": stats.iterations,
            "rows_scanned": stats.rows_scanned,
            "wall_time_seconds": stats.wall_time_seconds,
        }
    if partial is not None and partial.program.query is not None:
        try:
            rows = partial.query_rows()
        except (KeyError, ValueError):
            rows = frozenset()
        body["partial_answers"] = len(rows)
    return body
