""":class:`ServeApp` — the daemon's transport-free request handler.

Every route is one ``async`` call on :meth:`ServeApp.handle`, taking
``(method, path, body)`` and returning ``(status, payload)`` — the
HTTP layer in :mod:`repro.serve.http` is a thin shell around it, and
the tests drive it directly without sockets.

The request life cycle:

1. the handler emits a ``serve.request`` trace event (the chaos
   harness's injection site for the serving layer) and opens a
   ``serve.request`` span carrying the tenant and request kind — the
   profiler aggregates these into per-tenant lines;
2. input is parsed by :mod:`repro.serve.wire`; a
   :class:`~repro.robustness.errors.UsageError` becomes HTTP 400 with
   the same normalized message the CLI prints with exit code 2;
3. CPU-bound work (the magic pipeline, evaluation, ingest) runs
   in an executor thread; a magic query runs under a **per-request**
   :class:`~repro.robustness.budget.Governor` minted by
   :class:`~repro.robustness.budget.RequestGovernorFactory` — the
   tighter of the server ceiling and the request's own limits;
4. an :class:`~repro.robustness.errors.EvaluationAborted` (budget
   trip or injected fault — they share one type hierarchy on
   purpose) becomes HTTP 503 whose body carries the same
   partial-result diagnostics the CLI prints on exit code 1.

Query modes: ``materialized`` (the default, for a request naming
neither ``mode`` nor ``order``) answers from the tenant's resident
fixpoint — one hash probe on the goal's constants, on the event loop
under the tenant read lock, with zero evaluation, so no budget binds
it.  ``magic`` (asked for by name, or by naming an ``order``) compiles
the pipeline for the goal (:func:`~repro.magic.pipeline.run_pipeline`)
and evaluates its program once over the tenant's EDB; the request keeps
nothing, so one whose budget trips is a 503 that leaves the next
request as it would have been.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import TYPE_CHECKING

from ..datalog.terms import Constant
# The name ``perf/serve.py`` wraps to time a served magic compile.
from ..magic.pipeline import run_pipeline as specialize_pipeline
from ..magic.transform import match_query_atom
from ..observability.trace import get_tracer
from ..robustness.budget import Budget, RequestGovernorFactory
from ..robustness.errors import EvaluationAborted, ReproError, UsageError
from ..persist.journal import JournalUnavailable
from .registry import Tenant, TenantRegistry, UnknownTenant
from .wire import (
    QueryRequest,
    aborted_payload,
    parse_ingest,
    parse_query,
    parse_register,
    rows_payload,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

__all__ = ["ServeApp"]

#: Routes of the API, for 404 vs 405 disambiguation.
_TENANT_ACTIONS = ("query", "ingest")


class ServeApp:
    """The multi-tenant serving application."""

    def __init__(
        self,
        *,
        persist_root: "Path | None" = None,
        defaults: Budget | None = None,
    ):
        self.registry = TenantRegistry(persist_root)
        self.governors = RequestGovernorFactory(defaults)
        self.started_at = time.monotonic()
        self.requests = 0
        self.aborted = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    async def handle(self, method: str, path: str, body: object = None) -> tuple[int, dict]:
        """Dispatch one request; returns ``(status, JSON-ready payload)``."""
        self.requests += 1
        tracer = get_tracer()
        parts = [p for p in path.split("/") if p]
        tenant_name = parts[1] if len(parts) >= 2 and parts[0] == "programs" else None
        kind = self._kind(method, parts)
        try:
            # The serving layer's chaos site: armed faults fire here and
            # travel the same 503 path a real budget trip takes.
            tracer.event(
                "serve.request", method=method, path=path, tenant=tenant_name
            )
        except (ReproError, EvaluationAborted) as exc:
            return self._failure(exc)
        try:
            with tracer.span(
                "serve.request", method=method, path=path,
                tenant=tenant_name, kind=kind,
            ) as span:
                try:
                    status, payload = await self._route(method, parts, body)
                except (ReproError, EvaluationAborted) as exc:
                    status, payload = self._failure(exc)
                span.set(status=status)
                return status, payload
        except (ReproError, EvaluationAborted) as exc:
            # A chaos fault on the span-entry site itself.
            return self._failure(exc)

    def _failure(self, exc: Exception) -> tuple[int, dict]:
        """Map a structured error to its HTTP status (counted)."""
        if isinstance(exc, UnknownTenant):
            self.rejected += 1
            return 404, {"error": str(exc)}
        if isinstance(exc, JournalUnavailable):
            # The write-ahead journal could not fsync within the retry
            # budget: the ingest was NOT acknowledged and nothing
            # mutated — retryable, so 503 rather than 400.  Accepting
            # the ingest unjournaled here would silently reintroduce
            # the lost-acknowledged-write window the journal closes.
            self.aborted += 1
            return 503, {"error": str(exc), "retryable": True}
        if isinstance(exc, EvaluationAborted):
            self.aborted += 1
            return 503, aborted_payload(exc)
        self.rejected += 1
        return 400, {"error": str(exc)}

    @staticmethod
    def _kind(method: str, parts: list[str]) -> str:
        if parts and parts[0] == "programs":
            if len(parts) == 3:
                return parts[2]
            return "register" if method == "PUT" else "inspect"
        return parts[0] if parts else "root"

    async def _route(self, method: str, parts: list[str], body: object) -> tuple[int, dict]:
        if parts == ["healthz"]:
            self._require(method, "GET")
            return 200, await self._healthz()
        if parts == ["stats"]:
            self._require(method, "GET")
            return 200, await self._stats()
        if len(parts) == 2 and parts[0] == "programs":
            if method == "PUT":
                return await self._register(parts[1], self._json(body))
            self._require(method, "GET")
            return await self._inspect(parts[1])
        if len(parts) == 3 and parts[0] == "programs" and parts[2] in _TENANT_ACTIONS:
            self._require(method, "POST")
            if parts[2] == "query":
                return await self._query(parts[1], self._json(body))
            return await self._ingest(parts[1], self._json(body))
        raise UsageError(f"no such route: {method} /{'/'.join(parts)}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise UsageError(f"method {method} not allowed here (use {expected})")

    @staticmethod
    def _json(body: object) -> object:
        """Decode a raw request body (bytes/str) into JSON, if needed."""
        if body is None:
            return {}
        if isinstance(body, (bytes, bytearray)):
            try:
                body = body.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise UsageError(f"request body is not UTF-8: {exc}") from None
        if isinstance(body, str):
            if not body.strip():
                return {}
            try:
                return json.loads(body)
            except json.JSONDecodeError as exc:
                raise UsageError(f"request body is not valid JSON: {exc}") from None
        return body

    # ------------------------------------------------------------------
    async def _register(self, name: str, payload: object) -> tuple[int, dict]:
        request = parse_register(payload)
        tenant = self.registry.create(name, request)
        async with self.registry.lock.write_locked():
            outcome = await asyncio.get_running_loop().run_in_executor(
                None, tenant.materialize
            )
            self.registry.install(tenant)
        return 200, {
            "tenant": name,
            "mode": outcome.mode,
            "idb_facts": sum(len(rel) for rel in outcome.result.idb.values()),
            "latest_round": outcome.result.stats.iterations,
        }

    async def _inspect(self, name: str) -> tuple[int, dict]:
        async with self.registry.lock.read_locked():
            tenant = self.registry.get(name)
            async with tenant.lock.read_locked():
                return 200, {"tenant": name, **tenant.info()}

    def _journal_totals(self) -> dict:
        """Fleet-wide journal lag and replay count (registry read lock held)."""
        # Journal lag: acknowledged ingest records no base covers yet,
        # across the fleet — the work a kill right now would replay on
        # restart.  Positive lag is the steady state (a base is written
        # once the journal has grown by the last base's size, which
        # also bounds it); lag that keeps growing past that means base
        # writes keep failing and restarts keep getting slower.
        journal = {"lag": 0, "replayed": 0}
        for name in self.registry.names():
            tenant = self.registry.get(name)
            info = tenant.session.journal_info()
            if info is not None:
                journal["lag"] += info["lag"]
            journal["replayed"] += tenant.replayed
        return journal

    async def _healthz(self) -> dict:
        """Readiness: liveness plus the fleet's journal lag."""
        async with self.registry.lock.read_locked():
            journal = self._journal_totals()
        return {
            "ok": True,
            "ready": True,
            "uptime_seconds": time.monotonic() - self.started_at,
            "tenants": len(self.registry),
            "journal": journal,
        }

    async def _stats(self) -> dict:
        async with self.registry.lock.read_locked():
            tenants = {}
            for name in self.registry.names():
                tenant = self.registry.get(name)
                async with tenant.lock.read_locked():
                    tenants[name] = tenant.info()
            journal = self._journal_totals()
        return {
            "uptime_seconds": time.monotonic() - self.started_at,
            "requests": self.requests,
            "aborted": self.aborted,
            "rejected": self.rejected,
            "governors_minted": self.governors.minted,
            "journal": journal,
            "tenants": tenants,
        }

    # ------------------------------------------------------------------
    async def _query(self, name: str, payload: object) -> tuple[int, dict]:
        request = parse_query(payload)
        async with self.registry.lock.read_locked():
            tenant = self.registry.get(name)
        async with tenant.lock.read_locked():
            if request.goal.predicate not in tenant.program.idb_predicates:
                raise UsageError(
                    f"query atom {request.goal} does not use an IDB predicate "
                    f"of program {name!r}"
                )
            if request.mode == "materialized":
                response = self._answer_materialized(tenant, request)
            else:
                governor = self.governors.for_request(
                    timeout=request.timeout,
                    max_facts=request.max_facts,
                    max_iterations=request.max_iterations,
                )
                response = await asyncio.get_running_loop().run_in_executor(
                    None, self._answer_magic, tenant, request, governor
                )
            tenant.queries += 1
        return 200, {"tenant": name, "goal": str(request.goal), **response}

    def _answer_magic(self, tenant: Tenant, request: QueryRequest, governor) -> dict:
        report = specialize_pipeline(
            tenant.program,
            tenant.constraints,
            request.goal,
            order=request.order,
            budget=governor,
        )
        if report.program is None:
            return {
                "mode": "magic",
                "order": request.order,
                "satisfiable": False,
                "answers": [],
            }
        result = report.evaluation(tenant.database, budget=governor)
        answers = frozenset(
            row for row in result.query_rows()
            if match_query_atom(row, request.goal)
        )
        return {
            "mode": "magic",
            "order": request.order,
            "satisfiable": True,
            "answers": rows_payload(answers),
            "stats": {
                "facts_derived": result.stats.facts_derived,
                "iterations": result.stats.iterations,
                "rows_scanned": result.stats.rows_scanned,
                "probes": result.stats.probes,
            },
        }

    def _answer_materialized(self, tenant: Tenant, request: QueryRequest) -> dict:
        """Answer from the resident fixpoint — zero evaluation."""
        if tenant.materialized is None:
            raise UsageError(
                f"program {tenant.name!r} has no materialized fixpoint"
            )
        result = tenant.materialized.result
        goal = request.goal
        # Probe the live relation's hash index on the goal's constants
        # (kept current across ingests); an all-free goal scans.
        bound = tuple(i for i, arg in enumerate(goal.args) if isinstance(arg, Constant))
        rows = result.relation(goal.predicate).probe(
            bound, tuple(goal.args[i].value for i in bound)
        )
        answers = frozenset(row for row in rows if match_query_atom(row, goal))
        return {
            "mode": "materialized",
            "materialized_mode": tenant.mode,
            "answers": rows_payload(answers),
            "latest_round": result.stats.iterations,
        }

    async def _ingest(self, name: str, payload: object) -> tuple[int, dict]:
        request = parse_ingest(payload)
        async with self.registry.lock.read_locked():
            tenant = self.registry.get(name)
        async with tenant.lock.write_locked():
            try:
                outcome = await asyncio.get_running_loop().run_in_executor(
                    None, tenant.ingest, request.facts
                )
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
        return 200, {
            "tenant": name,
            "mode": outcome.mode,
            "ingested": len(request.facts),
            "idb_facts": sum(len(rel) for rel in outcome.result.idb.values()),
            "latest_round": outcome.result.stats.iterations,
        }
