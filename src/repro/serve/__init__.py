"""The serving daemon: multi-tenant Datalog querying over HTTP.

``repro serve`` boots an asyncio HTTP daemon (stdlib only) that keeps
any number of registered programs ("tenants") resident, each with its
fixpoint kept current across ingests, and answers query atoms by
probing that fixpoint — or, on request (``mode: "magic"`` or an
``order``), with the full magic-sets pipeline, compiled per request:

* :mod:`repro.serve.wire` — the JSON wire format: request parsing
  (shared, normalized diagnostics with the CLI) and response shaping;
* :mod:`repro.serve.registry` — tenant state (program, constraints,
  live database, materialized fixpoint) behind per-tenant
  reader-writer locks; with a persist directory, a registration
  recovers the tenant's acknowledged ingests from its journal and
  re-derives its fixpoint;
* :mod:`repro.serve.app` — :class:`ServeApp`, the transport-free
  request handler (every route is an ``async`` method call, so tests
  drive it without sockets);
* :mod:`repro.serve.http` — the asyncio HTTP/1.1 layer;
* :mod:`repro.serve.client` — the blocking client used by
  ``repro client`` and the smoke scripts.

Every magic request runs under its own
:class:`~repro.robustness.budget.Governor` (the tighter of the server's
ceiling and the request's own limits); a tripped budget returns HTTP
503 carrying the same partial-result diagnostics the CLI prints on
exit code 1.
"""

from .._lazy import lazy_exports

# Nothing is imported up front: the CLI reads ``wire`` alone to report
# a tripped budget, and ``repro client`` needs the client alone.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".app": ("ServeApp",),
    ".client": ("ServeClient", "ServeClientError"),
    ".http": ("ServeDaemon", "run_server"),
    ".registry": ("Tenant", "TenantRegistry"),
})

__all__ = [
    "ServeApp",
    "ServeClient",
    "ServeClientError",
    "ServeDaemon",
    "run_server",
    "Tenant",
    "TenantRegistry",
]
