"""The serving daemon: multi-tenant Datalog querying over HTTP.

``repro serve`` boots an asyncio HTTP daemon (stdlib only) that keeps
any number of registered programs ("tenants") resident and answers
bound query atoms against them with the full magic-sets pipeline,
specialized per request:

* :mod:`repro.serve.wire` — the JSON wire format: request parsing
  (shared, normalized diagnostics with the CLI) and response shaping;
* :mod:`repro.serve.cache` — the LRU artifact cache behind
  :func:`repro.magic.pipeline.specialize_pipeline`: repeated query
  *shapes* skip the semantic rewrite, adornment and magic transform;
* :mod:`repro.serve.registry` — tenant state (program, constraints,
  live database, materialized fixpoint) behind per-tenant
  reader-writer locks, with checkpoint-backed warm start;
* :mod:`repro.serve.app` — :class:`ServeApp`, the transport-free
  request handler (every route is an ``async`` method call, so tests
  drive it without sockets);
* :mod:`repro.serve.http` — the asyncio HTTP/1.1 layer;
* :mod:`repro.serve.client` — the blocking client used by
  ``repro client`` and the smoke scripts.

Every request runs under its own
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
    ".cache": ("ArtifactCache",),
    ".client": ("ServeClient", "ServeClientError"),
    ".http": ("ServeDaemon", "run_server"),
    ".registry": ("Tenant", "TenantRegistry"),
})

__all__ = [
    "ServeApp",
    "ArtifactCache",
    "ServeClient",
    "ServeClientError",
    "ServeDaemon",
    "run_server",
    "Tenant",
    "TenantRegistry",
]
