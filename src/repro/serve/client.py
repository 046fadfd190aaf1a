"""A small blocking client for the serving daemon (stdlib only).

Backs the ``repro client`` CLI command, the serving benchmark and the
``serve_smoke.py`` CI script.  One :class:`ServeClient` holds one
keep-alive connection; errors surface as :class:`ServeClientError`
carrying the HTTP status and the decoded JSON body, so callers can
distinguish bad input (400), unknown tenants (404) and budget-tripped
requests (503, with partial diagnostics) without string matching.

Transport failures (a dropped keep-alive, a daemon mid-restart) are
retried under the shared :class:`~repro.robustness.budget.RetryPolicy` —
the same capped-exponential-backoff-with-seeded-jitter curve the
checkpoint store uses — and the retry
counts are surfaced on the client (``retries_total``,
``last_retries``).
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection

from ..robustness.budget import RetryPolicy

__all__ = ["ServeClient", "ServeClientError"]


class ServeClientError(Exception):
    """A non-2xx daemon response."""

    def __init__(self, status: int, payload: dict):
        super().__init__(payload.get("error", f"HTTP {status}"))
        self.status = status
        self.payload = payload


class ServeClient:
    """Blocking JSON client over one keep-alive HTTP connection."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8484,
        timeout: float = 60.0,
        *,
        retry: RetryPolicy | None = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        #: Transport retries across the client's lifetime / last request.
        self.retries_total = 0
        self.last_retries = 0
        self._conn: HTTPConnection | None = None

    @classmethod
    def from_url(cls, url: str, *, timeout: float = 60.0) -> "ServeClient":
        trimmed = url.removeprefix("http://").rstrip("/")
        host, _, port = trimmed.partition(":")
        return cls(host, int(port) if port else 8484, timeout)

    # ------------------------------------------------------------------
    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def _round_trip(self, method: str, path: str, body: "str | None"):
        conn = self._connection()
        conn.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = conn.getresponse()
        return response, response.read()

    def request(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One round trip; raises :class:`ServeClientError` on >= 400.

        Transport failures (a dropped keep-alive, connection refused
        while the daemon restarts) retry on a fresh connection under
        the client's :class:`~repro.robustness.budget.RetryPolicy`: the
        backoff delays are capped-exponential with seeded jitter, and
        the attempt count is bounded — the final failure re-raises.
        """
        body = None if payload is None else json.dumps(payload)
        self.last_retries = 0
        delays = self.retry.delays()
        while True:
            try:
                response, raw = self._round_trip(method, path, body)
                break
            except (ConnectionError, OSError):
                self.close()
                delay = next(delays, None)
                if delay is None:
                    raise
                self.last_retries += 1
                self.retries_total += 1
                if delay > 0:
                    time.sleep(delay)
        decoded = json.loads(raw.decode("utf-8")) if raw else {}
        if response.status >= 400:
            raise ServeClientError(response.status, decoded)
        if self.last_retries:
            # Only annotate when a retry actually happened, so clean
            # responses stay byte-identical to the daemon's payload.
            decoded["client_retries"] = self.last_retries
        return decoded

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self.request("GET", "/healthz")

    def stats(self) -> dict:
        return self.request("GET", "/stats")

    def register(
        self,
        name: str,
        program: str,
        *,
        constraints: str | None = None,
        facts: str | None = None,
        query: str | None = None,
    ) -> dict:
        payload: dict = {"program": program}
        if constraints is not None:
            payload["constraints"] = constraints
        if facts is not None:
            payload["facts"] = facts
        if query is not None:
            payload["query"] = query
        return self.request("PUT", f"/programs/{name}", payload)

    def inspect(self, name: str) -> dict:
        return self.request("GET", f"/programs/{name}")

    def query(self, name: str, goal: str, **options: object) -> dict:
        payload: dict = {"goal": goal}
        payload.update({k: v for k, v in options.items() if v is not None})
        return self.request("POST", f"/programs/{name}/query", payload)

    def ingest(self, name: str, facts: str) -> dict:
        return self.request("POST", f"/programs/{name}/ingest", {"facts": facts})
