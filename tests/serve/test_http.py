"""The HTTP shell and blocking client over a real socket.

One module-scoped daemon (ephemeral port, background event loop);
clients exercise keep-alive, status mapping (400/404/503 as
:class:`ServeClientError`) and concurrent access from real threads.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.cli import main
from repro.serve.app import ServeApp
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import MAX_BODY_BYTES, ServeDaemon

PROGRAM = "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y)."
FACTS = "\n".join(f"e({i}, {i + 1})." for i in range(8))


@pytest.fixture(scope="module")
def daemon():
    app = ServeApp()
    server = ServeDaemon(app)
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def serve():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        try:
            loop.run_until_complete(server.serve_forever())
        except asyncio.CancelledError:
            pass
        finally:
            loop.run_until_complete(server.stop())
            loop.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(timeout=30)
    with ServeClient(server.host, server.port) as client:
        client.register("alpha", PROGRAM, facts=FACTS, query="p")
    yield server
    asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=30)
    thread.join(timeout=30)


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.host, daemon.port) as connection:
        yield connection


def test_health_roundtrip(client):
    payload = client.health()
    assert payload["ok"] is True
    assert payload["uptime_seconds"] >= 0


def test_from_url_parses_host_and_port(daemon):
    with ServeClient.from_url(daemon.url) as parsed:
        assert parsed.health()["ok"] is True


def test_query_over_the_wire(client):
    payload = client.query("alpha", "p(0, Y)", mode="magic")
    assert payload["satisfiable"] is True
    assert [0, 8] in payload["answers"]
    assert payload["stats"]["facts_derived"] > 0


def test_keep_alive_reuses_one_connection(client):
    client.health()
    first = client._conn
    client.query("alpha", "p(1, Y)")
    assert client._conn is first


def test_unknown_tenant_is_404(client):
    with pytest.raises(ServeClientError) as info:
        client.query("ghost", "p(0, Y)")
    assert info.value.status == 404


def test_malformed_timeout_is_400_with_normalized_message(client):
    with pytest.raises(ServeClientError) as info:
        client.query("alpha", "p(0, Y)", timeout="banana")
    assert info.value.status == 400
    assert (
        info.value.payload["error"]
        == "invalid timeout 'banana': expected a positive number of seconds"
    )


def test_budget_trip_is_503_with_partial_diagnostics(client):
    with pytest.raises(ServeClientError) as info:
        client.query("alpha", "p(0, Y)", mode="magic", max_facts=1)
    assert info.value.status == 503
    payload = info.value.payload
    assert payload["aborted"] is True
    assert payload["partial"]["facts_derived"] >= 1


def _raw_exchange(daemon, request: bytes) -> bytes:
    """Send raw bytes on a fresh connection; read until the daemon closes it."""
    with socket.create_connection((daemon.host, daemon.port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize(
    "header, error",
    [
        ("Content-Length: abc", "invalid Content-Length 'abc': expected a non-negative integer"),
        ("Content-Length: -5", "invalid Content-Length '-5': expected a non-negative integer"),
        (
            f"Content-Length: {MAX_BODY_BYTES + 1}",
            f"request body of {MAX_BODY_BYTES + 1} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit",
        ),
        ("X-Pad: " + "a" * 70_000, "request line or header line too long"),
    ],
    ids=["not-a-number", "negative", "over-the-limit", "header-too-long"],
)
def test_a_body_that_cannot_be_framed_is_400_then_close(daemon, client, caplog, header, error):
    reply = _raw_exchange(
        daemon, f"POST /programs/alpha/query HTTP/1.1\r\n{header}\r\n\r\n".encode()
    )
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
    assert b"\r\nConnection: close" in head
    assert json.loads(body) == {"error": error}
    assert not [record for record in caplog.records if record.name == "asyncio"]
    # The daemon keeps serving: a fresh connection is answered.
    assert client.query("alpha", "p(0, Y)")["answers"]


def test_client_register_refuses_a_name_outside_the_root(daemon, tmp_path, capsys):
    program = tmp_path / "p.dl"
    program.write_text(PROGRAM)
    argv = ["client", "--url", daemon.url, "register", "..", "--program", str(program)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid tenant name '..': expected one plain path component" in err


def test_ingest_over_the_wire(client):
    client.ingest("alpha", "e(8, 9).")
    payload = client.query("alpha", "p(8, Y)")
    assert [8, 9] in payload["answers"]


def test_stats_over_the_wire(client):
    client.query("alpha", "p(0, Y)", mode="magic")
    payload = client.stats()
    assert payload["tenants"]["alpha"]["queries"] >= 1
    assert "cache" not in payload


def test_concurrent_thread_clients_agree(daemon):
    expected = None
    with ServeClient(daemon.host, daemon.port) as probe:
        expected = probe.query("alpha", "p(2, Y)")["answers"]
    failures = []

    def worker():
        try:
            with ServeClient(daemon.host, daemon.port) as connection:
                for _ in range(5):
                    answers = connection.query("alpha", "p(2, Y)")["answers"]
                    if answers != expected:
                        failures.append(answers)
        except Exception as exc:  # pragma: no cover - surfaced via failures
            failures.append(repr(exc))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures


# ----------------------------------------------------------------------
# The client's retries over a failing transport (no socket needed)


@pytest.mark.usefixtures("fast_retry")
class TestClientRetry:
    def _flaky(self, failures, response_payload=b'{"ok": true}'):
        """A client whose transport fails ``failures`` times, then works."""
        client = ServeClient()
        state = {"left": failures}

        class _Response:
            status = 200

        def round_trip(method, path, body):
            if state["left"] > 0:
                state["left"] -= 1
                raise ConnectionResetError("keep-alive dropped")
            return _Response(), response_payload

        client._round_trip = round_trip
        client.close = lambda: None
        return client

    def test_retries_under_policy_and_surfaces_count(self):
        client = self._flaky(2)
        payload = client.request("GET", "/healthz")
        assert payload["ok"] is True
        assert payload["client_retries"] == 2
        assert client.last_retries == 2
        assert client.retries_total == 2

    def test_clean_request_has_no_retry_key(self):
        client = self._flaky(0)
        payload = client.request("GET", "/healthz")
        assert "client_retries" not in payload
        assert client.last_retries == 0

    def test_exhausted_policy_reraises(self):
        client = self._flaky(10)  # the schedule allows 3 retries
        with pytest.raises(ConnectionResetError):
            client.request("GET", "/healthz")
        assert client.retries_total == 3

    def test_retry_counts_accumulate_across_requests(self):
        client = self._flaky(1)
        client.request("GET", "/healthz")
        assert client.retries_total == 1
        # Second request is clean; last_retries resets, total sticks.
        payload = client.request("GET", "/healthz")
        assert client.last_retries == 0
        assert client.retries_total == 1
        assert "client_retries" not in payload
