#!/usr/bin/env python
"""Serving smoke test for CI (the ``smoke`` job).

Boots the real daemon (``repro serve``) on an ephemeral port with a
persist directory, then walks the full tenant life cycle over HTTP:

1. register a program (mode ``fresh``, full evaluation) and query it;
2. ingest two dozen facts one request at a time and query again
   (answers grow, and the default answer equals the magic-mode one);
   bases (durable copies of the EDB) follow journal lag, and a base of
   this EDB outweighs two dozen journal frames, so every one of the
   ingests is acknowledged but not yet base-covered;
3. send one raw request whose ``Content-Length`` is not a number: the
   daemon must answer 400 and close, then serve a fresh connection;
4. SIGKILL the daemon mid-flight;
5. restart it on the same persist directory, re-register the workload
   with its *original* facts and verify the tenant comes back
   ``recovered`` — a replay of exactly the uncovered records, then one
   evaluation — with materialized and magic answers byte-identical to
   the pre-kill daemon's;
6. SIGKILL and restart once more: the first recovery wrote a base
   covering the replayed records, so this one folds that base in,
   replays nothing and re-derives — and the answers are byte-identical
   again.

Exits non-zero on any deviation: a cold restart (mode ``fresh`` after
the kill), a replay count that is not the expected one, missing
answers, any byte difference in the served JSON, or a malformed
request not answered 400.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import ServeClient  # noqa: E402

PROGRAM = "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y)."
#: A chain from 0 plus edges disjoint from it: a base of this EDB
#: outweighs two dozen journal frames, so none of the ingests is covered.
FACTS = "\n".join(
    [f"e({i}, {i + 1})." for i in range(60)]
    + [f"e({i}, {i + 1})." for i in range(1000, 1680, 2)]
)
INGESTED = [f"e({i}, {i + 1})." for i in range(60, 84)]
TENANT = "smoke"


def _boot(persist_dir: Path) -> tuple[subprocess.Popen, ServeClient]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")])
    )
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--persist-dir",
            str(persist_dir),
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    assert daemon.stdout is not None
    line = daemon.stdout.readline().strip()  # "serving on http://host:port"
    if not line.startswith("serving on "):
        raise RuntimeError(f"daemon did not announce its URL: {line!r}")
    url = line.removeprefix("serving on ")
    client = ServeClient.from_url(url, timeout=60)
    deadline = time.monotonic() + 30
    while True:
        try:
            client.health()
            break
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)
    return daemon, client


def _fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def _malformed_length_status(client: ServeClient) -> bytes:
    """The status line the daemon answers a non-numeric ``Content-Length``
    with, on a connection of its own, read until the daemon closes it."""
    request = b"POST /programs/smoke/query HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
    with socket.create_connection((client.host, client.port), timeout=60) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply.split(b"\r\n", 1)[0]


def _kill(daemon: subprocess.Popen, client: ServeClient) -> None:
    client.close()
    os.kill(daemon.pid, signal.SIGKILL)
    daemon.wait(timeout=60)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        persist = Path(tmp) / "tenants"

        daemon, client = _boot(persist)
        try:
            registered = client.register(
                TENANT, PROGRAM, facts=FACTS, query="p"
            )
            print(f"registered: mode={registered['mode']}")
            if registered["mode"] != "fresh":
                return _fail(f"first registration was {registered['mode']!r}")

            first = client.query(TENANT, "p(0, Y)")
            if not first["answers"]:
                return _fail("fresh query returned no answers")

            for facts in INGESTED:
                client.ingest(TENANT, facts)
            second = client.query(TENANT, "p(0, Y)")
            if len(second["answers"]) != len(first["answers"]) + len(INGESTED):
                return _fail("ingests did not grow the answer set")
            print(
                f"queried: {len(first['answers'])} answers, "
                f"{len(second['answers'])} after {len(INGESTED)} ingests"
            )
            uncovered = client.stats()["tenants"][TENANT]["journal"]["lag"]
            if uncovered != len(INGESTED) or uncovered < 20:
                return _fail(
                    f"{uncovered} uncovered journal records after "
                    f"{len(INGESTED)} ingests; expected all of them (>= 20)"
                )
            before = client.query(TENANT, "p(0, Y)", mode="materialized")
            before_bytes = json.dumps(before["answers"], sort_keys=True)
            # A query naming no mode probes the fixpoint; magic recomputes
            # the answer the pipeline's way, and the two must agree.
            if second["mode"] != "materialized":
                return _fail(f"a default query answered in mode {second['mode']!r}")
            magic = client.query(TENANT, "p(0, Y)", mode="magic")
            if json.dumps(magic["answers"], sort_keys=True) != before_bytes:
                return _fail("default and magic-mode answers differ before the kill")

            status = _malformed_length_status(client)
            if status != b"HTTP/1.1 400 Bad Request":
                return _fail(f"a malformed Content-Length was answered {status!r}")
            client.close()  # the next request opens a fresh connection
            after_bad = client.query(TENANT, "p(0, Y)", mode="materialized")
            if json.dumps(after_bad["answers"], sort_keys=True) != before_bytes:
                return _fail("a fresh connection after the malformed request was not served")
            print("malformed Content-Length: 400, then a fresh connection served")
        finally:
            _kill(daemon, client)
        print(f"killed daemon pid {daemon.pid} with {uncovered} uncovered records")

        # The restarted daemon re-registers the workload with its
        # original facts: recovery itself carries the ingests.  The
        # first restart replays them and writes a base covering them;
        # the second folds that base in and replays nothing.
        for restart, (want_mode, want_replayed) in enumerate(
            [("recovered", uncovered), ("recovered", 0)], start=1
        ):
            daemon, client = _boot(persist)
            try:
                reregistered = client.register(
                    TENANT, PROGRAM, facts=FACTS, query="p"
                )
                replayed = client.stats()["tenants"][TENANT]["journal"]["replayed"]
                print(
                    f"restart {restart}: mode={reregistered['mode']}, "
                    f"replayed={replayed}"
                )
                if (reregistered["mode"], replayed) != (want_mode, want_replayed):
                    return _fail(
                        f"restart {restart} came back {reregistered['mode']!r} "
                        f"replaying {replayed}; expected {want_mode!r} "
                        f"replaying {want_replayed}"
                    )
                after = client.query(TENANT, "p(0, Y)", mode="materialized")
                if after["materialized_mode"] != want_mode:
                    return _fail(
                        f"materialized mode is {after['materialized_mode']!r}, "
                        f"not {want_mode}"
                    )
                after_bytes = json.dumps(after["answers"], sort_keys=True)
                if after_bytes != before_bytes:
                    return _fail(
                        f"restart {restart} answers differ from the pre-kill daemon\n"
                        f"  before: {before_bytes}\n  after:  {after_bytes}"
                    )
                magic = client.query(TENANT, "p(0, Y)", mode="magic")
                if json.dumps(magic["answers"], sort_keys=True) != before_bytes:
                    return _fail(
                        f"magic-mode answers differ after restart {restart}"
                    )
            finally:
                _kill(daemon, client)
        print(f"restart answers byte-identical ({len(after['answers'])} rows)")
        return 0


if __name__ == "__main__":
    sys.exit(main())
