#!/usr/bin/env python
"""Journal-kill smoke test for CI (the ``smoke`` job).

Two kill scenarios against the write-ahead ingest journal, both judged
by one rule: after a restart, the served fixpoint must equal a clean
from-scratch recompute over the initial EDB plus every *acknowledged*
ingest.

1. **Daemon kill.** Boot the real daemon (``repro serve``) with a
   persist directory, register a tenant, acknowledge two dozen ingests
   over HTTP — bases (durable copies of the EDB) follow journal lag, so
   every one of them is still uncovered — SIGKILL the daemon, restart
   it and re-register with the *original* facts only.  Recovery must
   surface every acked ingest by itself — from the journal, ``replayed``
   equal to the uncovered count, then one evaluation — and the answers
   must be byte-identical to an in-process recompute over initial +
   ingested facts.  A second kill and restart must replay nothing: it
   folds in the base the first recovery wrote and re-derives.

2. **Fsync-window kill.** A child process acknowledges one ingest with
   base writes forced to fail at ``checkpoint.save`` (acked by its
   journal record only),
   then dies by SIGKILL while a second ingest faults at
   ``journal.fsync``.  The un-acked record's bytes may or may not be
   durable, so recovery is allowed to land on either admissible state —
   acked-only or acked-plus-inflight — but never anything else, and the
   acked ingest must be replayed from the journal (``replayed >= 1``).

Exits non-zero on any deviation.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/journal_kill_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datalog.database import Database  # noqa: E402
from repro.datalog.evaluation import evaluate  # noqa: E402
from repro.datalog.parser import parse_facts, parse_program  # noqa: E402
from repro.persist import (  # noqa: E402
    FlakyJournal,
    IngestJournal,
    JournalUnavailable,
    RetryPolicy,
    Session,
    fixpoint_digest,
)
from repro.robustness import FaultInjector  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402

PROGRAM = "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y)."
FACTS = "\n".join(f"e({i}, {i + 1})." for i in range(12))
INGESTS = ["e(12, 13).", "e(13, 14)."]
TENANT = "journal-smoke"
#: The daemon-kill phase: a chain from 0 plus edges disjoint from it, an
#: EDB whose base dwarfs two dozen journal frames, so none of the
#: ingests is base-covered.
DAEMON_FACTS = "\n".join(
    [f"e({i}, {i + 1})." for i in range(60)]
    + [f"e({i}, {i + 1})." for i in range(1000, 1680, 2)]
)
DAEMON_INGESTS = [f"e({i}, {i + 1})." for i in range(60, 84)]

FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0)


def _fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


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
    line = daemon.stdout.readline().strip()
    if not line.startswith("serving on "):
        raise RuntimeError(f"daemon did not announce its URL: {line!r}")
    client = ServeClient.from_url(line.removeprefix("serving on "), timeout=60)
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


def _expected_answers(*fact_blocks: str) -> str:
    """Canonical JSON of p(0, Y) under a clean in-process recompute."""
    program = parse_program(PROGRAM, query="p")
    database = Database(parse_facts("\n".join(fact_blocks)))
    rows = sorted(r for r in evaluate(program, database).query_rows() if r[0] == 0)
    return json.dumps([list(row) for row in rows], sort_keys=True)


def _served_answers(payload: dict) -> str:
    return json.dumps(sorted(payload["answers"]), sort_keys=True)


def _kill(daemon: subprocess.Popen, client: ServeClient) -> None:
    client.close()
    os.kill(daemon.pid, signal.SIGKILL)
    daemon.wait(timeout=60)


def daemon_kill_phase() -> int:
    """Register, ack many ingests, SIGKILL, restart with original facts."""
    expect = _expected_answers(DAEMON_FACTS, *DAEMON_INGESTS)
    with tempfile.TemporaryDirectory() as tmp:
        persist = Path(tmp) / "tenants"
        daemon, client = _boot(persist)
        try:
            registered = client.register(TENANT, PROGRAM, facts=DAEMON_FACTS, query="p")
            if registered["mode"] != "fresh":
                return _fail(f"first registration was {registered['mode']!r}")
            for facts in DAEMON_INGESTS:
                client.ingest(TENANT, facts)  # each return is the ack
            uncovered = client.stats()["tenants"][TENANT]["journal"]["lag"]
            if uncovered != len(DAEMON_INGESTS) or uncovered < 20:
                return _fail(
                    f"{uncovered} uncovered records after {len(DAEMON_INGESTS)} "
                    "acked ingests; expected all of them (and at least 20)"
                )
            print(f"daemon-kill: acked {uncovered} ingests, none base-covered")
        finally:
            _kill(daemon, client)
        print(f"daemon-kill: killed pid {daemon.pid}")

        # Restart twice on the original facts only: the first recovery
        # must replay every acknowledged ingest, the second nothing.
        for restart, (want_mode, want_replayed) in enumerate(
            [("recovered", uncovered), ("recovered", 0)], start=1
        ):
            daemon, client = _boot(persist)
            try:
                mode = client.register(
                    TENANT, PROGRAM, facts=DAEMON_FACTS, query="p"
                )["mode"]
                journal = client.stats()["tenants"][TENANT]["journal"]
                if (mode, journal["replayed"]) != (want_mode, want_replayed):
                    return _fail(
                        f"restart {restart}: mode {mode!r}, replayed "
                        f"{journal['replayed']}; expected {want_mode!r}, {want_replayed}"
                    )
                answer = client.query(TENANT, "p(0, Y)", mode="materialized")
                got = _served_answers(answer)
                if got != expect:
                    return _fail(
                        f"restart {restart}: answers differ from the clean recompute\n"
                        f"  expect: {expect}\n  got:    {got}"
                    )
                print(
                    f"daemon-kill: restart {restart} mode={mode}, "
                    f"replayed={journal['replayed']}, answers byte-identical "
                    f"({len(answer['answers'])} rows), journal lag={journal['lag']}"
                )
            finally:
                _kill(daemon, client)
    return 0


def child(root: Path) -> None:
    """The crashing process of the fsync-window phase."""
    program = parse_program(PROGRAM, query="p")
    database = Database(parse_facts(FACTS))
    session = Session(
        program,
        database,
        journal=FlakyJournal(
            IngestJournal(root / "journal"),
            FaultInjector().arm_random("checkpoint.save", rate=1.0),
        ),
        retry=FAST_RETRY,
    )
    session.run()
    # Base writes fail, lag-triggered or not: the next ingest is acked
    # by its journal fsync alone, so only a replay can carry it across
    # the kill.
    session.ingest([("e", (12, 13))])
    print("acked", flush=True)
    # The second ingest faults at the fsync itself: never acknowledged,
    # bytes possibly durable — the indeterminate crash window.
    session.journal = FlakyJournal(
        session.journal, FaultInjector().arm_random("journal.fsync", rate=1.0)
    )
    try:
        session.ingest([("e", (13, 14))])
    except JournalUnavailable:
        pass
    os.kill(os.getpid(), signal.SIGKILL)


def fsync_window_phase() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "session"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")])
        )
        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(root)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        if proc.returncode != -signal.SIGKILL:
            return _fail(f"child exited {proc.returncode}, expected SIGKILL")
        if "acked" not in proc.stdout:
            return _fail("child never acknowledged its first ingest")
        print("fsync-window: child acked one ingest and died by SIGKILL")

        program = parse_program(PROGRAM, query="p")
        database = Database(parse_facts(FACTS))
        recovered = Session(
            program, database, journal=IngestJournal(root / "journal")
        ).recover()
        digest = fixpoint_digest([("smoke", recovered.result.idb)])
        acked_only = _digest_of(FACTS, INGESTS[0])
        with_inflight = _digest_of(FACTS, *INGESTS)
        if digest not in {acked_only, with_inflight}:
            return _fail(
                "recovered fixpoint matches neither admissible state\n"
                f"  acked-only:    {acked_only}\n"
                f"  with-inflight: {with_inflight}\n"
                f"  recovered:     {digest}"
            )
        if recovered.replayed < 1:
            return _fail(
                f"acked ingest was not replayed (replayed={recovered.replayed})"
            )
        state = "acked-only" if digest == acked_only else "acked+inflight"
        print(
            f"fsync-window: recovered to {state}, "
            f"replayed={recovered.replayed}, digest matches clean recompute"
        )
    return 0


def _digest_of(*fact_blocks: str) -> str:
    program = parse_program(PROGRAM, query="p")
    database = Database(parse_facts("\n".join(fact_blocks)))
    return fixpoint_digest([("smoke", evaluate(program, database).idb)])


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        child(Path(sys.argv[2]))
        return 0  # unreachable: child dies by SIGKILL
    code = daemon_kill_phase()
    if code:
        return code
    return fsync_window_phase()


if __name__ == "__main__":
    sys.exit(main())
