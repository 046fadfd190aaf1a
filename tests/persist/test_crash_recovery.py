"""Kill-restart crash tests: a session SIGKILLed mid-evaluation leaves
nothing behind and restarts fresh to the verified answer, and a damaged
base frame is truncated away — never silently used."""

import json
import os
import signal
import subprocess
import sys
import time

from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.persist import IngestJournal, JournalRecord, Session, workload_digest

PROGRAM_TEXT = """
path(X, Y) :- step(X, Y).
path(X, Y) :- path(X, Z), step(Z, Y).
q(Y) :- path(0, Y).
"""
CHAIN = 40  # long enough for many semi-naive rounds

# The victim: the command line itself, whose session evaluation marks a
# file and then stalls, so the kill lands while the evaluation is in
# flight.  argv[1] is the marker; the rest is the command line.
PACED_CLI = """
import pathlib, sys, time
import repro.persist.session as session
from repro.cli import main

marker = pathlib.Path(sys.argv[1])
evaluate = session.evaluate

def paced(*args, **kwargs):
    marker.write_text("evaluating")
    time.sleep(60)
    return evaluate(*args, **kwargs)

session.evaluate = paced
sys.exit(main(sys.argv[2:]))
"""


def _write_workload(tmp_path):
    program = tmp_path / "prog.dl"
    program.write_text(PROGRAM_TEXT)
    data = tmp_path / "facts.dl"
    data.write_text(
        "".join(f"step({i}, {i + 1}).\n" for i in range(CHAIN))
    )
    return program, data


def _database():
    return Database.from_rows({"step": [(i, i + 1) for i in range(CHAIN)]})


def _save_base(journal, seq):
    """A base frame of the initial EDB, in a fresh segment of its own."""
    database = _database()
    program = parse_program(PROGRAM_TEXT, query="q")
    journal.write_base(
        JournalRecord(
            seq=seq,
            workload=workload_digest(program, database),
            rows=tuple(("step", row) for row in sorted(database.relation("step").rows())),
            written=1.0,
        )
    )


def _journal(ckpt_dir):
    return IngestJournal(ckpt_dir / "journal")


def _expected_rows():
    program = parse_program(PROGRAM_TEXT, query="q")
    result = Session(program, _database()).run().result
    return {pred: rel.rows() for pred, rel in result.idb.items()}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_repo_src(), env.get("PYTHONPATH", "")])
    )
    return env


def _repo_src():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _kill_mid_evaluation(tmp_path, argv):
    """Run ``repro <argv>`` as the paced victim and SIGKILL it once its
    session evaluation is in flight."""
    marker = tmp_path / "evaluating"
    proc = subprocess.Popen(
        [sys.executable, "-c", PACED_CLI, str(marker), *argv],
        env=_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert marker.exists(), "the evaluation never started"
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL


def _session_args(tmp_path):
    program, data = _write_workload(tmp_path)
    return [
        str(program),
        "--query",
        "q",
        "--data",
        str(data),
        "--checkpoint-dir",
        str(tmp_path / "ckpts"),
    ]


def test_sigkill_mid_fixpoint_then_resume(tmp_path):
    _kill_mid_evaluation(tmp_path, ["session", "run", *_session_args(tmp_path)])

    # Nothing was acknowledged and nothing was written: the journal holds
    # no frame at all, so no incomplete one.
    ckpt_dir = tmp_path / "ckpts"
    assert _journal(ckpt_dir).frames() == []

    # Restart in-process and verify the answer row for row.
    parsed = parse_program(PROGRAM_TEXT, query="q")
    outcome = Session(parsed, _database(), journal=_journal(ckpt_dir)).recover()
    assert outcome.mode == "fresh"
    rows = {pred: rel.rows() for pred, rel in outcome.result.idb.items()}
    assert rows == _expected_rows()
    assert _journal(ckpt_dir).frames() == []  # a run writes nothing


def test_resume_cli_after_kill_round_trips(tmp_path):
    """The whole loop through the command line: run, kill, `session
    run` again, `session ingest`, `session inspect` — the store ends
    holding the base the ingest left."""
    common = _session_args(tmp_path)
    _kill_mid_evaluation(tmp_path, ["session", "run", *common])
    assert not list((tmp_path / "ckpts").glob("ckpt-*"))

    base = [sys.executable, "-m", "repro", "session"]
    rerun = subprocess.run(
        base + ["run"] + common,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert rerun.returncode == 0, rerun.stderr
    lines = rerun.stdout.splitlines()
    assert "mode: fresh" in lines
    answers = sorted(line.strip() for line in lines if line.startswith("  q("))
    assert answers == sorted(f"q{row!r}" for row in _expected_rows()["q"])

    (tmp_path / "more.dl").write_text(f"step({CHAIN}, {CHAIN + 1}).\n")
    ingested = subprocess.run(
        base + ["ingest"] + common + ["--facts", str(tmp_path / "more.dl")],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert ingested.returncode == 0, ingested.stderr
    assert "mode: incremental" in ingested.stdout.splitlines()

    inspected = subprocess.run(
        base + ["inspect"] + common,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert inspected.returncode == 0, inspected.stderr
    info = json.loads(inspected.stdout)
    assert info["latest"]["seq"] == 2  # the base frame after the ingest's record
    assert info["latest"]["edb_facts"] == CHAIN + 1
    assert info["journal"]["lag"] == 0


def test_resume_with_a_torn_latest_base_folds_in_the_older_one(tmp_path):
    """Truncate the newest base (as a crash mid-write would, before
    compaction): recovery truncates it away and folds in the older one."""
    parsed = parse_program(PROGRAM_TEXT, query="q")
    ckpt_dir = tmp_path / "ckpts"
    journal = _journal(ckpt_dir)
    for seq in (1, 2):
        _save_base(journal, seq)
    journal.close()
    older, torn = sorted((ckpt_dir / "journal").glob("journal-*.log"))
    torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])

    session = Session(parsed, _database(), journal=_journal(ckpt_dir))
    outcome = session.recover()
    assert outcome.mode == "recovered"
    assert session.base_summary()["seq"] == 1
    rows = {pred: rel.rows() for pred, rel in outcome.result.idb.items()}
    assert rows == _expected_rows()
    assert older.exists() and torn.stat().st_size == 0


def test_resume_with_all_checkpoints_destroyed_restarts_fresh(tmp_path):
    parsed = parse_program(PROGRAM_TEXT, query="q")
    ckpt_dir = tmp_path / "ckpts"
    _save_base(_journal(ckpt_dir), 1)
    for path in (ckpt_dir / "journal").glob("journal-*.log"):
        path.write_text("garbage")
    outcome = Session(parsed, _database(), journal=_journal(ckpt_dir)).recover()
    assert outcome.mode == "fresh"
    rows = {pred: rel.rows() for pred, rel in outcome.result.idb.items()}
    assert rows == _expected_rows()
