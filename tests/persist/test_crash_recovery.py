"""Kill-restart crash tests: a session SIGKILLed mid-fixpoint restarts
from its checkpoints to the verified answer, and damaged checkpoints
are quarantined — never silently used."""

import json
import os
import signal
import subprocess
import sys
import time

from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.persist import CheckpointStore, Session

PROGRAM_TEXT = """
path(X, Y) :- step(X, Y).
path(X, Y) :- path(X, Z), step(Z, Y).
q(Y) :- path(0, Y).
"""
CHAIN = 40  # long enough for many semi-naive rounds

# The victim: the command line itself, over a store that sleeps after
# each save so the kill lands mid-fixpoint.
PACED_CLI = """
import sys, time
from repro.cli import main
from repro.persist import CheckpointStore

save = CheckpointStore.save

def paced(self, checkpoint):
    path = save(self, checkpoint)
    time.sleep(0.05)
    return path

CheckpointStore.save = paced
sys.exit(main(sys.argv[1:]))
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


def _expected_rows():
    program = parse_program(PROGRAM_TEXT, query="q")
    result = Session(program, _database()).run().result
    return {pred: rel.rows() for pred, rel in result.idb.items()}


def _spawn_session(cmd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_repo_src(), env.get("PYTHONPATH", "")])
    )
    return subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _repo_src():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _wait_for_checkpoints(ckpt_dir, minimum, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(list(ckpt_dir.glob("ckpt-*.json"))) >= minimum:
            return True
        time.sleep(0.01)
    return False


def test_sigkill_mid_fixpoint_then_resume(tmp_path):
    program, data = _write_workload(tmp_path)
    ckpt_dir = tmp_path / "ckpts"
    cmd = [
        sys.executable,
        "-c",
        PACED_CLI,
        "session",
        "run",
        str(program),
        "--query",
        "q",
        "--data",
        str(data),
        "--checkpoint-dir",
        str(ckpt_dir),
        "--checkpoint-every",
        "1",
    ]
    proc = _spawn_session(cmd)
    try:
        assert _wait_for_checkpoints(ckpt_dir, minimum=2), "no checkpoints appeared"
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL

    # The killed run must not have reached the complete fixpoint.
    store = CheckpointStore(ckpt_dir)
    interrupted = store.latest()
    assert interrupted is not None and not interrupted.complete

    # Restart in-process and verify the answer row for row.
    parsed = parse_program(PROGRAM_TEXT, query="q")
    outcome = Session(parsed, _database(), store=CheckpointStore(ckpt_dir)).recover()
    assert outcome.mode == "resumed"
    rows = {pred: rel.rows() for pred, rel in outcome.result.idb.items()}
    assert rows == _expected_rows()
    assert CheckpointStore(ckpt_dir).latest().complete


def test_resume_cli_after_kill_round_trips(tmp_path):
    """The whole loop through the command line: run, kill, `session
    run` again, `session inspect` — the resumed store ends complete."""
    program, data = _write_workload(tmp_path)
    ckpt_dir = tmp_path / "ckpts"
    base = [sys.executable, "-m", "repro", "session"]
    common = [
        str(program),
        "--query",
        "q",
        "--data",
        str(data),
        "--checkpoint-dir",
        str(ckpt_dir),
        "--checkpoint-every",
        "1",
    ]
    proc = _spawn_session([sys.executable, "-c", PACED_CLI, "session", "run"] + common)
    try:
        assert _wait_for_checkpoints(ckpt_dir, minimum=2)
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=30)

    env = dict(os.environ, PYTHONPATH=str(_repo_src()))
    resumed = subprocess.run(
        base + ["run"] + common,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "resumed from checkpoint" in resumed.stdout

    inspected = subprocess.run(
        base + ["inspect"] + common,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert inspected.returncode == 0, inspected.stderr
    info = json.loads(inspected.stdout)
    assert info["latest"]["complete"] is True


def test_resume_with_corrupted_latest_checkpoint_quarantines(tmp_path):
    """Truncate the newest checkpoint (as a torn write would): recovery
    quarantines it and restarts from the older valid one."""
    parsed = parse_program(PROGRAM_TEXT, query="q")
    ckpt_dir = tmp_path / "ckpts"
    Session(
        parsed, _database(), store=CheckpointStore(ckpt_dir), checkpoint_every=1
    ).run()
    store = CheckpointStore(ckpt_dir)
    paths = store.paths()
    assert len(paths) >= 3
    # remove the complete checkpoint, then tear the newest remaining one
    paths[-1].unlink()
    torn = store.paths()[-1]
    torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])

    outcome = Session(
        parsed, _database(), store=CheckpointStore(ckpt_dir)
    ).recover()
    assert outcome.mode == "resumed"
    rows = {pred: rel.rows() for pred, rel in outcome.result.idb.items()}
    assert rows == _expected_rows()
    quarantined = list(ckpt_dir.glob("*.corrupt"))
    assert quarantined and torn.name + ".corrupt" in {p.name for p in quarantined}


def test_resume_with_all_checkpoints_destroyed_restarts_fresh(tmp_path):
    parsed = parse_program(PROGRAM_TEXT, query="q")
    ckpt_dir = tmp_path / "ckpts"
    Session(
        parsed, _database(), store=CheckpointStore(ckpt_dir), checkpoint_every=1
    ).run()
    for path in CheckpointStore(ckpt_dir).paths():
        path.write_text("garbage")
    outcome = Session(
        parsed, _database(), store=CheckpointStore(ckpt_dir)
    ).recover()
    assert outcome.mode == "fresh"
    rows = {pred: rel.rows() for pred, rel in outcome.result.idb.items()}
    assert rows == _expected_rows()
