#!/usr/bin/env python
"""Crash-recovery smoke test for CI.

Runs a dense 3-color transitive closure as a durable session
(``checkpoint_every=1``), SIGKILLs the process mid-fixpoint, restarts
with ``Session.recover()`` on the surviving checkpoints, and verifies
the resumed fixpoint digest against a cold in-process recompute.  Exits
non-zero on any deviation: no checkpoints written, the kill landing
after completion, a restart that recomputes from scratch, or a digest
mismatch.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/crash_recovery_smoke.py

The script spawns *itself* with ``--child`` for the victim process so
the workload needs no on-disk serialization.
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from common import colored_closure  # noqa: E402

from repro.datalog.database import Database  # noqa: E402
from repro.datalog.evaluation import evaluate  # noqa: E402
from repro.persist import CheckpointStore, Session, fixpoint_digest  # noqa: E402

# Dense and deep (degree ~17 over 350 nodes): dozens of semi-naive
# rounds, so there is a long mid-fixpoint window to land the kill in.
COLORS, NODES, EDGES = 3, 350, 6000


class PacedStore(CheckpointStore):
    """The child's store: sleeps after each save, so its rounds are slow
    enough for the kill to land mid-fixpoint reliably."""

    def save(self, checkpoint):
        path = super().save(checkpoint)
        time.sleep(0.2)
        return path


def _workload():
    """The program and a seeded database of forward (acyclic) edges."""
    program, _ = colored_closure(COLORS)
    rng = random.Random(0)
    database = Database()
    for color in range(COLORS):
        added = 0
        while added < EDGES:
            left = rng.randrange(NODES - 1)
            if database.add_row(f"e{color}", (left, rng.randrange(left + 1, NODES))):
                added += 1
    return program, database


def _run_child(checkpoint_dir: str) -> int:
    program, database = _workload()
    Session(
        program,
        database,
        store=PacedStore(checkpoint_dir),
        checkpoint_every=1,
    ).run()
    return 0


def _wait_for_checkpoints(directory: Path, minimum: int, timeout: float) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        count = len(list(directory.glob("ckpt-*.json")))
        if count >= minimum:
            return count
        time.sleep(0.02)
    return len(list(directory.glob("ckpt-*.json")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint directory (default: a fresh temporary directory)",
    )
    args = parser.parse_args()
    if args.child:
        return _run_child(args.child)

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        ckpt_dir = Path(args.checkpoint_dir or tmp)
        ckpt_dir.mkdir(parents=True, exist_ok=True)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")])
        )
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child", str(ckpt_dir)],
            env=env,
        )
        try:
            count = _wait_for_checkpoints(ckpt_dir, minimum=2, timeout=60.0)
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=60)
        print(f"killed session pid {child.pid} after {count} checkpoint(s)")
        if count < 2:
            print("FAIL: no mid-fixpoint checkpoints were written", file=sys.stderr)
            return 1
        if child.returncode != -signal.SIGKILL:
            print(
                f"FAIL: child exited with {child.returncode} before the kill",
                file=sys.stderr,
            )
            return 1

        interrupted = CheckpointStore(ckpt_dir).latest()
        if interrupted is None or interrupted.complete:
            print("FAIL: kill landed after the fixpoint completed", file=sys.stderr)
            return 1
        print(
            f"latest surviving checkpoint: seq {interrupted.seq}, "
            f"iteration {interrupted.snapshot.iteration} (incomplete)"
        )

        program, database = _workload()
        outcome = Session(
            program,
            database,
            store=CheckpointStore(ckpt_dir),
            checkpoint_every=1,
        ).recover()
        if outcome.mode != "resumed":
            print(f"FAIL: expected a resume, got mode {outcome.mode!r}", file=sys.stderr)
            return 1
        print(f"resumed from checkpoint seq {outcome.resumed_seq}")

        digest = fixpoint_digest([("colored-closure", outcome.result.idb)])
        cold = fixpoint_digest([("colored-closure", evaluate(*_workload()).idb)])
        if digest != cold:
            print(
                "FAIL: resumed fixpoint digest diverged from a cold recompute"
                f"\n  resumed: {digest}\n  cold:    {cold}",
                file=sys.stderr,
            )
            return 1
        print(f"resumed fixpoint digest matches a cold recompute: {digest}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
