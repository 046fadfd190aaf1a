"""Which ``repro`` modules each front door loads.

Every process start compiles or reads what it imports, so a module no
default path runs stays out of ``import repro``, ``repro run`` and
``repro serve`` (see ``docs/performance.md``, "Start-up").  Each check
runs a fresh interpreter and reads its ``sys.modules`` at exit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Loaded only when one of their names is read (the lazy-export tables).
DEFERRED = (
    "repro.core.containment",
    "repro.core.emptiness",
    "repro.core.reachability",
    "repro.core.visualize",
    "repro.cq.configurations",
    "repro.cq.conjunctive",
    "repro.cq.containment",
    "repro.cq.minimize",
    "repro.datalog.bag",
    "repro.datalog.pretty",
    "repro.constraints.dependencies",
    "repro.observability.profile",
    "repro.observability.report",
)
#: Durable sessions: the daemon runs them, a batch job does not.
PERSIST = (
    "repro.persist",
    "repro.persist.journal",
    "repro.persist.session",
)
#: No front door reaches these packages at all.
NEVER = ("repro.parallel", "repro.machines")

#: ``import repro`` budget: the modules a batch job runs, and no more.
IMPORT_REPRO_BUDGET = 35

_DUMP = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted("
    "m for m in sys.modules if m.startswith('repro'))), file=sys.stderr))\n"
)

GOOD_PATH = [
    "run", "examples/good_path.dl", "--query", "goodPath",
    "--constraints", "examples/good_path_ics.dl",
]


def _loaded(code: str, *argv: str):
    """Run ``code`` in a fresh interpreter; ``(process, repro modules at exit)``."""
    done = subprocess.run(
        [sys.executable, "-c", _DUMP + code, *argv],
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done, set(json.loads(done.stderr.splitlines()[-1]))


def _cli(*argv: str):
    """``python -m repro <argv>``, as run from the shell."""
    return _loaded(
        "import runpy\n"
        "sys.argv = ['repro', *sys.argv[1:]]\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n",
        *argv,
    )


def _reached(loaded: set, packages) -> set:
    return {m for m in loaded for p in packages if m == p or m.startswith(p + ".")}


def test_import_repro_loads_only_what_a_batch_job_runs():
    done, loaded = _loaded("import repro\n")
    assert done.returncode == 0, done.stderr
    assert not loaded & {*DEFERRED, *PERSIST, "repro.robustness.faults"}
    assert not _reached(loaded, ("repro.serve", "repro.cli", *NEVER))
    assert len(loaded) <= IMPORT_REPRO_BUDGET, sorted(loaded)


def test_run_loads_parse_rewrite_magic_and_evaluate_only():
    done, loaded = _cli(*GOOD_PATH, "--compare")
    assert done.returncode == 0, done.stderr
    assert "answers match" in done.stdout
    assert {"repro.core.rewrite", "repro.datalog.evaluation"} <= loaded
    assert not loaded & {*DEFERRED, *PERSIST, "repro.robustness.faults"}
    assert not _reached(loaded, ("repro.serve", *NEVER))


def test_a_budget_tripped_run_loads_the_wire_format_alone():
    done, loaded = _cli(*GOOD_PATH, "--max-facts", "1")
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("aborted: ")
    assert _reached(loaded, ("repro.serve",)) == {"repro.serve", "repro.serve.wire"}
    assert not loaded & {*DEFERRED, *PERSIST}
    assert not _reached(loaded, NEVER)


def test_serve_loads_the_daemon_and_persist_only():
    # _cmd_serve's own imports and the app it builds; the stubbed
    # run_server returns instead of binding a socket.
    done, loaded = _loaded(
        "import repro.cli, repro.serve.http\n"
        "repro.serve.http.run_server = lambda app, **options: 0\n"
        "assert repro.cli.main(['serve', '--port', '0']) == 0\n"
    )
    assert done.returncode == 0, done.stderr
    assert {"repro.serve.app", "repro.persist.session"} <= loaded
    assert not loaded & {*DEFERRED, "repro.serve.client"}
    assert not _reached(loaded, NEVER)
