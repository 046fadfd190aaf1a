"""One workload, one fresh process: the part of the harness that is timed.

``run.py`` starts this file once per measurement with
``PYTHONHASHSEED=0`` and reads one JSON object from the last line of
its output.  Modes: ``cold`` (set up, answer one job, exit - a first
CLI invocation), ``timed`` (set up, warm up, measure for ``--seconds``)
and ``trace`` (a fixed amount of work under harness spans).  Answers
leave as digests; checking them against the oracle is the parent's job,
so the oracle's memory and time never touch a measured process.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from the first statement

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"

#: Batch jobs (serve: ops per connection) per second of ``--seconds`` in
#: a traced run: fixed work, so counts repeat exactly.
TRACED_JOBS_PER_SECOND = {
    "closure_full": 0.27, "point_load": 0.27, "rewrite_compile": 0.8, "serve_mixed": 10.0,
}


def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("cold", "timed", "trace"), required=True)
    parser.add_argument("--profile", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    sys.path.insert(0, str(REPO_ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = str(OUT_DIR / f"trace-{args.workload}.jsonl")
    header = {"workload": args.workload, "seed": args.seed, "profile": args.profile,
              "host": fingerprint()}
    traced_units = max(2, round(args.seconds * TRACED_JOBS_PER_SECOND[args.workload]))

    if args.workload == "serve_mixed":
        import serve

        tmp_root = OUT_DIR / f"tmp-{os.getpid()}"
        tmp_root.mkdir()
        try:
            if args.mode == "trace":
                out = serve.run_traced(REPO_ROOT, tmp_root, args.seed, args.profile,
                                       traced_units, trace_path, header)
            else:
                out = serve.run_timed(REPO_ROOT, tmp_root, args.seed, args.profile,
                                      args.seconds)
        finally:
            shutil.rmtree(tmp_root, ignore_errors=True)
    else:
        import batch

        job = batch.Batch(args.workload, args.seed, args.profile)
        setup_s = time.perf_counter() - _STARTED
        if args.mode == "cold":
            out = batch.run_cold(job)
        elif args.mode == "timed":
            out = batch.run_timed(job, args.seconds)
        else:
            out = batch.run_traced(job, traced_units, trace_path, header)
        out["setup_s"] = setup_s
    out["host"] = header["host"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
