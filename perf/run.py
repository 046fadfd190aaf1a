#!/usr/bin/env python3
"""The repo benchmark: ``python3 perf/run.py``.

Runs each selected workload in its own fresh worker process
(``PYTHONHASHSEED=0``), checks every answer against the independent
oracle in ``reference.py`` and prints every metric by name with its
unit.  The last line of output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of the last run (``--trace 0``) or its
per-layer metrics (``--trace 1``).  With neither ``--workload`` nor
``--trace`` every workload runs both ways.

    python3 perf/run.py --workload closure_full --seed 3 --seconds 12 --trace 0
    python3 perf/run.py --smoke            # tiny sizes, a few seconds per workload
    python3 perf/run.py --check-repeat     # the suite twice; metrics must agree

See ``perf/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
sys.path.insert(0, str(PERF_DIR))

import inputs  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402

OUT_DIR = PERF_DIR / "out"
EXPECTED = PERF_DIR / "expected" / "seed0.json"
WORKLOADS = ("closure_full", "point_load", "rewrite_compile", "serve_mixed")
#: Fresh-process answers per batch run; their median is ``cold_answer_s``.
COLD_REPEATS = 5
#: A worker that takes longer than this is killed and the run fails.
WORKER_TIMEOUT = 170.0
#: Expected serve outcomes committed per connection for seed 0.
COMMITTED_SERVE_OPS = 200


class HarnessError(Exception):
    """The benchmark itself could not run (not a counted op failure)."""


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------
# Workers
# --------------------------------------------------------------------------


def run_worker(workload, seed, seconds, mode, profile) -> "tuple[dict, float]":
    """Run one worker to completion, always reaping it.

    Returns its JSON result (the last line it prints) and the seconds
    from spawning it to the first line it printed - a cold worker
    prints ``ANSWERED`` the moment its first job is done.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(PERF_DIR / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
         "--profile", profile],
        env=env, stdout=subprocess.PIPE, text=True, cwd=str(REPO_ROOT),
    )
    watchdog = threading.Timer(WORKER_TIMEOUT, process.kill)
    watchdog.start()
    try:
        first = process.stdout.readline()
        to_first_line = time.perf_counter() - start
        lines = [first] + process.stdout.read().splitlines()
        code = process.wait()
    finally:
        watchdog.cancel()
        process.kill()
        process.wait()
        process.stdout.close()
    if code != 0:
        raise HarnessError(f"{workload} worker ({mode}) exited with code {code}")
    return json.loads(lines[-1]), to_first_line


# --------------------------------------------------------------------------
# The oracle's side: expected answers
# --------------------------------------------------------------------------


def committed_expectations() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def oracle_answers(workload: str, seed: int, profile: str) -> dict:
    """``unit -> {"rows", "digest"}`` of a batch workload, by the oracle."""
    out = {}
    for case in inputs.BATCH[workload](seed, profile):
        rows = reference.answers(case.program, case.facts, case.goal)
        out[case.name] = {"rows": len(rows), "digest": reference.digest(rows)}
    return out


def batch_expected(workload: str, seed: int, profile: str) -> dict:
    """The oracle's answers: committed for seed 0, else computed now."""
    if seed == 0 and profile == "full":
        committed = committed_expectations().get(workload)
        if committed is not None:
            return committed
    return oracle_answers(workload, seed, profile)


def write_expected() -> None:
    """Recompute the committed seed-0 answers (after changing ``inputs.py``)."""
    out = {workload: oracle_answers(workload, 0, "full") for workload in inputs.BATCH}
    script = inputs.ServeScript(0, "full")
    expected, _ = serve_expected(script, [COMMITTED_SERVE_OPS] * inputs.CONNECTIONS)
    out["serve_mixed"] = [[str(o)[:8] for o in outcomes] for outcomes in expected]
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(out, indent=1) + "\n")


def serve_expected(script: inputs.ServeScript, counts: "list[int]"):
    """Expected outcome of the first ``counts[c]`` ops of each connection,
    and of the probe ops asked after them."""
    shared = script.tenants[-1]
    shared_fixpoint = reference.Fixpoint(shared.program)
    shared_fixpoint.add(reference.parse_facts(shared.facts))
    fixpoints, expected = {inputs.SHARED_TENANT: shared_fixpoint}, []
    for conn, count in enumerate(counts):
        tenant = script.tenants[conn]
        fixpoint = reference.Fixpoint(tenant.program)
        fixpoint.add(reference.parse_facts(tenant.facts))
        fixpoints[tenant.name] = fixpoint
        outcomes = []
        stream = script.ops(conn)
        for _ in range(count):
            op = next(stream)
            if op.kind == "ingest":
                fixpoint.add(reference.parse_facts(op.text))
                outcomes.append(1)
            else:
                rows = fixpoints[op.tenant].answers(reference.parse_goal(op.text))
                outcomes.append(reference.digest(rows))
        expected.append(outcomes)
    probes = [
        reference.digest(fixpoints[op.tenant].answers(reference.parse_goal(op.text)))
        for op in script.probe_ops()
    ]
    return expected, probes


def check_serve(seed: int, profile: str, logs, probe_rounds) -> "tuple[int, int]":
    """``(attempted, failed)`` over every logged op and probe."""
    script = inputs.ServeScript(seed, profile)
    expected, expected_probes = serve_expected(script, [len(log) for log in logs])
    if seed == 0 and profile == "full":
        committed = committed_expectations().get("serve_mixed")
        for conn, outcomes in enumerate(expected):
            mine = [str(o)[:8] for o in outcomes[:COMMITTED_SERVE_OPS]]
            if committed is not None and mine != committed[conn][:len(mine)]:
                raise HarnessError("the oracle disagrees with its committed seed-0 answers")
    attempted = failed = 0
    for log, outcomes in zip(logs, expected):
        for entry, outcome in zip(log, outcomes):
            attempted += 1
            if entry["status"] != 200 or entry["outcome"] != outcome:
                failed += 1
                entry["ms"] = math.inf
    for round_probes in probe_rounds:
        for entry, outcome in zip(round_probes, expected_probes):
            attempted += 1
            failed += entry["status"] != 200 or entry["outcome"] != outcome
    return attempted, failed


# --------------------------------------------------------------------------
# One run of one workload
# --------------------------------------------------------------------------


def run_batch_untraced(workload, seed, seconds, profile):
    colds, setups, answer_sets = [], [], []
    for _ in range(COLD_REPEATS):
        result, elapsed = run_worker(workload, seed, 0, "cold", profile)
        colds.append(elapsed * result["factor"])
        setups.append(result["setup_s"] * result["factor"])
        answer_sets.append(result["answers"])
    timed, _ = run_worker(workload, seed, seconds, "timed", profile)
    setups.append(timed["setup_s"] * timed["factor"])

    expected = batch_expected(workload, seed, profile)
    if any(not unit["rows"] for unit in expected.values()):
        raise HarnessError(f"{workload}: a unit has no answers; fix the generator")
    # Jobs are compared with the timed worker's first answers; if those
    # are wrong, every job of that worker is.
    jobs = timed["jobs"] if timed["answers"] == expected else [math.inf] * len(timed["jobs"])
    good = [j for j in jobs if math.isfinite(j)]
    failed = len(jobs) - len(good) + sum(1 for a in answer_sets if a != expected)
    heavy = timed["units"][inputs.HEAVY_UNIT[workload]]
    metrics = {
        "setup_s": statistics.median(setups),
        "answer_p50_ms": stats.finite(1000.0 * statistics.median(jobs), 1000.0 * WORKER_TIMEOUT),
        "heavy_p50_ms": 1000.0 * statistics.median(heavy),
        "throughput_ops_s": len(expected) * len(good) / sum(good) if good else 0.0,
        "cold_answer_s": statistics.median(colds),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    detail = {
        "answer_p50_ms": stats.summarize([1000.0 * j for j in jobs]),
        "heavy_p50_ms": stats.summarize([1000.0 * u for u in heavy]),
        "setup_s": {"n": len(setups)},
        "cold_answer_s": {"n": len(colds)},
        "unscaled_answer_p50_ms": 1000.0 * statistics.median(timed["raw_jobs"]),
    }
    return metrics, len(jobs) + COLD_REPEATS, failed, detail, timed["host"]


def run_serve_untraced(seed, seconds, profile):
    result, _ = run_worker("serve_mixed", seed, seconds, "timed", profile)
    attempted, failed = check_serve(seed, profile, result["logs"], result["probes"])
    measured = [e for log in result["logs"] for e in log if e["segment"] is not None]
    queries = [e["ms"] for e in measured if e["kind"] == "query"]
    ingests = [e["ms"] for e in measured if e["kind"] == "ingest"]
    if len(ingests) < 3:
        raise HarnessError("too few ingests measured; raise --seconds")
    ceiling = 1000.0 * 30.0
    metrics = {
        "setup_s": statistics.median(result["setups"]),
        "answer_p50_ms": stats.finite(statistics.median(queries), ceiling),
        "heavy_p50_ms": stats.finite(statistics.median(ingests), ceiling),
        "throughput_ops_s": sum(1 for e in measured if math.isfinite(e["ms"]))
        / result["wall_s"],
        "cold_answer_s": statistics.median(result["recoveries"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    detail = {
        "answer_p50_ms": stats.summarize(queries),
        "heavy_p50_ms": stats.summarize(ingests),
        "setup_s": {"n": len(result["setups"])},
        "cold_answer_s": {"n": len(result["recoveries"])},
        "ops_measured": len(measured),
        "unscaled_answer_p50_ms": statistics.median(
            [e["raw_ms"] for e in measured if e["kind"] == "query"]),
    }
    return metrics, attempted, failed, detail, result["host"]


def run_traced(workload, seed, seconds, profile, spec):
    result, _ = run_worker(workload, seed, seconds, "trace", profile)
    if workload == "serve_mixed":
        attempted, failed = check_serve(seed, profile, result["logs"], result["probes"])
    else:
        attempted = result["jobs"]
        failed = result["failed"]
        if result["answers"] != batch_expected(workload, seed, profile):
            failed = attempted
    names = [m["name"] for m in spec["per_layer"]]
    unknown = sorted(set(result["metrics"]) - set(names))
    if unknown:
        raise HarnessError(f"metrics missing from BENCHMARK.json per_layer: {unknown}")
    # A layer the workload never enters reports 0: that is its row of
    # the "no effect on" column.
    metrics = {name: float(result["metrics"].get(name, 0.0)) for name in names}
    return metrics, attempted, failed, {}, result["host"]


def run_one(workload, seed, seconds, trace, profile, spec) -> dict:
    started = time.perf_counter()
    if trace:
        metrics, attempted, failed, detail, host = run_traced(
            workload, seed, seconds, profile, spec)
        declared = spec["per_layer"]
    else:
        if workload == "serve_mixed":
            run = run_serve_untraced(seed, seconds, profile)
        else:
            run = run_batch_untraced(workload, seed, seconds, profile)
        metrics, attempted, failed, detail, host = run
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise HarnessError(f"metric names differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "profile": profile, "host": host, "wall_s": time.perf_counter() - started,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "detail": detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1))
    return result


def report(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']} trace={result['trace']} "
          f"profile={result['profile']}  attempted={result['attempted']} "
          f"failed={result['failed']}  ({result['wall_s']:.1f}s wall)")
    for name, metric in result["metrics"].items():
        line = f"  {name:38s} {metric['value']:14.4f} {metric['unit']}"
        extra = result["detail"].get(name)
        if extra and (extra.get("tail_q") or 0) > 50:
            line += f"   n={extra['n']} p{extra['tail_q']:g}={extra['tail']:.4f}"
        elif extra:
            line += f"   n={extra['n']}"
        print(line)


def contract_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


# --------------------------------------------------------------------------
# --check-repeat
# --------------------------------------------------------------------------


def check_repeat(first: "list[dict]", second: "list[dict]", spec) -> bool:
    """Every end-to-end metric within its bound, every count identical."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    ok = True
    print("== check-repeat: relative difference between the two suites")
    for a, b in zip(first, second):
        for name in a["metrics"]:
            x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if a["trace"]:
                if name in counts and x != y:
                    ok = False
                    print(f"  {a['workload']:16s} {name:36s} count differs: {x} vs {y}")
                continue
            gap = abs(x - y) / min(x, y)
            verdict = "ok" if gap <= bounds[name] else "OUTSIDE BOUND"
            ok &= gap <= bounds[name]
            print(f"  {a['workload']:16s} {name:20s} {x:12.4f} {y:12.4f} "
                  f"{100 * gap:6.2f}%  (bound {100 * bounds[name]:.0f}%)  {verdict}")
        if a["attempted"] != b["attempted"] and a["trace"]:
            ok = False
            print(f"  {a['workload']:16s} traced op counts differ")
        ok &= a["failed"] == b["failed"] == 0
    print("check-repeat:", "PASS" if ok else "FAIL")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds each run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=None,
                        help="1: traced per-layer run; 0: untraced end-to-end run; "
                             "omitted: both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one second per run: the same code paths, fast")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the selection twice and compare")
    parser.add_argument("--write-expected", action="store_true",
                        help="recompute perf/expected/seed0.json from the oracle and exit")
    args = parser.parse_args(argv)
    if args.write_expected:
        write_expected()
        return 0

    spec = load_spec()
    workloads = [w for w in args.workload.split(",") if w]
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    profile = "smoke" if args.smoke else "full"
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.smoke else float(spec["run_seconds"]))
    traces = [0, 1] if args.trace is None else [args.trace]

    def suite() -> "list[dict]":
        results = []
        for workload in workloads:
            for trace in traces:
                result = run_one(workload, args.seed, seconds, trace, profile, spec)
                report(result)
                results.append(result)
        return results

    try:
        results = suite()
        ok = all(r["correct"] for r in results)
        if args.check_repeat:
            ok &= check_repeat(results, suite(), spec)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(contract_line(results[-1]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
