"""The three batch workloads: what one job does, timed and traced.

A *job* answers every case of the workload once, each from text: parse,
rewrite, load, evaluate, select the answer rows - the glue a CLI ``run``
or ``pipeline`` command performs.  ``closure_full`` goes through
``optimize`` and evaluates ``P'`` for an all-free goal; ``point_load``
and ``rewrite_compile`` go through ``run_pipeline`` (semantic rewrite,
then magic sets) for a goal string.

This module runs inside the per-workload worker process
(``worker.py``); it is the only batch code that imports ``repro``.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
import traceback

import calibrate
import inputs
import spans as spans_mod
from reference import digest
from spans import NullRecorder, SpanRecorder

#: Units whose P'-vs-P ratios are per-layer metrics (0 where a workload
#: has no such unit).
RATIO_UNITS = ("ab", "goodpath", "sg", "taint")
#: How often the original program is evaluated per unit in a traced run.
ORIGINAL_REPEATS = 3
#: Plain / governed / traced evaluations compared for the overhead ratios.
OVERHEAD_REPEATS = 3
#: A timed run measures at least this many jobs, however short ``--seconds``.
MIN_JOBS = 3


class Batch:
    """One batch workload's cases and the job that answers them."""

    def __init__(self, workload: str, seed: int, profile: str):
        # Imported here, not at module top: importing the program is
        # part of the set-up time the harness reports.
        import repro
        from repro.magic.transform import match_query_atom

        self.repro = repro
        self.match = match_query_atom
        self.workload = workload
        self.cases = inputs.BATCH[workload](seed, profile)
        self.through_pipeline = workload != "closure_full"

    def answer(self, case, rec):
        """Text in, answer rows out."""
        r = self.repro
        with rec.span("parser.program", unit=case.name):
            goal = r.parse_atom(case.goal)
            program = r.parse_program(case.program, query=goal.predicate)
            constraints = r.parse_constraints(case.constraints)
        with rec.span("parser.facts", unit=case.name) as span:
            facts = r.parse_facts(case.facts)
            span["facts"] = len(facts)
        if self.through_pipeline:
            with rec.span("database.load", unit=case.name):
                database = r.Database(facts)
            with rec.span("magic.pipeline", unit=case.name):
                report = r.run_pipeline(program, constraints, goal)
        else:
            with rec.span("core.rewrite", unit=case.name) as span:
                report = r.optimize(program, constraints)
                note_rules(span, report)
            with rec.span("database.load", unit=case.name):
                database = r.Database(facts)
        if report.program is None:
            return frozenset()
        with rec.span("evaluation.fixpoint", unit=case.name) as span:
            result = r.evaluate(report.program, database)
            note_stats(span, result)
        with rec.span("evaluation.answers", unit=case.name):
            rows = result.query_rows()
            if self.through_pipeline:
                rows = frozenset(row for row in rows if self.match(row, goal))
        return rows

    def job(self, rec, job_id=None):
        """Answer every case once.  Returns ``(unit walls, answers)``."""
        walls, answers = {}, {}
        rec.job = job_id
        with rec.span("job"):
            for case in self.cases:
                start = time.perf_counter()
                answers[case.name] = self.answer(case, rec)
                walls[case.name] = time.perf_counter() - start
        rec.job = None
        return walls, answers


#: Work counters copied from an evaluation's stats onto its span.
EVAL_COUNTERS = ("facts_derived", "rows_scanned", "probes", "rule_firings",
                 "iterations", "index_builds")


def note_stats(record: dict, result) -> None:
    for counter in EVAL_COUNTERS:
        record[counter] = getattr(result.stats, counter)


def note_rules(record: dict, report) -> None:
    record["rules_out"] = 0 if report.program is None else len(report.program.rules)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digests(answers) -> dict:
    return {name: {"rows": len(rows), "digest": digest(rows)}
            for name, rows in answers.items()}


def run_cold(batch: Batch) -> dict:
    """One job in a fresh process: what a first CLI invocation costs."""
    _, answers = batch.job(NullRecorder())
    # The parent stops its cold-start clock when this line arrives.
    print("ANSWERED", flush=True)
    probes = [calibrate.probe() for _ in range(3)]
    return {"answers": _digests(answers), "factor": calibrate.factor(*probes)}


def run_timed(batch: Batch, seconds: float) -> dict:
    """Warm up, then run jobs until ``seconds`` have been measured.

    Every job is followed by a calibration probe; a job's walls are
    scaled by the probes on either side of it (see ``calibrate.py``).
    A failed job has wall ``inf``.
    """
    rec = NullRecorder()
    _, first = batch.job(rec)  # warm-up: caches fill, lazy imports finish
    jobs, raw_jobs = [], []
    units = {case.name: [] for case in batch.cases}
    measured = 0.0
    before = first_probe = calibrate.probe()
    while measured < seconds or len(jobs) < MIN_JOBS:
        try:
            walls, answers = batch.job(rec)
        except Exception:  # noqa: BLE001 - a failed job is a counted result
            traceback.print_exc()
            walls, answers = {}, None
        after = calibrate.probe()
        scale = calibrate.factor(before, after)
        before = after
        wall = sum(walls.values()) if answers == first else float("inf")
        measured += wall if answers == first else 1.0
        raw_jobs.append(wall)
        jobs.append(wall * scale)
        for name, value in walls.items():
            units[name].append(value * scale)
    return {
        "jobs": jobs,
        "raw_jobs": raw_jobs,
        "units": units,
        "answers": _digests(first),
        "factor": calibrate.factor(first_probe),
        "peak_rss_mb": peak_rss_mb(),
    }


# --------------------------------------------------------------------------
# Traced run
# --------------------------------------------------------------------------


def install_wraps(rec: SpanRecorder) -> None:
    """Spans around the layers a job reaches only through other layers."""
    import repro.core.rewrite as rewrite
    import repro.datalog.evaluation as evaluation
    import repro.magic.pipeline as pipeline

    def adornments(record, result):
        record["count"] = sum(len(v) for v in result.adornments.values())

    def tree_nodes(record, result):
        record["count"] = sum(1 for _ in result.all_goal_nodes())

    def magic_rules(record, result):
        record["rules_out"] = len(result.program.rules)

    rec.wrap(pipeline, "optimize", "core.rewrite", note_rules)
    rec.wrap(rewrite, "compute_adornments", "core.adornments", adornments)
    rec.wrap(rewrite, "build_query_tree", "core.querytree", tree_nodes)
    rec.wrap(pipeline, "magic_transform", "magic.transform", magic_rules)
    rec.wrap(evaluation, "compile_rule", "plan.compile")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _original_vs_rewritten(batch: Batch, spans) -> dict:
    """``evaluate(P)`` against the jobs' own ``evaluate(P')``, per unit."""
    r = batch.repro
    rewritten: dict = {}
    for span in spans:
        if span["name"] == "evaluation.fixpoint":
            rewritten.setdefault(span["unit"], []).append(span)
    out = {"evaluation.original_s": 0.0}
    for case in batch.cases:
        if case.name not in RATIO_UNITS:
            continue
        program = r.parse_program(case.program, query=case.query)
        database = r.Database(r.parse_facts(case.facts))
        runs = [_timed(lambda: r.evaluate(program, database))
                for _ in range(ORIGINAL_REPEATS)]
        seconds = statistics.median(t for t, _ in runs)
        mine = rewritten[case.name]
        out["evaluation.original_s"] += seconds
        out[f"core.rewrite_speedup.{case.name}"] = seconds / statistics.median(
            s["end"] - s["start"] for s in mine
        )
        out[f"core.rewrite_work_ratio.{case.name}"] = (
            mine[-1]["rows_scanned"] / max(1, runs[-1][1].stats.rows_scanned)
        )
    return out


def _engine_extras(batch: Batch) -> dict:
    """Columnar, sharded, governed and traced evaluation of the a/b unit:
    the axes no default path takes, priced on one fixed input."""
    r = batch.repro
    from repro.observability.trace import RingBufferSink, tracing
    from repro.parallel import WorkerPool, evaluate_sharded

    case = next(c for c in batch.cases if c.name == "ab")
    program = r.optimize(
        r.parse_program(case.program, query=case.query),
        r.parse_constraints(case.constraints),
    ).program
    database = r.Database(r.parse_facts(case.facts))
    out = {}

    out["database.to_columnar_s"], columnar = _timed(
        lambda: database.to_storage("columnar")
    )
    runs = [_timed(lambda: r.evaluate(program, columnar))
            for _ in range(OVERHEAD_REPEATS)]
    out["evaluation.columnar_s"] = statistics.median(t for t, _ in runs)
    out["database.intern_hits"] = float(runs[-1][1].stats.intern_hits)

    workers = min(2, os.cpu_count() or 1)
    out["parallel.pool_start_s"], pool = _timed(
        lambda: WorkerPool(program, columnar, workers)
    )
    try:
        out["parallel.w2_s"], sharded = _timed(
            lambda: evaluate_sharded(program, columnar, workers=workers, pool=pool)
        )
    finally:
        pool.close()
    out["parallel.w2_critical_path_s"] = sharded.shards["critical_path_seconds"]

    def observed():
        with tracing(RingBufferSink()):
            return r.evaluate(program, database)

    # Interleaved, so drift hits all three alike.
    variants = {
        "plain": lambda: r.evaluate(program, database),
        "governed": lambda: r.evaluate(program, database, budget=r.Budget()),
        "observed": observed,
    }
    times = {name: [] for name in variants}
    for _ in range(OVERHEAD_REPEATS):
        for name, fn in variants.items():
            times[name].append(_timed(fn)[0])
    base = statistics.median(times["plain"])
    out["robustness.governor_overhead_ratio"] = statistics.median(times["governed"]) / base
    out["observability.trace_overhead_ratio"] = statistics.median(times["observed"]) / base
    return out


def run_traced(batch: Batch, jobs: int, trace_path: str, header: dict) -> dict:
    """``jobs`` traced jobs interleaved with as many untraced ones, then
    the per-unit and per-engine extras."""
    rec = SpanRecorder()
    _, first = batch.job(NullRecorder())  # warm-up
    install_wraps(rec)
    traced_walls, plain_walls = [], []
    failed = 0
    try:
        for job_id in range(jobs):
            walls, answers = batch.job(rec, job_id)
            traced_walls.append(sum(walls.values()))
            failed += answers != first
            # Tracing off for the comparison job: the wrappers stay
            # installed but pass straight through.
            rec.active = False
            walls, _ = batch.job(NullRecorder())
            rec.active = True
            plain_walls.append(sum(walls.values()))
    finally:
        rec.unwrap_all()
    metrics = layer_metrics(rec.spans, jobs, root="job")
    metrics["harness.trace_overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls)
    )
    if batch.workload in ("closure_full", "point_load"):
        metrics.update(_original_vs_rewritten(batch, rec.spans))
    if batch.workload == "closure_full":
        metrics.update(_engine_extras(batch))
    rec.write(trace_path, header)
    return {
        "metrics": metrics,
        "jobs": jobs,
        "failed": failed,
        "answers": _digests(first),
    }


#: span name -> per-layer metric holding its seconds per job.
SPAN_SECONDS = {
    "parser.program": "parser.program_s",
    "parser.facts": "parser.facts_s",
    "database.load": "database.load_s",
    "core.rewrite": "core.rewrite_s",
    "core.adornments": "core.adornments_s",
    "core.querytree": "core.querytree_s",
    "magic.pipeline": "magic.pipeline_s",
    "magic.transform": "magic.transform_s",
    "plan.compile": "plan.compile_s",
    "evaluation.fixpoint": "evaluation.fixpoint_s",
    "evaluation.answers": "evaluation.answers_s",
}
#: span name -> (span attribute, per-layer metric) summed per job.
SPAN_COUNTS = {
    "parser.facts": [("facts", "parser.facts")],
    "core.adornments": [("count", "core.adornments_count")],
    "core.querytree": [("count", "core.querytree_nodes")],
    "core.rewrite": [("rules_out", "core.rules_out")],
    "magic.transform": [("rules_out", "magic.rules_out")],
    "evaluation.fixpoint": [
        (c, f"evaluation.{c}") for c in EVAL_COUNTERS if c != "index_builds"
    ] + [("index_builds", "database.index_builds")],
}


def layer_metrics(spans, jobs: int, root: str) -> dict:
    """Per-job layer seconds and counts from a traced run's spans.

    ``root`` names the span that frames one job / request; the part of
    it no child span covers is reported as ``harness.untraced_share``.
    """
    metrics = dict.fromkeys(SPAN_SECONDS.values(), 0.0)
    metrics.update({m: 0 for pairs in SPAN_COUNTS.values() for _, m in pairs})
    metrics.update({"core.rewrite_self_s": 0.0, "plan.plans": 0})
    own = spans_mod.self_times(spans)
    root_wall = root_self = 0.0
    for span in spans:
        name = span["name"]
        if name in SPAN_SECONDS:
            metrics[SPAN_SECONDS[name]] += span["end"] - span["start"]
        for attr, metric in SPAN_COUNTS.get(name, ()):
            metrics[metric] += span[attr]
        if name == "core.rewrite":
            metrics["core.rewrite_self_s"] += own[span["id"]]
        elif name == "plan.compile":
            metrics["plan.plans"] += 1
        elif name == root:
            root_wall += span["end"] - span["start"]
            root_self += own[span["id"]]
    # Totals first, one division last: integer counts stay exact.
    metrics = {name: value / jobs for name, value in metrics.items()}
    facts = metrics.pop("parser.facts")
    metrics["parser.facts_per_s"] = _ratio(facts, metrics["parser.facts_s"])
    metrics["evaluation.facts_per_s"] = _ratio(
        metrics["evaluation.facts_derived"], metrics["evaluation.fixpoint_s"]
    )
    metrics["harness.untraced_share"] = _ratio(root_self, root_wall)
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
