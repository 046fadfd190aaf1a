"""Observability: structured tracing, evaluation profiling, reports.

Three layers, each consuming the previous one:

* :mod:`repro.observability.trace` — the span/event API the engine and
  both optimizers are instrumented with, plus pluggable sinks (ring
  buffer, JSONL, human-readable log).  Disabled by default and
  zero-overhead when disabled.
* :mod:`repro.observability.profile` — per-rule / per-predicate
  work-and-time breakdowns built from trace events (``repro profile``).
* :mod:`repro.observability.report` — Markdown rendering of traces and
  work-ratio tables, and the deterministic regeneration of
  ``EXPERIMENTS.md`` from the benchmark suite (``repro report``).

See ``docs/observability.md`` for the event schema and usage guide.
"""

from .._lazy import lazy_exports
from .trace import (
    NULL_TRACER,
    JsonlSink,
    LogSink,
    RingBufferSink,
    Sink,
    TraceEvent,
    Tracer,
    get_tracer,
    read_jsonl,
    set_tracer,
    tracing,
)

# The profiler and the report renderers consume traces; only the
# ``profile``, ``trace`` and ``report`` commands and ``--trace`` run them.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".profile": (
        "EvaluationProfile",
        "RuleProfile",
        "build_profile",
        "profile_evaluation",
    ),
    ".report": (
        "Experiment",
        "md_table",
        "regenerate_experiments",
        "render_trace",
        "trace_summary",
        "work_ratio_table",
    ),
})

__all__ = [
    "TraceEvent",
    "Tracer",
    "Sink",
    "RingBufferSink",
    "JsonlSink",
    "LogSink",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
    "read_jsonl",
    "EvaluationProfile",
    "RuleProfile",
    "build_profile",
    "profile_evaluation",
    "Experiment",
    "md_table",
    "work_ratio_table",
    "trace_summary",
    "render_trace",
    "regenerate_experiments",
]
