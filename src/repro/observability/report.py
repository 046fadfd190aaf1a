"""Self-documenting benchmark reports and trace rendering.

Two consumers share this module:

* **trace views** — :func:`render_trace` (chronological, indented) and
  :func:`trace_summary` (per-span-name aggregation) turn a stream of
  :class:`~repro.observability.trace.TraceEvent` into human-readable
  text; the CLI's ``--trace`` flag and ``repro trace`` print these.
* **experiment reports** — :class:`Experiment` describes one benchmark
  experiment (key, title, narrative, and a ``build`` callable that
  produces deterministic Markdown from live work counters);
  :func:`regenerate_experiments` loads every ``benchmarks/bench_*.py``
  module, collects their ``experiment()`` definitions and renders
  ``EXPERIMENTS.md`` as a **build artifact**: byte-identical across
  runs and machines because it contains only seeded work counters and
  structural facts — never wall-clock times.

``python -m repro report --regenerate`` wires this up; ``--check``
makes CI fail when the committed file is stale.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .trace import TraceEvent

__all__ = [
    "md_table",
    "work_ratio_table",
    "trace_summary",
    "render_trace",
    "Experiment",
    "render_experiments",
    "load_experiments",
    "regenerate_experiments",
    "GENERATED_HEADER",
]


# ----------------------------------------------------------------------
# Markdown building blocks
# ----------------------------------------------------------------------
def _fmt(value: object) -> str:
    """Deterministic cell formatting: thousands-grouped ints, 2-dp floats."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        return "inf" if value == float("inf") else f"{value:.2f}"
    return str(value)


def md_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A GitHub-flavored Markdown table; numeric columns right-aligned."""
    materialized = [[_fmt(cell) for cell in row] for row in rows]
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in materialized:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


#: Counters shown in work tables, in display order.
WORK_COUNTERS = ("rule_firings", "probes", "rows_scanned", "facts_derived", "iterations")


def work_ratio_table(
    variants: Sequence[tuple[str, Mapping[str, int]]],
    *,
    baseline: str | None = None,
    counters: Sequence[str] = WORK_COUNTERS,
) -> str:
    """A Markdown table of work counters with per-variant ratio columns.

    ``variants`` is an ordered list of ``(label, counters_dict)``;
    ``baseline`` names the row ratios are computed against (default: the
    first row).  A ratio below 1.0 means the variant did less of that
    kind of work than the baseline.
    """
    if not variants:
        raise ValueError("work_ratio_table needs at least one variant")
    base_label = baseline if baseline is not None else variants[0][0]
    base = dict(next(stats for label, stats in variants if label == base_label))
    headers = ["variant", *counters, "work ratio"]
    rows: list[list[object]] = []
    for label, stats in variants:
        cells: list[object] = [label]
        ratios: list[float] = []
        for counter in counters:
            value = int(stats.get(counter, 0))
            cells.append(value)
            base_value = int(base.get(counter, 0))
            if base_value == 0:
                ratios.append(1.0 if value == 0 else float("inf"))
            else:
                ratios.append(value / base_value)
        # The headline "work ratio" column: facts derived vs baseline.
        headline = ratios[counters.index("facts_derived")] if "facts_derived" in counters else ratios[0]
        cells.append("—" if label == base_label else f"{headline:.2f}×")
        rows.append(cells)
    return md_table(headers, rows)


# ----------------------------------------------------------------------
# Trace rendering
# ----------------------------------------------------------------------
def _attr_text(attrs: Mapping[str, object]) -> str:
    return " ".join(f"{key}={value}" for key, value in attrs.items())


def render_trace(events: Iterable[TraceEvent], *, limit: int | None = None) -> str:
    """Chronological, indented rendering of a trace (source order)."""
    ordered = sorted(events, key=lambda e: (e.start, e.span_id))
    lines: list[str] = []
    shown = 0
    for event in ordered:
        if limit is not None and shown >= limit:
            lines.append(f"... ({len(ordered) - shown} more events)")
            break
        indent = "  " * event.depth
        timing = f"{event.duration * 1000:9.3f}ms" if event.kind == "span" else "    event "
        extras = _attr_text(event.attrs)
        lines.append(f"[{timing}] {indent}{event.name}" + (f" {extras}" if extras else ""))
        shown += 1
    return "\n".join(lines)


def trace_summary(events: Iterable[TraceEvent], *, top: int | None = None) -> str:
    """Aggregate the trace per span/event name: count + total time."""
    totals: dict[str, list[float]] = {}
    for event in events:
        entry = totals.setdefault(event.name, [0.0, 0.0])
        entry[0] += 1
        entry[1] += event.duration
    names = sorted(totals, key=lambda name: (-totals[name][1], name))
    if top is not None:
        names = names[:top]
    lines = [f"{'count':>7} {'total(ms)':>11}  span"]
    for name in names:
        count, duration = totals[name]
        lines.append(f"{int(count):7d} {duration * 1000:11.3f}  {name}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Self-documenting experiments
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Experiment:
    """One experiment section of the regenerated ``EXPERIMENTS.md``.

    ``build`` runs the (seeded, deterministic) workload and returns the
    Markdown body — typically one or two :func:`md_table` /
    :func:`work_ratio_table` blocks plus assertions-as-prose.  It must
    not embed wall-clock times, dates or unsorted collections.
    """

    key: str
    title: str
    narrative: str
    build: Callable[[], str]

    def render(self) -> str:
        body = self.build().strip()
        parts = [f"## {self.key} — {self.title}", "", self.narrative.strip()]
        if body:
            parts += ["", body]
        return "\n".join(parts)


GENERATED_HEADER = """\
# EXPERIMENTS — paper vs. measured

> **Generated file — do not edit.**  This report is produced by
> `python -m repro report --regenerate` from the experiment definitions
> in `benchmarks/*.py` (each module's `experiment()`); CI regenerates it
> with `--check` and fails when it is stale.  Every number below is a
> deterministic work counter (`EvaluationStats`) or structural count on
> seeded workloads — byte-identical across runs and machines.  Wall-clock
> time is measured separately by the repo benchmark (`python3 perf/run.py`,
> see `perf/README.md`) and is intentionally excluded here.

The paper is an extended abstract with one figure (Figure 1) and no
measurement tables; its "evaluation" consists of worked examples and
theorems.  Each section reproduces one such artifact: the *paper*
paragraph states the claim, the table shows what this codebase measures
for it.  A work ratio below 1.0× means the transformed program did less
work than its baseline.

Theorem-level equivalence claims with no number to tabulate (Theorem
4.1 answer preservation on consistent databases, Theorem 4.2 local
order/negated atoms) are enforced directly by the test suite under
`tests/`; documented deviations from the paper live in DESIGN.md §6.
"""


def render_experiments(experiments: Sequence[Experiment]) -> str:
    """Render the full EXPERIMENTS.md content (trailing newline included)."""
    sections = [GENERATED_HEADER.rstrip()]
    for experiment in sorted(experiments, key=lambda e: e.key):
        sections.append(experiment.render().rstrip())
    return "\n\n".join(sections) + "\n"


def load_experiments(benchmarks_dir: str | Path) -> list[Experiment]:
    """Import every ``bench_*.py`` in ``benchmarks_dir`` and collect
    the :class:`Experiment` returned by its ``experiment()`` (if any)."""
    directory = Path(benchmarks_dir)
    if not directory.is_dir():
        raise FileNotFoundError(f"benchmarks directory not found: {directory}")
    experiments: list[Experiment] = []
    # Shared helpers (benchmarks/common.py) import as a sibling module.
    inserted = str(directory.resolve())
    sys.path.insert(0, inserted)
    try:
        for path in sorted(directory.glob("bench_*.py")):
            module_name = f"_repro_bench_{path.stem}"
            spec = importlib.util.spec_from_file_location(module_name, path)
            assert spec is not None and spec.loader is not None
            module = importlib.util.module_from_spec(spec)
            sys.modules[module_name] = module
            try:
                spec.loader.exec_module(module)
            finally:
                sys.modules.pop(module_name, None)
            factory = getattr(module, "experiment", None)
            if factory is None:
                continue
            built = factory()
            if isinstance(built, Experiment):
                experiments.append(built)
            else:
                experiments.extend(built)
    finally:
        try:
            sys.path.remove(inserted)
        except ValueError:  # pragma: no cover - defensive
            pass
    return experiments


def regenerate_experiments(
    benchmarks_dir: str | Path,
    output: str | Path,
    *,
    check: bool = False,
) -> tuple[bool, str]:
    """Regenerate ``output`` (EXPERIMENTS.md) from the benchmark modules.

    Returns ``(stale, content)``: ``stale`` is True when the existing
    file differed from the regenerated content.  With ``check=True``
    the file is never written; otherwise it is rewritten in place.
    """
    content = render_experiments(load_experiments(benchmarks_dir))
    output_path = Path(output)
    existing = output_path.read_text(encoding="utf-8") if output_path.exists() else None
    stale = existing != content
    if not check and stale:
        output_path.write_text(content, encoding="utf-8")
    return stale, content
