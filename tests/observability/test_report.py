"""Report rendering: tables, trace views, deterministic regeneration."""

import textwrap

import pytest

from repro.datalog.evaluation import evaluate
from repro.observability import (
    Experiment,
    JsonlSink,
    RingBufferSink,
    md_table,
    read_jsonl,
    regenerate_experiments,
    render_trace,
    trace_summary,
    tracing,
    work_ratio_table,
)
from repro.observability.report import (
    GENERATED_HEADER,
    load_experiments,
    render_experiments,
)
from repro.workloads.generators import good_path_bidirectional_database
from repro.workloads.programs import good_path


def test_md_table_formats_ints_and_floats():
    table = md_table(["a", "b"], [[1234, 0.5], ["x", float("inf")]])
    assert "| 1,234 | 0.50 |" in table
    assert "| x | inf |" in table
    assert table.splitlines()[1] == "|---|---|"


def test_work_ratio_table_baseline_and_ratios():
    table = work_ratio_table(
        [
            ("original", {"rule_firings": 10, "probes": 100, "rows_scanned": 4,
                          "facts_derived": 10, "iterations": 2}),
            ("optimized", {"rule_firings": 5, "probes": 50, "rows_scanned": 2,
                           "facts_derived": 5, "iterations": 2}),
        ]
    )
    lines = table.splitlines()
    assert lines[2].endswith("| — |")
    assert lines[3].endswith("| 0.50× |")


def test_work_ratio_table_zero_baseline_guard():
    table = work_ratio_table(
        [
            ("empty", {"facts_derived": 0}),
            ("busy", {"facts_derived": 7}),
        ],
        counters=("facts_derived",),
    )
    # 7 / 0 must render as inf, not raise.
    assert "inf×" in table


def test_work_ratio_table_requires_variants():
    with pytest.raises(ValueError):
        work_ratio_table([])


def test_render_trace_and_summary_round_trip_through_jsonl(tmp_path):
    program, _ = good_path()
    database = good_path_bidirectional_database(num_chains=2, chain_length=6, seed=0)
    path = tmp_path / "trace.jsonl"
    ring = RingBufferSink()
    jsonl = JsonlSink(path)
    with tracing(ring, jsonl):
        evaluate(program, database)
    jsonl.close()

    restored = read_jsonl(path)
    # The renderers see identical traces whether live or reloaded.
    assert render_trace(restored) == render_trace(ring)
    assert trace_summary(restored) == trace_summary(ring)
    assert "evaluate" in render_trace(restored)


def test_render_trace_limit():
    ring = RingBufferSink()
    with tracing(ring) as tracer:
        for i in range(5):
            tracer.event("e", i=i)
    text = render_trace(ring, limit=2)
    assert "(3 more events)" in text


def _write_synthetic_bench(directory, value):
    directory.joinpath("common.py").write_text(
        "MAGIC = %d\n" % value, encoding="utf-8"
    )
    directory.joinpath("bench_synthetic.py").write_text(
        textwrap.dedent(
            """
            from common import MAGIC
            from repro.observability import Experiment, md_table

            def experiment():
                return Experiment(
                    key="X01",
                    title="synthetic",
                    narrative="A fixed table.",
                    build=lambda: md_table(["k"], [[MAGIC]]),
                )
            """
        ),
        encoding="utf-8",
    )


def test_load_experiments_imports_bench_modules(tmp_path):
    _write_synthetic_bench(tmp_path, 42)
    experiments = load_experiments(tmp_path)
    assert [e.key for e in experiments] == ["X01"]
    assert "| 42 |" in experiments[0].build()


def test_regenerate_is_byte_stable_and_check_never_writes(tmp_path):
    _write_synthetic_bench(tmp_path, 7)
    output = tmp_path / "EXPERIMENTS.md"

    stale, content = regenerate_experiments(tmp_path, output, check=False)
    assert stale and output.read_text(encoding="utf-8") == content
    assert content.startswith(GENERATED_HEADER.splitlines()[0])
    assert content.endswith("\n")

    # Second run: byte-identical, nothing to do.
    stale, again = regenerate_experiments(tmp_path, output, check=False)
    assert not stale and again == content

    # Drift is detected, and --check must not repair it.
    output.write_text(content + "edited\n", encoding="utf-8")
    stale, _ = regenerate_experiments(tmp_path, output, check=True)
    assert stale
    assert output.read_text(encoding="utf-8").endswith("edited\n")


def test_render_experiments_sorts_by_key():
    def exp(key):
        return Experiment(key=key, title=key, narrative="n", build=lambda: "")

    text = render_experiments([exp("E10"), exp("E02"), exp("F01")])
    assert text.index("## E02") < text.index("## E10") < text.index("## F01")


def test_committed_experiments_md_contains_generated_sections():
    """The committed report is the generated artifact, not hand prose."""
    from pathlib import Path

    content = Path(__file__).resolve().parents[2].joinpath("EXPERIMENTS.md").read_text(
        encoding="utf-8"
    )
    assert content.startswith("# EXPERIMENTS — paper vs. measured")
    assert "Generated file — do not edit." in content
    for key in ("## E01", "## E11", "## F01"):
        assert key in content, key
