"""CLI surface of the observability layer: trace, profile, report, --trace."""

import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.observability import read_jsonl

REPO_ROOT = Path(__file__).resolve().parents[2]
GOOD_PATH = str(REPO_ROOT / "examples" / "good_path.dl")
GOOD_PATH_ICS = str(REPO_ROOT / "examples" / "good_path_ics.dl")
AB_PATHS = str(REPO_ROOT / "examples" / "ab_paths.dl")
AB_ICS = str(REPO_ROOT / "examples" / "ab_paths_ics.dl")


def test_profile_example_prints_hot_rules(capsys):
    assert main(["profile", GOOD_PATH, "--query", "goodPath"]) == 0
    out = capsys.readouterr().out
    assert "evaluation profile:" in out
    assert "rules by time" in out
    assert "path(X, Y) :- step(X, Z), path(Z, Y)." in out
    assert "per-predicate totals" in out
    assert "answers: 2 rows in goodPath" in out


def test_profile_top_flag(capsys):
    assert main(["profile", GOOD_PATH, "--query", "goodPath", "--top", "1"]) == 0
    out = capsys.readouterr().out
    assert "top 1 rules" in out


def test_trace_renders_rewrite_and_evaluation(capsys):
    assert main(["trace", GOOD_PATH, "--query", "goodPath",
                 "--constraints", GOOD_PATH_ICS]) == 0
    out = capsys.readouterr().out
    assert "optimize query=goodPath" in out
    assert "querytree.build" in out
    assert "evaluate strategy=seminaive" in out


def test_trace_jsonl_round_trips(tmp_path, capsys):
    target = tmp_path / "trace.jsonl"
    assert main(["trace", GOOD_PATH, "--query", "goodPath",
                 "--jsonl", str(target), "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "more events)" in out
    events = read_jsonl(target)
    assert events and any(e.name == "evaluate" for e in events)


def test_run_with_inline_facts_and_trace_flag(capsys):
    assert main(["run", GOOD_PATH, "--query", "goodPath", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "answers (2):" in out
    assert "trace summary:" in out
    assert "evaluate" in out


def test_pipeline_trace_flag_summarizes_stages(capsys):
    assert main(["pipeline", AB_PATHS, "--goal", "p(1, Y)",
                 "--constraints", AB_ICS, "--compare", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "answers match" in out
    assert "trace summary:" in out
    assert "pipeline.stage" in out
    assert "magic.transform" in out


def test_magic_trace_flag(capsys):
    assert main(["magic", AB_PATHS, "--goal", "p(1, Y)", "--compare", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "answers match" in out
    assert "trace summary:" in out


def _write_synthetic_bench(directory):
    directory.joinpath("bench_one.py").write_text(
        textwrap.dedent(
            """
            from repro.observability import Experiment

            def experiment():
                return Experiment(
                    key="X01", title="one", narrative="n", build=lambda: "body"
                )
            """
        ),
        encoding="utf-8",
    )


def test_report_regenerate_and_check_cycle(tmp_path, capsys):
    _write_synthetic_bench(tmp_path)
    output = tmp_path / "EXPERIMENTS.md"
    base = ["report", "--benchmarks", str(tmp_path), "--output", str(output)]

    assert main(base + ["--regenerate"]) == 0
    assert "regenerated" in capsys.readouterr().out
    first = output.read_text(encoding="utf-8")

    # Byte-identical on the second run.
    assert main(base + ["--regenerate"]) == 0
    assert "unchanged" in capsys.readouterr().out
    assert output.read_text(encoding="utf-8") == first

    assert main(base + ["--regenerate", "--check"]) == 0
    assert "up to date" in capsys.readouterr().out

    output.write_text(first + "drift\n", encoding="utf-8")
    assert main(base + ["--regenerate", "--check"]) == 1
    assert "stale" in capsys.readouterr().out
    # --check never repairs the file.
    assert output.read_text(encoding="utf-8").endswith("drift\n")


def test_report_requires_regenerate_flag(capsys):
    assert main(["report"]) == 2
    assert "error:" in capsys.readouterr().err
