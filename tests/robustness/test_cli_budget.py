"""The CLI's budget flags and its exit-code contract.

Exit codes: 0 success, 1 budget exceeded (partial results were printed
to stderr as diagnostics), 2 usage/input error.  A tripped budget must
never escape as a traceback.
"""

import pytest

from repro.cli import main

PROGRAM = """
p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
"""

CONSTRAINTS = ":- e(X, Y), Y <= X."


def _facts(n=40):
    return "\n".join(f"e({i}, {i + 1})." for i in range(n)) + "\n"


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, content in {
        "program.dl": PROGRAM,
        "ics.dl": CONSTRAINTS,
        "facts.dl": _facts(),
    }.items():
        path = tmp_path / name
        path.write_text(content)
        paths[name] = str(path)
    return paths


class TestRunExitCodes:
    def test_unbudgeted_run_exits_zero(self, files, capsys):
        code = main(
            ["run", files["program.dl"], "--query", "p", "--data", files["facts.dl"]]
        )
        assert code == 0
        assert "answers" in capsys.readouterr().out

    def test_generous_budget_exits_zero(self, files):
        assert main([
            "run", files["program.dl"], "--query", "p", "--data", files["facts.dl"],
            "--timeout", "60", "--max-facts", "1000000",
        ]) == 0

    def test_tiny_timeout_exits_one_with_partial_diagnostics(self, files, capsys):
        code = main([
            "run", files["program.dl"], "--query", "p", "--data", files["facts.dl"],
            "--timeout", "0.000001",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "aborted:" in captured.err
        assert "partial results:" in captured.err
        assert "Traceback" not in captured.err

    def test_tiny_fact_budget_exits_one(self, files, capsys):
        code = main([
            "run", files["program.dl"], "--query", "p", "--data", files["facts.dl"],
            "--max-facts", "1",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "max_facts" in captured.err or "facts" in captured.err

    def test_a_local_abort_prints_what_client_prints_for_a_503(self, files, capsys):
        # One renderer for both: no "in <pred>" suffix the 503 body cannot carry.
        assert main([
            "run", files["program.dl"], "--query", "p", "--data", files["facts.dl"],
            "--max-facts", "1",
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "aborted: evaluate derived more than 1 facts"
        assert err[1].startswith("partial results: 40 facts derived in 0 iterations (")
        assert err[2:] == ["partial answers: 40 rows"]

    def test_fact_budget_binds_inside_one_explosive_rule(self, tmp_path, capsys):
        # 60^3 facts from one firing: the limit trips inside the join,
        # a stride past it, not after all 216 000 have been built.
        (tmp_path / "cross.dl").write_text("c(X, Y, Z) :- n(X), n(Y), n(Z).\n")
        (tmp_path / "n.dl").write_text("".join(f"n({i}). " for i in range(60)))
        code = main([
            "run", str(tmp_path / "cross.dl"), "--query", "c",
            "--data", str(tmp_path / "n.dl"), "--max-facts", "1000",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "aborted:" in captured.err and "more than 1000 facts" in captured.err
        assert "partial results:" in captured.err
        assert "216000" not in captured.err and "Traceback" not in captured.err

    def test_tiny_iteration_budget_exits_one(self, files, capsys):
        code = main([
            "run", files["program.dl"], "--query", "p", "--data", files["facts.dl"],
            "--max-iterations", "1",
        ])
        assert code == 1
        assert "partial" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.dl"), "--query", "p"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_query_exits_two(self, files, capsys):
        code = main(["run", files["program.dl"], "--data", files["facts.dl"]])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestPipelineBudget:
    def test_pipeline_with_tiny_timeout_exits_one(self, files, capsys):
        # A deadline that trips inside the rewrite ends like one that
        # trips inside evaluation: exit 1, ``aborted:``, no traceback —
        # and no program that could pass for the complete rewrite.
        code = main([
            "pipeline", files["program.dl"], "--constraints", files["ics.dl"],
            "--goal", "p(0, Y)", "--timeout", "0.000001",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "aborted:" in captured.err
        assert "Traceback" not in captured.err
        assert "final program" not in captured.out

    def test_magic_with_generous_budget_matches_unbudgeted(self, files, capsys):
        assert main([
            "magic", files["program.dl"], "--goal", "p(0, Y)",
        ]) == 0
        unbudgeted = capsys.readouterr().out
        assert main([
            "magic", files["program.dl"], "--goal", "p(0, Y)", "--timeout", "60",
        ]) == 0
        assert capsys.readouterr().out == unbudgeted
