"""CLI coverage for the ``magic`` and ``pipeline`` commands."""

import pytest

from repro.cli import main

PROGRAM = """
p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
"""

CONSTRAINTS = ":- e(X, Y), blocked(X)."

FACTS = "e(1, 2). e(2, 3). e(10, 11)."


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, content in {
        "program.dl": PROGRAM,
        "ics.dl": CONSTRAINTS,
        "facts.dl": FACTS,
    }.items():
        path = tmp_path / name
        path.write_text(content)
        paths[name] = str(path)
    return paths


class TestMagicCommand:
    def test_summary_and_program(self, files, capsys):
        assert main(["magic", files["program.dl"], "--goal", "p(1, Y)"]) == 0
        out = capsys.readouterr().out
        assert "m_p__bf(1)" in out
        assert "p__bf(X, Y) :- m_p__bf(X), e(X, Y)." in out

    def test_answers_and_compare(self, files, capsys):
        assert main([
            "magic", files["program.dl"], "--goal", "p(1, Y)",
            "--data", files["facts.dl"], "--compare",
        ]) == 0
        out = capsys.readouterr().out
        assert "answers (2):" in out
        assert "p(1, 2)" in out and "p(1, 3)" in out
        assert "magic work:" in out
        assert "original work:" in out
        assert "answers match" in out

    def test_bad_goal_exits(self, files, capsys):
        assert main(["magic", files["program.dl"], "--goal", "p(1,"]) == 2
        assert "cannot parse --goal" in capsys.readouterr().err


class TestPipelineCommand:
    @pytest.mark.parametrize(
        "order", ["semantic-first", "magic-first", "magic-only", "semantic-only"]
    )
    def test_orders_compare_clean(self, files, capsys, order):
        assert main([
            "pipeline", files["program.dl"], "--constraints", files["ics.dl"],
            "--goal", "p(1, Y)", "--order", order,
            "--data", files["facts.dl"], "--compare",
        ]) == 0
        out = capsys.readouterr().out
        assert f"pipeline order: {order}" in out
        assert "answers match" in out

    def test_no_constraints_defaults_to_magic_pruning(self, files, capsys):
        assert main([
            "pipeline", files["program.dl"], "--goal", "p(10, Y)",
            "--data", files["facts.dl"],
        ]) == 0
        out = capsys.readouterr().out
        assert "answers (1):" in out
        assert "p(10, 11)" in out

    def test_unsatisfiable_query(self, files, tmp_path, capsys):
        unsat = tmp_path / "unsat.dl"
        unsat.write_text("q(X) :- s(X), bad(X).")
        ics = tmp_path / "unsat_ics.dl"
        ics.write_text(":- s(X), bad(X).")
        assert main([
            "pipeline", str(unsat), "--constraints", str(ics), "--goal", "q(1)",
        ]) == 0
        out = capsys.readouterr().out
        assert "query unsatisfiable" in out


class TestCompareFlag:
    """``P`` is the 4-5x larger fixpoint on a bound goal: without
    ``--compare`` only the transformed program is evaluated."""

    @pytest.fixture()
    def evaluations(self, monkeypatch):
        import repro.cli as cli
        import repro.magic.pipeline as pipeline

        seen = []
        for module in (cli, pipeline):
            original = module.evaluate

            def counting(program, *args, _original=original, **kwargs):
                seen.append(program.query)
                return _original(program, *args, **kwargs)

            monkeypatch.setattr(module, "evaluate", counting)
        return seen

    @pytest.mark.parametrize("command", ["magic", "pipeline"])
    def test_original_runs_only_under_compare(
        self, files, capsys, evaluations, command
    ):
        argv = [command, files["program.dl"], "--goal", "p(1, Y)", "--data", files["facts.dl"]]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert evaluations == ["p__bf"]
        assert "original work:" not in plain
        del evaluations[:]
        assert main(argv + ["--compare"]) == 0
        compared = capsys.readouterr().out
        assert evaluations == ["p", "p__bf"]
        # --compare only appends: same answers, same work line.
        assert compared.startswith(plain)
        assert "answers match" in compared
