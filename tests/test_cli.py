"""CLI tests: every command end to end via temp files."""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro import cli
from repro.cli import main
from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_facts, parse_program
from repro.robustness import Budget, ReproError
from repro.serve.registry import Tenant
from repro.serve.wire import parse_register

PROGRAM = """
p(X, Y) :- a(X, Y).
p(X, Y) :- b(X, Y).
p(X, Y) :- a(X, Z), p(Z, Y).
p(X, Y) :- b(X, Z), p(Z, Y).
"""

CONSTRAINTS = ":- a(X, Y), b(Y, Z)."

FACTS = """
a(3, 4). a(4, 5).
b(1, 2). b(2, 3).
"""

BAD_FACTS = FACTS + "\na(2, 1).\n"


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, content in {
        "program.dl": PROGRAM,
        "ics.dl": CONSTRAINTS,
        "facts.dl": FACTS,
        "bad_facts.dl": BAD_FACTS,
        "unsat.dl": "q(X) :- a(X, Y), b(Y, Z).",
        "ucq.dl": "p(X, Y) :- a(X, Z). p(X, Y) :- b(X, Z).",
    }.items():
        path = tmp_path / name
        path.write_text(content)
        paths[name] = str(path)
    return paths


class TestOptimize:
    def test_summary(self, files, capsys):
        assert main(["optimize", files["program.dl"], "--constraints", files["ics.dl"], "--query", "p"]) == 0
        out = capsys.readouterr().out
        assert "original rules: 4" in out
        assert "p_1" in out

    def test_explain(self, files, capsys):
        assert main([
            "optimize", files["program.dl"], "--constraints", files["ics.dl"],
            "--query", "p", "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "== Adornments ==" in out
        assert "== Query tree ==" in out
        assert "== Rewritten program P' ==" in out

    def test_unsatisfiable_program(self, files, capsys):
        assert main([
            "optimize", files["unsat.dl"], "--constraints", files["ics.dl"], "--query", "q",
        ]) == 0
        assert "unsatisfiable" in capsys.readouterr().out

    def test_query_required(self, files, capsys):
        code = main(["optimize", files["program.dl"], "--constraints", files["ics.dl"]])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_answers_printed(self, files, capsys):
        assert main([
            "run", files["program.dl"], "--query", "p", "--data", files["facts.dl"],
        ]) == 0
        out = capsys.readouterr().out
        assert "answers (10):" in out
        assert "p(1, 5)" in out

    def test_compare(self, files, capsys):
        assert main([
            "run", files["program.dl"], "--constraints", files["ics.dl"],
            "--query", "p", "--data", files["facts.dl"], "--compare",
        ]) == 0
        out = capsys.readouterr().out
        assert "optimized work:" in out
        assert "answers match" in out

    def test_data_file_joins_inline_facts_without_becoming_atoms(self, files, tmp_path, capsys, built):
        program = tmp_path / "inline.dl"
        program.write_text(PROGRAM + "a(3, 4). a(4, 5).\n")
        data = tmp_path / "big.dl"
        data.write_text("b(1, 2). b(2, 3).\n" + "".join(f"c({i}, {i + 1}).\n" for i in range(500)))
        assert main(["run", str(program), "--query", "p", "--data", str(data)]) == 0
        out = capsys.readouterr().out
        # The answers of FACTS, which holds the same a and b rows.
        assert main(["run", files["program.dl"], "--query", "p", "--data", files["facts.dl"]]) == 0
        assert out == capsys.readouterr().out and "answers (10):" in out
        ground = [a for a in built[Atom] if a.predicate in "abc" and a.is_ground()]
        # Inline facts came through the program parser; the rows of
        # either --data file were never atoms.
        assert ground == parse_facts("a(3, 4). a(4, 5).")

    @pytest.mark.parametrize("storage", ["rows", "columnar"])
    def test_mixed_arity_facts_are_an_input_error(self, files, tmp_path, capsys, storage):
        facts = tmp_path / "mixed.dl"
        facts.write_text("a(1, 2). a(1).")
        # Either backend refuses the load with the typed error main()
        # turns into exit 2; `run` loads into the first.
        with pytest.raises(ReproError, match="arity mismatch for a"):
            Database(parse_facts(facts.read_text()), storage=storage)
        code = main(["run", files["program.dl"], "--query", "p", "--data", str(facts)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: arity mismatch for a: expected 2, got 1\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "executor",
        [
            # what `run` does, the columnar storage by direct call, and
            # the governed run of `run --timeout`
            {"storage": "rows"},
            {"storage": "columnar"},
            {"storage": "rows", "budget": Budget(timeout=60)},
        ],
    )
    def test_mixed_family_comparison_is_an_input_error(self, tmp_path, capsys, executor):
        program = tmp_path / "order.dl"
        program.write_text("q(X) :- e(X, Y), Y < 3.")
        facts = tmp_path / "mixed.dl"
        facts.write_text('e(1, 2). e(2, "abc").')
        message = "values 'abc' and 3 are not order-comparable"
        # Every executor raises the typed error main() turns into exit 2...
        with pytest.raises(ReproError, match=message):
            evaluate(
                parse_program(program.read_text(), query="q"),
                Database(parse_facts(facts.read_text()), storage=executor["storage"]),
                budget=executor.get("budget"),
            )
        # ...and `run` reaches the first of them (the last with --timeout).
        code = main(["run", str(program), "--query", "q", "--data", str(facts)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCheck:
    def test_satisfied(self, files, capsys):
        assert main(["check", files["ics.dl"], "--data", files["facts.dl"]]) == 0
        assert "satisfied" in capsys.readouterr().out

    def test_violated(self, files, capsys):
        assert main(["check", files["ics.dl"], "--data", files["bad_facts.dl"]]) == 1
        assert "VIOLATED" in capsys.readouterr().out


class TestDecisionCommands:
    def test_satisfiable(self, files, capsys):
        assert main([
            "satisfiable", files["program.dl"], "--constraints", files["ics.dl"], "--query", "p",
        ]) == 0
        assert "satisfiable" in capsys.readouterr().out

    def test_unsatisfiable(self, files, capsys):
        assert main([
            "satisfiable", files["unsat.dl"], "--constraints", files["ics.dl"], "--query", "q",
        ]) == 1
        assert "unsatisfiable" in capsys.readouterr().out

    def test_empty(self, files, capsys):
        assert main(["empty", files["unsat.dl"], "--constraints", files["ics.dl"]]) == 1
        out = capsys.readouterr().out
        assert "empty" in out and "initialization rule" in out

    def test_nonempty(self, files, capsys):
        assert main(["empty", files["program.dl"], "--constraints", files["ics.dl"]]) == 0
        assert "nonempty" in capsys.readouterr().out

    def test_contained(self, files, capsys):
        assert main([
            "contained", files["program.dl"], "--query", "p", "--ucq", files["ucq.dl"],
        ]) == 0
        assert "contained" in capsys.readouterr().out


class TestOneWayToEvaluate:
    """No front door selects an engine, a plan order, a storage backend,
    a strategy, a worker count or a sideways order."""

    REMOVED = {
        "--engine", "--plan-order", "--storage", "--strategy",
        "--workers", "--worker-retries", "--sips",
    }

    def test_no_subparser_registers_a_removed_option(self):
        def walk(parser):
            for action in parser._actions:
                yield from action.option_strings
                if isinstance(action, argparse._SubParsersAction):
                    for child in action.choices.values():
                        yield from walk(child)

        registered = set(walk(cli.build_parser()))
        assert "--timeout" in registered  # the walk does reach the leaves
        assert not registered & self.REMOVED

    def test_a_removed_option_is_a_usage_error(self, files, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["run", files["program.dl"], "--query", "p", "--engine", "interpreted"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --engine interpreted" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "prog.dl", "--goal", "p(1, Y)", "--sips", "most-bound"],
            ["magic", "prog.dl", "--goal", "p(1, Y)", "--sips", "left-to-right"],
            ["client", "query", "t", "--goal", "p(1, Y)", "--sips", "most-bound"],
        ],
        ids=["pipeline", "magic", "client-query"],
    )
    def test_sips_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --sips" in err and "Traceback" not in err

    def test_inspect_payloads_name_no_selector(self, files, tmp_path, capsys):
        assert main([
            "session", "inspect", files["program.dl"], "--query", "p",
            "--data", files["facts.dl"], "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]) == 0
        inspected = json.loads(capsys.readouterr().out)
        request = parse_register({"program": PROGRAM, "query": "p", "facts": FACTS})
        info = Tenant("alpha", request).info()
        for payload in (inspected, info):
            assert not {"engine", "storage", "strategy", "workers"} & set(payload)


class TestSessionRoundTrips:
    """``session run`` / ``session ingest`` with every step a fresh
    process over the *initial* files and one checkpoint directory: no
    acknowledged fact is ever lost, no valid checkpoint ever renamed."""

    CLOSURE = "p(X, Y) :- e(X, Y).\np(X, Z) :- e(X, Y), p(Y, Z).\n"

    @pytest.fixture()
    def session(self, tmp_path):
        (tmp_path / "prog.dl").write_text(self.CLOSURE)
        (tmp_path / "data.dl").write_text("e(1, 2). e(2, 3).\n")
        (tmp_path / "f1.dl").write_text("e(3, 4).\n")
        (tmp_path / "f2.dl").write_text("e(4, 5).\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))

        def step(verb, facts=None, ckpt="ckpt"):
            done = subprocess.run(
                [
                    sys.executable, "-m", "repro", "session", verb,
                    str(tmp_path / "prog.dl"), "--query", "p",
                    "--data", str(tmp_path / "data.dl"),
                    "--checkpoint-dir", str(tmp_path / ckpt),
                    *(["--facts", str(tmp_path / facts)] if facts else []),
                ],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            assert not list((tmp_path / ckpt).glob("*.corrupt*"))
            mode = next(
                line for line in done.stdout.splitlines() if line.startswith("mode: ")
            )
            return mode.split()[1], sum(
                line.startswith("  p(") for line in done.stdout.splitlines()
            )

        return step

    def test_an_ingested_fact_survives_a_restart_and_a_second_ingest(
        self, session, tmp_path
    ):
        assert session("run") == ("fresh", 3)
        assert session("ingest", "f1.dl") == ("incremental", 6)
        shutil.copytree(tmp_path / "ckpt", tmp_path / "twin")
        # a restart straight after the ingest ...
        assert session("run") == ("recovered", 6)
        # ... and, in a directory that saw no restart, a second ingest
        assert session("ingest", "f2.dl", ckpt="twin") == ("incremental", 10)
        assert session("run", ckpt="twin") == ("recovered", 10)

    @pytest.mark.parametrize(
        "argv",
        [
            ["session", "resume", "prog.dl", "--checkpoint-dir", "d"],
            ["session", "recover", "prog.dl", "--checkpoint-dir", "d"],
            ["session", "run", "prog.dl", "--checkpoint-dir", "d", "--throttle", "0.1"],
            ["session", "run", "prog.dl", "--checkpoint-dir", "d", "--no-journal"],
            ["session", "run", "prog.dl", "--checkpoint-dir", "d", "--checkpoint-every", "1"],
            ["session", "ingest", "prog.dl", "--checkpoint-dir", "d", "--facts", "f.dl",
             "--checkpoint-every", "0"],
            ["session", "inspect", "prog.dl", "--checkpoint-dir", "d", "--checkpoint-every", "1"],
        ],
    )
    def test_the_removed_verbs_and_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err


class TestClientQuery:
    """``client query`` sends ``mode``/``order`` only when given, so a
    plain query takes whatever the daemon's default is."""

    @pytest.mark.parametrize(
        "flags, sent",
        [
            ([], {}),
            (["--mode", "magic"], {"mode": "magic"}),
            (["--mode", "materialized"], {"mode": "materialized"}),
            (["--order", "magic-first"], {"order": "magic-first"}),
        ],
    )
    def test_payload_names_only_the_flags_given(self, flags, sent, monkeypatch, capsys):
        from repro.serve.client import ServeClient

        requests = []
        monkeypatch.setattr(
            ServeClient, "request",
            lambda self, method, path, payload=None: requests.append(payload) or {},
        )
        assert main(["client", "query", "t", "--goal", "p(1, Y)", *flags]) == 0
        assert requests == [{"goal": "p(1, Y)", **sent}]

    def test_an_order_on_a_materialized_query_exits_2(self, monkeypatch, capsys):
        import asyncio

        from repro.serve.app import ServeApp
        from repro.serve.client import ServeClient, ServeClientError

        app = ServeApp()

        def request(self, method, path, payload=None):
            status, body = asyncio.run(app.handle(method, path, payload))
            if status >= 400:
                raise ServeClientError(status, body)
            return body

        monkeypatch.setattr(ServeClient, "request", request)
        program = "p(X, Y) :- e(X, Y).\ne(1, 2)."
        assert asyncio.run(app.handle("PUT", "/programs/t", {"program": program}))[0] == 200
        code = main([
            "client", "query", "t", "--goal", "p(1, Y)",
            "--mode", "materialized", "--order", "magic-first",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'order'" in err


class TestBenchPassThrough:
    """``repro bench <args>`` is ``python perf/run.py <args>``."""

    def test_smoke_run_ends_in_the_result_line(self, capfd):
        code = main(["bench", "--smoke", "--workload", "rewrite_compile", "--trace", "0"])
        assert code == 0
        last = capfd.readouterr().out.strip().splitlines()[-1]
        assert set(json.loads(last)) == {"correct", "attempted", "failed", "metrics"}

    def test_without_a_checkout_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "__file__", str(tmp_path / "src" / "repro" / "cli.py"))
        assert main(["bench", "--smoke"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "perf/run.py" in err
        assert "Traceback" not in err
