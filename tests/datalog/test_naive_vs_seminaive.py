"""Naive evaluation as the correctness oracle for the semi-naive engine.

The oracle is naive rounds over the joins of ``perf/reference.py``, the
benchmark's independent model, reached through
``tests/reference_model.py`` — the adapter every fixpoint comparison in
the suite uses.  The last two tests keep it independent: neither the
model nor the adapter may reach into the code they check.
"""

import ast
import inspect
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_model
from reference_model import model_fixpoint
from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_program

PROGRAMS = {
    "tc": """
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, Z), t(Z, Y).
    """,
    "nonlinear_tc": """
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), t(Z, Y).
    """,
    "mutual": """
        even(X) :- zero(X).
        even(Y) :- succ(X, Y), odd(X).
        odd(Y) :- succ(X, Y), even(X).
    """,
    "negation_and_order": """
        up(X, Y) :- e(X, Y), X < Y, not blocked(X).
        up(X, Y) :- e(X, Z), X < Z, up(Z, Y).
    """,
}


def _random_database(seed: int) -> Database:
    rng = random.Random(seed)
    return Database.from_rows(
        {
            "e": {(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(10)},
            "zero": [(0,)],
            "succ": [(i, i + 1) for i in range(5)],
            "blocked": {(rng.randint(0, 5),) for _ in range(2)},
        }
    )


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_strategies_agree(name, seed):
    program = parse_program(PROGRAMS[name])
    database = _random_database(seed)
    expected = model_fixpoint(program, database, naive=True)
    result = evaluate(program, database)
    assert {predicate: result.rows(predicate) for predicate in expected} == expected


def test_seminaive_does_less_work_on_chains():
    # A 30-edge chain: 465 facts.  The engine's naive loop, before it
    # left, scanned 19 345 rows for them.
    program = parse_program(PROGRAMS["tc"])
    database = Database.from_rows({"e": [(i, i + 1) for i in range(30)]})
    semi = evaluate(program, database)
    assert semi.rows("t") == model_fixpoint(program, database, naive=True)["t"]
    assert len(semi.rows("t")) == 465
    assert semi.stats.rows_scanned == 930


def test_unknown_strategy_rejected():
    # There is one strategy: ``evaluate`` has no keyword to choose one.
    assert "strategy" not in inspect.signature(evaluate).parameters
    program = parse_program(PROGRAMS["tc"])
    with pytest.raises(TypeError):
        evaluate(program, Database(), strategy="naive")


def test_the_model_imports_nothing_from_repro():
    path = Path(reference_model.__file__).resolve().parent.parent / "perf" / "reference.py"
    tree = ast.parse(path.read_text())
    modules = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    } | {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "re" in modules
    assert not {module for module in modules if module.split(".")[0] == "repro"}


#: Every attribute the adapter may name: the IR fields it reads and
#: ``Database.facts``, the model's own API, and the import machinery
#: that loads it.  No evaluator, parser, ``Relation.probe`` or plan.
ADAPTER_ATTRIBUTES = {
    "rules", "head", "body", "atom", "positive", "predicate", "args",
    "op", "left", "right", "name", "value", "facts",
    "Fixpoint", "Var", "_Plan", "_bind", "_value", "_COMPARE", "delta_pred",
    "idb", "negated", "plans", "rel", "index", "_settled", "add", "rows",
    "add_naively", "_insert", "_fire", "items", "setdefault", "append",
    "util", "spec_from_file_location", "module_from_spec", "loader",
    "exec_module", "resolve", "parent",
}


def test_the_adapter_reads_ir_fields_only():
    tree = ast.parse(Path(reference_model.__file__).read_text())
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {pair for pair in imported if pair[0].startswith("repro")} == {
        ("repro.datalog.atoms", "Literal"),
        ("repro.datalog.terms", "Variable"),
    }
    assert not [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("repro")
    ]
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert attributes <= ADAPTER_ATTRIBUTES, attributes - ADAPTER_ATTRIBUTES
