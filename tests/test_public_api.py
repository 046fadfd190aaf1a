"""Integration tests through the top-level public API only."""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import (
    Database,
    IntegrityConstraint,
    evaluate,
    evaluate_query,
    is_empty_program,
    is_query_reachable,
    is_satisfiable,
    optimize,
    parse_atom,
    parse_constraints,
    parse_facts,
    parse_program,
    program_contained_in_ucq,
)


class TestVersionAndExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        # Every subpackage too: a name missing from a lazy-export table
        # fails here, not on a caller's first use.
        packages = [repro] + [
            importlib.import_module(f"repro.{info.name}")
            for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg
        ]
        assert len(packages) > 1
        for package in packages:
            for name in package.__all__:
                assert getattr(package, name) is not None, f"{package.__name__}.{name}"

    def test_evaluation_options_are_pinned(self):
        # An option added later shows up here, in the diff.
        from repro.parallel import evaluate_sharded

        def keyword_only(function):
            return [
                name
                for name, parameter in inspect.signature(function).parameters.items()
                if parameter.kind is inspect.Parameter.KEYWORD_ONLY
            ]

        assert keyword_only(evaluate) == ["tracer", "budget", "cancellation"]
        assert keyword_only(evaluate_sharded) == [
            "workers", "pool", "tracer", "budget", "cancellation", "supervision"
        ]
        datalog = importlib.import_module("repro.datalog")
        for name in ("derivation_tree", "DerivationNode"):
            assert name not in datalog.__all__ and not hasattr(datalog, name)

    def test_the_magic_artifact_cache_is_gone(self):
        magic = importlib.import_module("repro.magic")
        for name in ("CACHEABLE_ORDERS", "artifact_key", "specialize_pipeline"):
            assert name not in magic.__all__ and not hasattr(magic, name)
        serve = importlib.import_module("repro.serve")
        assert "ArtifactCache" not in serve.__all__ and not hasattr(serve, "ArtifactCache")
        with pytest.raises(ImportError):
            importlib.import_module("repro.serve.cache")


class TestEndToEnd:
    def test_full_workflow(self):
        program = parse_program(
            """
            path(X, Y) :- step(X, Y).
            path(X, Y) :- step(X, Z), path(Z, Y).
            goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).
            """,
            query="goodPath",
        )
        constraints = parse_constraints(
            """
            :- startPoint(X), endPoint(Y), Y <= X.
            :- step(X, Y), X >= Y.
            """
        )
        database = Database(
            parse_facts(
                "step(1, 2). step(2, 3). startPoint(1). endPoint(3)."
            )
        )
        report = optimize(program, constraints)
        assert report.satisfiable
        assert report.evaluate(database) == evaluate(program, database).query_rows()
        assert report.evaluate(database) == {(1, 3)}

    def test_decision_procedures(self):
        program = parse_program("q(X) :- a(X, Y), b(Y, Z).", query="q")
        constraints = parse_constraints(":- a(X, Y), b(Y, Z).")
        assert not is_satisfiable(program, constraints)
        assert is_empty_program(program, constraints)
        assert not is_query_reachable(program, constraints, parse_atom("q(U)"))

    def test_containment_api(self):
        from repro.cq import ConjunctiveQuery, UnionOfConjunctiveQueries
        from repro.datalog import parse_rule

        program = parse_program(
            "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).", query="t"
        )
        union = UnionOfConjunctiveQueries(
            (ConjunctiveQuery.from_rule(parse_rule("t(X, Y) :- e(X, Z).")),)
        )
        assert program_contained_in_ucq(program, union)

    def test_constraint_construction_from_api(self):
        from repro.datalog import Atom, Literal, Variable

        X = Variable("X")
        ic = IntegrityConstraint(
            (Literal(Atom("a", (X,))), Literal(Atom("b", (X,))))
        )
        db = Database(parse_facts("a(1). b(2)."))
        from repro.constraints import database_satisfies

        assert database_satisfies([ic], db)

    def test_evaluate_query_helper(self):
        program = parse_program("q(X) :- e(X, X).", query="q")
        db = Database(parse_facts("e(1, 1). e(1, 2)."))
        assert evaluate_query(program, db) == {(1,)}
