"""Shared harness for the benchmark suite.

Two consumers:

* each module's ``experiment()`` — the deterministic section of the
  regenerated ``EXPERIMENTS.md`` (``python -m repro report
  --regenerate``), built from seeded work counters only, and
* the plain assertion tests beside it (``pytest benchmarks -q``), which
  pin the claim the section's narrative makes.

Timings are not measured here: ``perf/`` is the repo's one benchmark.

Workload builders shared by several bench modules, scripts and docs
(the colored-closure family, the bound-query magic workloads, the
serving tenants) live here so all reference one definition.
"""

import random

from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_constraints, parse_program
from repro.datalog.terms import Constant, Variable
from repro.observability import Experiment, md_table, work_ratio_table
from repro.workloads.generators import (
    ab_database,
    good_path_database,
    same_generation_database,
)
from repro.workloads.programs import (
    ab_transitive_closure,
    good_path_order_constraints,
    same_generation,
)

__all__ = [
    "Experiment",
    "md_table",
    "work_ratio_table",
    "bound_atom",
    "colored_closure",
    "magic_workloads",
    "serve_workloads",
    "stats_variants",
]


def bound_atom(predicate: str, constant, arity: int = 2) -> Atom:
    """``p(c, V1, ..)``: first argument bound, the rest free."""
    args = (Constant(constant),) + tuple(Variable(f"V{i}") for i in range(arity - 1))
    return Atom(predicate, args)


def colored_closure(colors: int):
    """Transitive closure over ``colors`` edge predicates with chained
    forbidden-successor constraints e0-after-e1, e1-after-e2, ...

    The knob behind Theorem 5.1's doubly exponential bound: each extra
    color multiplies the triplet combinatorics of the bottom-up phase.
    """
    names = [f"e{i}" for i in range(colors)]
    rules = []
    for name in names:
        rules.append(f"p(X, Y) :- {name}(X, Y).")
        rules.append(f"p(X, Y) :- {name}(X, Z), p(Z, Y).")
    program = parse_program("\n".join(rules), query="p")
    ic_lines = []
    for first, second in zip(names, names[1:]):
        ic_lines.append(f":- {first}(X, Y), {second}(Y, Z).")
    constraints = parse_constraints("\n".join(ic_lines)) if ic_lines else []
    return program, constraints


def magic_workloads():
    """The three bound-query workloads of E11, seeded and ordered.

    Yields ``(name, program, constraints, database, query_atom)``.
    """
    program, ics = ab_transitive_closure()
    db = ab_database(num_b=40, num_a=40, branching=2, seed=0)
    yield "ab", program, ics, db, bound_atom("p", 0)

    program, ics = good_path_order_constraints()
    db = good_path_database(num_chains=4, chain_length=20, seed=0)
    start = min(row[0] for row in db.relation("startPoint", 1))
    yield "goodPath", program, ics, db, bound_atom("goodPath", start)

    program, ics = same_generation()
    db = same_generation_database(depth=5, fanout=2, seed=0)
    yield "sg", program, ics, db, bound_atom("query", 2)


def serve_workloads(quick: bool) -> dict[str, dict]:
    """Two tenant workloads for the serving experiment (E12).

    Each is a recursive closure over a seeded random edge set, shipped
    as program/facts *text* (the daemon's wire format) together with
    the goals the clients send.  Per tenant the bound-first goals share
    one adornment, so their magic programs differ in the seed alone."""

    def edge_facts(predicate: str, nodes: int, edges: int, seed: int) -> str:
        rng = random.Random(seed)
        rows: set[tuple[int, int]] = set()
        while len(rows) < edges:
            left = rng.randrange(nodes - 1)
            rows.add((left, rng.randrange(left + 1, nodes)))
        return "\n".join(f"{predicate}({l}, {r})." for l, r in sorted(rows))

    nodes, edges = (18, 30) if quick else (40, 90)
    return {
        "alpha": {
            "program": "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).",
            "query": "p",
            "facts": edge_facts("e", nodes, edges, seed=11),
            "goals": ["p(0, V)", "p(1, V)", "p(2, V)", f"p(0, {nodes - 1})"],
        },
        "beta": {
            "program": "q(X, Y) :- f(X, Y).\nq(X, Y) :- f(X, Z), q(Z, Y).",
            "query": "q",
            "facts": edge_facts("f", nodes, edges, seed=23),
            "goals": ["q(0, V)", "q(3, V)", "q(5, V)", f"q(1, {nodes - 1})"],
        },
    }


def stats_variants(rows):
    """``[(label, EvaluationResult)] -> work_ratio_table`` input."""
    return [(label, result.stats.as_dict()) for label, result in rows]
