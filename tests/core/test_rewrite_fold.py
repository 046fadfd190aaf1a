"""``P'`` copies nothing (ROADMAP item 4, first step).

A query predicate with one surviving class takes that class's rules
under its own name, an IDB predicate that only renames an EDB relation
is read as that relation, and a query predicate over several classes
keeps its bridges but is a union view, which evaluation never fills.
So with no applicable ic ``optimize`` returns ``P`` up to renaming, and
on the canonical workloads ``P'`` answers as ``P`` does.
"""

import re

import pytest

from repro.core.rewrite import optimize
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_program
from repro.datalog.terms import Variable
from repro.workloads import programs as families
from repro.workloads.generators import (
    ab_database,
    flight_database,
    good_path_database,
    same_generation_database,
    taint_database,
)

#: Naughton's bounded-recursion example: ``buys`` need not recurse.
BUYS = parse_program(
    "buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).",
    query="buys",
)

PROGRAMS = {
    **{name: (lambda name=name: getattr(families, name)()[0]) for name in families.__all__},
    "buys": lambda: BUYS,
}


def _shape(program, rename):
    """The rules as a multiset of canonical keys, predicates renamed."""

    def rule_key(rule):
        slots: dict = {}

        def term(t):
            return ("v", slots.setdefault(t, len(slots))) if isinstance(t, Variable) else t

        def atom(predicate, args):
            return rename.get(predicate, predicate), tuple(map(term, args))

        body = tuple(
            (item.positive, *atom(item.predicate, item.args))
            if hasattr(item, "positive")
            else (item.op, term(item.left), term(item.right))
            for item in rule.body
        )
        return atom(rule.head.predicate, rule.head.args), body

    return sorted(map(rule_key, program.rules), key=repr)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_no_applicable_ic_returns_the_program_up_to_renaming(name):
    program = PROGRAMS[name]()
    rewritten = optimize(program, []).program
    assert rewritten.query == program.query
    # Each class is named ``<predicate>_<k>``, the query's own class
    # after the query predicate itself.
    rename = {p: re.sub(r"_\d+x*$", "", p) for p in rewritten.idb_predicates}
    assert sorted(rename.values()) == sorted(program.idb_predicates)
    assert len(rewritten.rules) == len(program.rules)
    assert _shape(rewritten, rename) == _shape(program, {})


def test_a_single_class_takes_the_query_predicates_name():
    program, constraints = families.good_path()
    rewritten = optimize(program, constraints).program
    assert repr(rewritten).splitlines()[0] == (
        "goodPath(V0, V1) :- startPoint(V0), path_1(V0, V1), endPoint(V1), V1 > V0."
    )
    assert "goodPath_1" not in rewritten.idb_predicates
    assert rewritten.union_views == {}


def test_an_edb_renaming_is_read_as_the_relation():
    program, constraints = families.same_generation()
    rewritten = optimize(program, constraints).program
    assert "sg_1" not in repr(rewritten)
    assert (
        "sg_2(V0, V1) :- parent(V0, XP), sibling(XP, YP), parent(V1, YP)."
        in repr(rewritten)
    )
    assert rewritten.idb_predicates == {"query", "sg_2"}


def test_several_classes_keep_their_bridges_as_a_union_view():
    program, constraints = families.ab_transitive_closure()
    report = optimize(program, constraints)
    rewritten = report.program
    assert [repr(r) for r in rewritten.rules_for("p")] == [
        f"p(V0, V1) :- p_{k}(V0, V1)." for k in (1, 2, 3)
    ]
    assert rewritten.union_views == {"p": ("p_1", "p_2", "p_3")}
    assert "% p is read as the union of p_1, p_2, p_3" in report.explain()


#: name -> (program factory, small consistent database by seed)
PROPERTY = {
    "ab": (
        families.ab_transitive_closure,
        lambda seed: ab_database(num_b=8, num_a=8, seed=seed),
    ),
    "goodpath": (
        families.good_path_order_constraints,
        lambda seed: good_path_database(num_chains=3, chain_length=8, seed=seed),
    ),
    "sg": (
        families.same_generation,
        lambda seed: same_generation_database(depth=3, fanout=2, seed=seed),
    ),
    "taint": (families.taint_analysis, lambda seed: taint_database(seed=seed)),
    "flight": (families.flight_routes, lambda seed: flight_database(seed=seed)),
}

#: Where ``P'`` still derives more than ``P``: not a copy, but a row
#: that two classes of one predicate both hold — a source reached by a
#: flow is in ``taint_1`` and ``taint_2``; a route is in up to four
#: ``route_k`` (seed 0: 46 facts against 42, and 936 against 403).
#: Choosing between ``P`` and ``P'`` is ROADMAP item 4's second step.
OVERLAPPING = {"taint", "flight"}


def _runs(name, seed):
    factory, database_of = PROPERTY[name]
    program, constraints = factory()
    rewritten = optimize(program, constraints).program
    database = database_of(seed)
    return evaluate(program, database.copy()), evaluate(rewritten, database.copy())


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("name", sorted(PROPERTY))
def test_rewritten_answers_equal_the_originals(name, seed):
    original, rewritten = _runs(name, seed)
    assert rewritten.query_rows() == original.query_rows()


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(
                strict=True, reason="classes of one predicate overlap"
            ),
        )
        if name in OVERLAPPING
        else name
        for name in sorted(PROPERTY)
    ],
)
def test_rewritten_derives_no_more_facts_than_the_original(name, seed):
    original, rewritten = _runs(name, seed)
    assert rewritten.stats.facts_derived <= original.stats.facts_derived
