"""The bottom-up fixpoint does each piece of work once.

Every rule's EDB subgoals get their base triplets computed once per
``compute_adornments`` call, a round enumerates only the adornment
choices that are new for a rule, and the adorned rules are found by an
index — all without changing which adorned predicates ``p@k`` arise, in
which order.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.adornments as adornments
import repro.core.local_atoms as local_atoms
import repro.core.rewrite as rewrite
from repro.core.adornments import compute_adornments
from repro.core.rewrite import optimize
from repro.datalog.parser import parse_constraints, parse_program
from repro.workloads.programs import (
    ab_transitive_closure,
    flight_routes,
    good_path,
    good_path_order_constraints,
    taint_analysis,
)


def five_colours():
    names = [f"e{i}" for i in range(5)]
    rules = []
    for name in names:
        rules += [f"p(X, Y) :- {name}(X, Y).", f"p(X, Y) :- {name}(X, Z), p(Z, Y)."]
    ics = [f":- {a}(X, Y), {b}(Y, Z)." for a, b in zip(names, names[1:])]
    return parse_program("\n".join(rules), query="p"), parse_constraints("\n".join(ics))


WORKLOADS = {
    "figure1": ab_transitive_closure,
    "example31": good_path,
    "goodpath_order": good_path_order_constraints,
    "flight": flight_routes,
    "taint": taint_analysis,
    "colours5": five_colours,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_base_triplets_once_per_rule_and_edb_subgoal(name, monkeypatch):
    """Within one ``compute_adornments`` call (``optimize`` makes one for
    the quasi-local test of a local ic, and one for the rewrite)."""
    calls: list[list] = []
    base_triplets, compute = adornments.base_triplets, adornments.compute_adornments

    def counted(occurrence, rule, *args):
        calls[-1].append((rule, occurrence))
        return base_triplets(occurrence, rule, *args)

    def one_call(*args, **kwargs):
        calls.append([])
        return compute(*args, **kwargs)

    monkeypatch.setattr(adornments, "base_triplets", counted)
    monkeypatch.setattr(local_atoms, "compute_adornments", one_call)
    monkeypatch.setattr(rewrite, "compute_adornments", one_call)
    optimize(*WORKLOADS[name]())
    assert calls[-1], "the workload has EDB subgoals"
    for made in calls:
        assert len(made) == len(set(made))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rules_for_equals_the_linear_scan(name):
    result = optimize(*WORKLOADS[name]()).adornment_result
    keys = list(result.adornment_ids) + [("nowhere", frozenset())]
    for predicate, adornment in keys:
        assert result.rules_for(predicate, adornment) == [
            adorned
            for adorned in result.adorned_rules
            if adorned.rule.head.predicate == predicate
            and adorned.head_adornment == adornment
        ]


def adorned_names(result):
    """Each adorned rule as ``(head p@k, body names)``, in order."""
    rows = []
    for adorned in result.adorned_rules:
        body = tuple(
            literal.predicate if sub is None else result.adorned_name(literal.predicate, sub)
            for literal, sub in zip(adorned.rule.positive_literals, adorned.subgoal_adornments)
        )
        rows.append((result.adorned_name(adorned.rule.head.predicate, adorned.head_adornment), body))
    return rows


def test_figure1_adorned_names():
    result = optimize(*ab_transitive_closure()).adornment_result
    assert adorned_names(result) == [
        ("p@1", ("a",)),
        ("p@2", ("b",)),
        ("p@1", ("a", "p@1")),
        ("p@3", ("b", "p@1")),
        ("p@2", ("b", "p@2")),
        ("p@3", ("b", "p@3")),
    ]


def test_example31_adorned_names():
    result = optimize(*good_path()).adornment_result
    assert adorned_names(result) == [
        ("path@1", ("step",)),
        ("path@1", ("step", "path@1")),
        ("goodPath@1", ("startPoint", "path@1", "endPoint")),
    ]
    result = optimize(*good_path_order_constraints()).adornment_result
    assert adorned_names(result) == [
        ("path@1", ("step",)),
        ("path@2", ("step",)),
        ("path@1", ("step", "path@1")),
        ("path@1", ("step", "path@2")),
        ("path@2", ("step", "path@1")),
        ("path@2", ("step", "path@2")),
        ("goodPath@1", ("startPoint", "path@2", "endPoint")),
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=3)
)
def test_new_choices_are_the_unseen_product_in_order(growth):
    """``_new_choices`` lists exactly the index tuples a full product
    would add since the last visit, in the full product's order."""
    seen = tuple(1 + old for old, _ in growth)
    sizes = tuple(1 + old + extra for old, extra in growth)
    full = list(itertools.product(*map(range, sizes)))
    assert list(adornments._new_choices(None, sizes)) == full
    if seen != sizes:
        unseen = [t for t in full if any(i >= s for i, s in zip(t, seen))]
        assert list(adornments._new_choices(seen, sizes)) == unseen


def test_frontier_table_names_shared_and_unmapped_variables():
    (ic,) = parse_constraints(":- a(X, Y), b(Y, Z), c(Z, W).")
    table = adornments.FrontierTable([ic])
    frontier = table[(0, frozenset({1}))]
    assert frontier.names == {"Y", "Z"}
    assert {v.name for v in frontier.variables} == {"Y", "Z"}
    assert frontier.unmapped_names == {"Y", "Z"}
    assert table[(0, frozenset({0, 1, 2}))].names == frozenset()
    assert table[(0, frozenset({1}))] is frontier
