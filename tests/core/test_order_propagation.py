"""Order-propagation (LMSS93-style preprocessing) tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.constraints.dense_order as dense_order
import repro.core.order_propagation as order_propagation
import repro.core.rewrite as rewrite
from repro.core.order_propagation import normalize_rule, propagate_order_constraints
from repro.core.rewrite import optimize
from repro.datalog.atoms import OrderAtom
from repro.datalog.parser import parse_constraints, parse_program, parse_rule
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.workloads.generators import random_program
from repro.workloads.programs import flight_routes


class TestNormalizeRule:
    def test_unsatisfiable_rule_dropped(self):
        assert normalize_rule(parse_rule("q(X) :- e(X, Y), X < Y, Y < X.")) is None

    def test_forced_equality_substituted(self):
        rule = normalize_rule(parse_rule("q(X, Y) :- e(X, Y), X <= Y, Y <= X."))
        assert rule is not None
        assert rule.head.args[0] == rule.head.args[1]

    def test_constant_equality_substituted(self):
        rule = normalize_rule(parse_rule("q(X) :- e(X), X = 5."))
        assert rule is not None
        assert rule.head.args[0] == Constant(5)

    def test_untouched_when_clean(self):
        rule = parse_rule("q(X) :- e(X, Y), X < Y.")
        assert normalize_rule(rule) == rule


class TestPropagation:
    def test_projection_of_simple_filter(self):
        program = parse_program("q(X) :- e(X), X > 10.", query="q")
        outcome = propagate_order_constraints(program)
        projection = outcome.projection("q")
        assert projection is not None
        placeholder = Variable("__a0")
        assert any(
            atom.normalized() == OrderAtom(placeholder, ">", Constant(10)).normalized()
            for atom in projection
        )

    def test_context_unsat_rule_pruned(self):
        program = parse_program(
            """
            base(X) :- e(X), X > 10.
            q(X) :- base(X), X < 5.
            """,
            query="q",
        )
        outcome = propagate_order_constraints(program)
        assert not outcome.program.rules_for("q")
        assert outcome.projection("q") is None

    def test_projection_intersects_across_rules(self):
        program = parse_program(
            """
            q(X) :- e(X), X > 10.
            q(X) :- f(X), X > 3.
            """,
            query="q",
        )
        outcome = propagate_order_constraints(program)
        projection = outcome.projection("q")
        placeholder = Variable("__a0")
        # Only the weaker bound X > 3 survives the meet.
        atoms = {a.normalized() for a in projection}
        assert OrderAtom(Constant(3), "<", placeholder).normalized() in atoms
        assert OrderAtom(Constant(10), "<", placeholder).normalized() not in atoms

    def test_push_into_callers(self):
        program = parse_program(
            """
            base(X) :- e(X), X > 10.
            q(X, Y) :- base(X), g(X, Y).
            """,
            query="q",
        )
        outcome = propagate_order_constraints(program, push=True)
        q_rule = outcome.program.rules_for("q")[0]
        assert any(
            atom.normalized() == OrderAtom(Constant(10), "<", Variable("X")).normalized()
            for atom in q_rule.order_atoms
        )

    def test_no_push_option(self):
        program = parse_program(
            """
            base(X) :- e(X), X > 10.
            q(X, Y) :- base(X), g(X, Y).
            """,
            query="q",
        )
        outcome = propagate_order_constraints(program, push=False)
        assert not outcome.program.rules_for("q")[0].order_atoms

    def test_recursive_fixpoint_terminates(self):
        program = parse_program(
            """
            up(X, Y) :- e(X, Y), X < Y.
            up(X, Y) :- e(X, Z), X < Z, up(Z, Y).
            """,
            query="up",
        )
        outcome = propagate_order_constraints(program)
        projection = outcome.projection("up")
        assert projection is not None
        # Every up-fact satisfies arg0 < arg1.
        atoms = {a.normalized() for a in projection}
        assert OrderAtom(Variable("__a0"), "<", Variable("__a1")).normalized() in atoms

    def test_dropped_rules_reported(self):
        program = parse_program(
            """
            q(X) :- e(X), X < 3, X > 5.
            q(X) :- f(X).
            """,
            query="q",
        )
        outcome = propagate_order_constraints(program)
        assert len(outcome.dropped_rules) == 1
        assert len(outcome.program.rules) == 1


# ----------------------------------------------------------------------
# Work counts (deterministic; no timing)
# ----------------------------------------------------------------------
# The solver builds a condensed structure per (atoms, extra constants)
# and reads every question from it.  These tests pin how many get built
# while the flight program (``repro.workloads``; the same text as in
# ``perf/inputs.py``) and the 5-colour program of ``perf/inputs.py`` are
# optimized — the regression a slower front end would show first.

def five_colours():
    names = [f"e{i}" for i in range(5)]
    rules = []
    for name in names:
        rules += [f"p(X, Y) :- {name}(X, Y).", f"p(X, Y) :- {name}(X, Z), p(Z, Y)."]
    ics = [f":- {a}(X, Y), {b}(Y, Z)." for a, b in zip(names, names[1:])]
    return "\n".join(rules), "\n".join(ics)


@pytest.fixture
def build_log(monkeypatch):
    """Events of one ``optimize``: ``("build", atoms, extra)`` per
    structure constructed, ``"call"`` / ``"return"`` around every
    ``propagate_order_constraints`` and ``"pass"`` whenever its body
    starts a pass over the rules (each round of the ``while changed``
    loop, then the final keep/push pass)."""
    events = []
    construct = dense_order._Structure.__init__

    def logged_construct(self, atoms, extra=()):
        construct(self, atoms, extra)
        events.append(("build", tuple(atoms), self.extra))

    def logged_propagate(program, **kwargs):
        events.append("call")
        try:
            return propagate_order_constraints(program, **kwargs)
        finally:
            events.append("return")

    def logged_enumerate(rules):
        events.append("pass")
        return enumerate(rules)

    monkeypatch.setattr(dense_order._Structure, "__init__", logged_construct)
    monkeypatch.setattr(rewrite, "propagate_order_constraints", logged_propagate)
    # The pass loops are the only users of ``enumerate`` in the module.
    monkeypatch.setattr(order_propagation, "enumerate", logged_enumerate, raising=False)
    return events


def propagation_calls(events):
    """The event lists of the individual ``propagate_order_constraints`` calls."""
    calls, current = [], None
    for event in events:
        if event == "call":
            current = []
        elif event == "return":
            calls.append(current)
            current = None
        elif current is not None:
            current.append(event)
    return calls


def test_colour_programs_build_no_structure_at_all(build_log):
    rules, ics = five_colours()
    report = optimize(parse_program(rules, query="p"), parse_constraints(ics))
    assert report.program is not None
    assert len(propagation_calls(build_log)) >= 2
    # No order atom anywhere: every set reads the shared empty structure.
    assert [event for event in build_log if event[0] == "build"] == []


def test_flight_builds_each_structure_once_and_none_in_the_confirming_round(build_log):
    report = optimize(*flight_routes())
    assert report.program is not None
    calls = propagation_calls(build_log)
    assert len(calls) >= 2
    assert any(event[0] == "build" for call in calls for event in call)
    for call in calls:
        builds = [event for event in call if event[0] == "build"]
        # At most one structure per distinct (atoms, extra constants) ...
        assert len(builds) == len(set(builds)), builds
        # ... and none for a set without atoms.
        assert all(atoms for _, atoms, _ in builds), builds
        # The last round of ``while changed`` only confirms the fixpoint:
        # every head projection is a memo hit and every meet reads
        # structures built in earlier rounds.
        passes = [i for i, event in enumerate(call) if event == "pass"]
        assert len(passes) >= 3  # two rounds at least, then the keep/push pass
        confirming = call[passes[-2]:passes[-1]]
        assert confirming == ["pass"], confirming


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), extra_rules=st.integers(0, 4))
def test_order_free_programs_pass_through_unchanged(seed, extra_rules):
    """Without an order atom there is nothing to propagate: every IDB
    predicate's projection is empty, no rule is dropped, none changes."""
    program = random_program(seed, extra_rules=extra_rules)
    stripped = Program(
        [
            Rule(rule.head, tuple(i for i in rule.body if not isinstance(i, OrderAtom)))
            for rule in program.rules
        ],
        program.query,
    )
    outcome = propagate_order_constraints(stripped)
    assert outcome.program.rules == stripped.rules
    assert outcome.projections == {p: frozenset() for p in stripped.idb_predicates}
    assert outcome.dropped_rules == ()
