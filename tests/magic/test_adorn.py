"""Binding-pattern adornment: patterns, propagation, naming."""

import pytest

from repro.datalog.parser import parse_atom, parse_program, parse_rule
from repro.datalog.terms import Variable
from repro.magic.adorn import (
    adorn_program,
    adorned_name,
    adornment_of,
    bound_after,
    bound_args,
    bound_variables,
)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")

TC = """
p(X, Y) :- e(X, Y).
p(X, Y) :- e(X, Z), p(Z, Y).
"""


class TestAdornmentOf:
    def test_constants_are_bound(self):
        assert adornment_of(parse_atom("p(1, Y)"), frozenset()) == "bf"

    def test_bound_variables_are_bound(self):
        atom = parse_atom("p(X, Y)")
        assert adornment_of(atom, frozenset({Variable("X")})) == "bf"
        assert adornment_of(atom, frozenset({Variable("X"), Variable("Y")})) == "bb"

    def test_all_free(self):
        assert adornment_of(parse_atom("p(X, Y)"), frozenset()) == "ff"

    def test_helpers(self):
        atom = parse_atom("p(1, Y)")
        assert adorned_name("p", "bf") == "p__bf"
        assert bound_args(atom, "bf") == (atom.args[0],)
        assert bound_variables(atom, "bf") == frozenset()
        assert bound_variables(parse_atom("p(X, Y)"), "bf") == {Variable("X")}


class TestBoundAfter:
    def test_positive_literal_binds_its_variables(self):
        rule = parse_rule("h(X, Y) :- e(X, Y).")
        assert bound_after(rule.body[0], frozenset()) == {X, Y}

    def test_negated_literal_binds_nothing(self):
        rule = parse_rule("h(X) :- e(X, Y), not b(X, Y).")
        assert bound_after(rule.body[1], frozenset({X})) == {X}

    def test_order_atom_binds_nothing(self):
        rule = parse_rule("h(X) :- e(X, Y), X < Y.")
        assert bound_after(rule.body[1], frozenset({X})) == {X}

    def test_equality_propagates_from_constant(self):
        rule = parse_rule("h(X) :- e(X, Y), X = 5.")
        assert bound_after(rule.body[1], frozenset()) == {X}

    def test_equality_propagates_from_bound_variable(self):
        rule = parse_rule("h(X, Y) :- e(X, Z), X = Y.")
        assert bound_after(rule.body[1], frozenset({X})) == {X, Y}

    def test_equality_between_free_variables_is_inert(self):
        rule = parse_rule("h(X, Y) :- e(X, Y), X = Y.")
        assert bound_after(rule.body[1], frozenset()) == frozenset()


class TestAdornProgram:
    def test_transitive_closure_bf(self):
        program = parse_program(TC, query="p")
        adorned = adorn_program(program, parse_atom("p(1, Y)"))
        assert adorned.adorned_query == "p__bf"
        assert adorned.query_adornment == "bf"
        assert adorned.patterns() == {"p": ("bf",)}
        texts = {repr(rule) for rule in adorned.program.rules}
        assert texts == {
            "p__bf(X, Y) :- e(X, Y).",
            "p__bf(X, Y) :- e(X, Z), p__bf(Z, Y).",
        }

    def test_right_recursion_spawns_free_pattern(self):
        # Bindings pass left to right: p(X, Z) before e sees no binding
        # for Z, and Y is the head's only bound variable: ff.
        program = parse_program(
            "p(X, Y) :- e(X, Y). p(X, Y) :- p(X, Z), e(Z, Y).", query="p"
        )
        adorned = adorn_program(program, parse_atom("p(X, 9)"))
        assert adorned.query_adornment == "fb"
        assert adorned.patterns() == {"p": ("fb", "ff")}

    def test_bodies_keep_their_declared_order(self):
        # e(X, Z) would bind Z for p, but it comes after p in the body.
        program = parse_program(
            "q(X, Y) :- p(Z, Y), e(X, Z). p(X, Y) :- f(X, Y).", query="q"
        )
        adorned = adorn_program(program, parse_atom("q(1, Y)"))
        assert adorned.patterns()["p"] == ("ff",)
        (rule,) = (ar.rule for ar in adorned.rules if ar.head_predicate == "q")
        assert repr(rule) == "q__bf(X, Y) :- p__ff(Z, Y), e(X, Z)."

    def test_idb_subgoal_records(self):
        program = parse_program(TC, query="p")
        adorned = adorn_program(program, parse_atom("p(1, Y)"))
        recursive = [ar for ar in adorned.rules if ar.idb_subgoals]
        assert len(recursive) == 1
        ((index, predicate, pattern),) = recursive[0].idb_subgoals
        assert (predicate, pattern) == ("p", "bf")
        assert recursive[0].rule.body[index].predicate == "p__bf"

    def test_name_collision_avoided(self):
        program = parse_program(
            "p__bf(X) :- e(X, X). p(X, Y) :- e(X, Y), p__bf(Y).", query="p"
        )
        adorned = adorn_program(program, parse_atom("p(1, Y)"))
        names = set(adorned.names.values())
        assert "p__bf" not in names  # taken by the user's own predicate
        assert adorned.name_of("p", "bf").startswith("p__bf")

    def test_non_idb_query_atom_rejected(self):
        program = parse_program(TC, query="p")
        with pytest.raises(ValueError, match="IDB predicate"):
            adorn_program(program, parse_atom("e(1, Y)"))

    def test_arity_mismatch_rejected(self):
        program = parse_program(TC, query="p")
        with pytest.raises(ValueError, match="arity"):
            adorn_program(program, parse_atom("p(1)"))

    def test_filters_preserved_in_adorned_bodies(self):
        program = parse_program(
            "p(X, Y) :- e(X, Y), X < Y, not blocked(X).", query="p"
        )
        adorned = adorn_program(program, parse_atom("p(1, Y)"))
        (rule,) = adorned.program.rules
        assert repr(rule) == "p__bf(X, Y) :- e(X, Y), X < Y, not blocked(X)."
