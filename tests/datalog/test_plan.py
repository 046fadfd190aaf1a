"""The compiled slot-based plan module: orderings, steps, projections."""

import pytest

from repro.datalog.database import Database, Relation
from repro.datalog.evaluation import EvaluationStats, evaluate
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.plan import SELECTIVITY, compile_rule, order_body_cost
from repro.observability import RingBufferSink, tracing


def _unit(literal):
    """A size estimator with no information: every relation one row."""
    return 1.0


def _literal_names(ordered):
    return [item.predicate for item, _ in ordered if hasattr(item, "predicate")]


class TestOrderings:
    def test_greedy_puts_delta_first(self):
        # The delta leads even where a full scan of it costs the most.
        rule = parse_rule("p(X, Y) :- e(X, Z), p(Z, Y).")
        sizes = {"e": 1.0, "p": 1000.0}
        ordered = order_body_cost(rule, 1, lambda lit: sizes[lit.predicate])
        assert ordered[0][1] is True  # the delta pair leads
        assert ordered[0][0].predicate == "p"

    def test_greedy_flushes_filters_as_soon_as_bound(self):
        rule = parse_rule("p(X, Y) :- e(X, Z), X < Z, f(Z, Y).")
        ordered = order_body_cost(rule, None, _unit)
        kinds = [getattr(item, "predicate", "filter") for item, _ in ordered]
        assert kinds == ["e", "filter", "f"]

    def test_cost_prefers_small_relations(self):
        rule = parse_rule("p(X, Y) :- big(X, Z), small(Z, Y).")
        sizes = {"big": 1000.0, "small": 3.0}
        ordered = order_body_cost(rule, None, lambda lit: sizes[lit.predicate])
        assert _literal_names(ordered) == ["small", "big"]

    def test_cost_counts_bound_positions(self):
        # small binds Z; big's probe on Z is then discounted below mid's
        # full scan (1000 * SELECTIVITY < 200), so the larger relation is
        # joined earlier because its probe is cheaper.
        rule = parse_rule("p(X, Y) :- big(Z, X), mid(X, Y), small(Z, Q).")
        sizes = {"big": 1000.0, "mid": 200.0, "small": 3.0}
        ordered = order_body_cost(rule, None, lambda lit: sizes[lit.predicate])
        assert sizes["big"] * SELECTIVITY < sizes["mid"]
        assert _literal_names(ordered) == ["small", "big", "mid"]

    def test_cost_never_introduces_cross_products(self):
        # unrelated(W) is cheaper than link, but shares no variable with
        # the bound set after left is scanned — the connected literal
        # must win even when it is pricier.
        rule = parse_rule("q(X, Y, W) :- left(X), link(X, Y), unrelated(W).")
        sizes = {"left": 5.0, "link": 10000.0, "unrelated": 40.0}
        ordered = order_body_cost(rule, None, lambda lit: sizes[lit.predicate])
        assert _literal_names(ordered) == ["left", "link", "unrelated"]

    def test_cost_empty_relation_short_circuits_first(self):
        rule = parse_rule("p(X, Y) :- big(X, Z), empty(Z, Y).")
        sizes = {"big": 1000.0, "empty": 0.0}
        ordered = order_body_cost(rule, None, lambda lit: sizes[lit.predicate])
        assert _literal_names(ordered) == ["empty", "big"]


class TestCompiledPlan:
    def test_fully_bound_literal_becomes_existence_check(self):
        rule = parse_rule("q(X) :- start(X), path(X, Y), end(Y).")
        plan = compile_rule(rule, size_of=_unit)
        assert "exists end" in plan.describe()

    def test_existence_check_scans_zero_rows(self):
        program = parse_program(
            "q(X) :- e(X, Y), mark(Y).",
            query="q",
        )
        database = Database.from_rows(
            {"e": [(1, 2), (3, 4)], "mark": [(2,), (9,)]}
        )
        result = evaluate(program, database)
        # Only the e scan touches rows; the bound mark(Y) is a membership
        # test contributing probes but zero rows_scanned.
        assert result.rows("q") == frozenset({(1,)})
        assert result.stats.rows_scanned == 2

    def test_repeated_variable_within_literal(self):
        program = parse_program("p(X) :- t(X, X).", query="p")
        database = Database.from_rows({"t": [(1, 1), (1, 2), (3, 3)]})
        result = evaluate(program, database)
        assert result.rows("p") == frozenset({(1,), (3,)})

    def test_head_constant_and_projection(self):
        program = parse_program("p(7, Y) :- e(X, Y).", query="p")
        database = Database.from_rows({"e": [(1, 2)]})
        result = evaluate(program, database)
        assert result.rows("p") == frozenset({(7, 2)})

    def test_unbound_head_variable_rejected(self):
        rule = parse_rule("p(X, Y) :- e(X, Z).")
        with pytest.raises(ValueError):
            compile_rule(rule, size_of=_unit)

    def test_plan_run_counts_env_allocations(self):
        # A filter, so ``p`` is no union view of ``e`` and the rule runs.
        program = parse_program("p(X, Y) :- e(X, Y), X < Y.", query="p")
        database = Database.from_rows({"e": [(1, 2), (3, 4)]})
        result = evaluate(program, database)
        # One slot-list per rule execution plus one tuple per result row.
        assert result.stats.env_allocations == 3

    def test_generated_kernel_is_one_nested_loop(self):
        plan = compile_rule(parse_rule("p(X, Y) :- e(X, Z), p(Z, Y)."), 1, size_of=_unit)
        assert plan.describe() == "scan* p(Z, Y) full; scan e(X, Z) key=[1]"
        assert plan.source() == (
            "def kernel(rels, stats, live, k, gov):\n"
            "    fresh = dict()\n"
            "    (r0, g1) = rels\n"
            "    probes = scanned = matches = 0\n"
            "    due = gov.stride if gov is not None else 0\n"
            "    try:\n"
            "        probes += 1\n"
            "        scanned += len(r0)\n"
            "        if gov is not None and scanned >= due:"
            " due = gov.tick_scan('rule', stats, scanned, len(fresh))\n"
            "        for (s0, s1) in r0:\n"
            "            probes += 1\n"
            "            rows = g1(s0, ())\n"
            "            scanned += len(rows)\n"
            "            if gov is not None and scanned >= due:"
            " due = gov.tick_scan('rule', stats, scanned, len(fresh))\n"
            "            matches += len(rows)\n"
            "            for (s2, _) in rows:\n"
            "                h = (s2, s1)\n"
            "                if h not in live: fresh[h] = None\n"
            "    finally:\n"
            "        stats.probes += probes\n"
            "        stats.rows_scanned += scanned\n"
            "    return matches, fresh\n"
        )

    def test_describe_marks_a_hoisted_probe_with_its_loop(self):
        # parent(V1, YP) is keyed by YP, which the delta row binds.
        text = "sg_2(V0, V1) :- parent(V0, XP), sg_2(XP, YP), parent(V1, YP)."
        plan = compile_rule(parse_rule(text), 1, size_of=_unit)
        assert plan.describe() == (
            "scan* sg_2(XP, YP) full; scan parent(V0, XP) key=[1]; "
            "scan parent(V1, YP) key=[1] hoisted to loop 1"
        )
        assert plan.source().count("probes += 1") == 3
        assert "            b2 = None\n            for (s2, _) in rows:\n" in plan.source()
        # A key of constants only is fixed by the firing itself: loop 0.
        sizes = {"e": 1.0, "f": 1.0, "g": 1000.0}
        plan = compile_rule(
            parse_rule("q(X, W) :- e(X, Z), f(Z, Y), g(3, W)."),
            size_of=lambda lit: sizes[lit.predicate],
        )
        assert plan.describe() == (
            "scan e(X, Z) full; scan f(Z, Y) key=[0]; scan g(3, W) key=[0] hoisted to loop 0"
        )
        # The ``plan`` trace event, which ``repro profile`` reports, says so too.
        program = parse_program("sg_2(X, Y) :- sibling(X, Y).\n" + text, query="sg_2")
        database = Database.from_rows({"sibling": [(1, 2)], "parent": [(3, 1), (4, 2)]})
        with tracing(RingBufferSink()) as tracer:
            evaluate(program, database)
        steps = [event.attrs["steps"] for event in tracer.sinks[0] if event.name == "plan"]
        assert [step for step in steps if "hoisted" in step] == [
            "scan* sg_2(XP, YP) full; scan parent(V0, XP) key=[1]; "
            "scan parent(V1, YP) key=[1] hoisted to loop 1"
        ]

    def test_plans_of_one_shape_share_their_functions(self):
        first = compile_rule(parse_rule('p(X, 1) :- e(X, Y), Y < 3, not b(Y, "u").'), size_of=_unit)
        second = compile_rule(parse_rule("reach(A, x) :- hop(A, B), B < 0.5, not cut(B, 9)."), size_of=_unit)
        assert first._kernel is second._kernel
        assert first._consts == (3, "u", 1) and second._consts == (0.5, 9, "x")
        assert not hasattr(first, "head_rows") and not hasattr(first, "_heads")
        # One function, two constant tuples: the head constant travels in ``k``.
        stats = EvaluationStats()

        def over(rows):
            scanned = Relation(2, rows)
            return lambda predicate, arity: scanned if predicate in ("e", "hop") else Relation(arity)

        e = [(7, 2), (8, 0), (9, 5)]
        assert first.run(over(e), None, set(), stats) == (2, {(7, 1): None, (8, 1): None})
        assert second.run(over(e), None, {(8, "x")}, stats) == (1, {})  # known: dropped
        assert second.run(over([(7, 0.2)]), None, set(), stats) == (1, {(7, "x"): None})


class TestNoneValues:
    """A legitimate ``None`` stored in a row must never read as 'unbound'."""

    def test_none_row_value_does_not_unify_with_distinct_value(self):
        program = parse_program("p(X) :- t(X, X).", query="p")
        database = Database.from_rows({"t": [(None, 5)]})
        result = evaluate(program, database)
        assert result.rows("p") == frozenset()

    def test_none_joins_with_none(self):
        program = parse_program("p(X) :- t(X, X).", query="p")
        database = Database.from_rows({"t": [(None, None), (None, 1)]})
        result = evaluate(program, database)
        assert result.rows("p") == frozenset({(None,)})

    def test_none_values_join_across_literals(self):
        program = parse_program("p(X, Z) :- e(X, Y), f(Y, Z).", query="p")
        database = Database.from_rows(
            {"e": [(1, None)], "f": [(None, 3), (0, 4)]}
        )
        result = evaluate(program, database)
        assert result.rows("p") == frozenset({(1, 3)})
