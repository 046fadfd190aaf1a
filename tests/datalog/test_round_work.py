"""Each semi-naive round does its work once.

Three kernel and fixpoint-loop paths make a round's work depend on what
changed, not on how often it is met: a keyed probe fixed by an outer
loop is looked up once per row of that loop (``hoisted to loop N`` in
``describe()``), each operand of an ordering comparison is type-tested
once, and a round's new rows are held in a list frontier that hashes
nothing.  Random recursive programs built to hit every one of those
paths are checked against the independent model
(``tests/reference_model.py``) on both storages, plain and under a
stride-1 governor.
"""

import random

import pytest

from reference_model import model_fixpoint
from repro.datalog.database import Database, Frontier, Relation
from repro.datalog.evaluation import _INT_COUNTERS, EvaluationStats, evaluate
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.plan import compile_rule
from repro.digest import fixpoint_digest
from repro.robustness.budget import Budget, Governor

NUMBERS = (0, 1, 2, 3, 4, 1.5, 2.5)
SYMBOLS = ("a", "b", "c", "d", "e")

#: Rule templates over ``p`` (recursive, arity 2), ``q`` (recursive
#: through ``p``), EDB ``e0``..``e2`` (arity 2), ``m`` (arity 1) and
#: ``n`` (negated).  ``{c…}`` are constants and ``{op…}`` ordering
#: operators drawn per program; each template names the path it hits.
TEMPLATES = (
    # a later literal keyed only by the delta's slot: hoisted to loop 1
    "p(X, Y) :- e1(X, A), p(A, B), e2(Y, B){f}.",
    # keyed only by a constant, inside two loops: hoisted to loop 0
    "q(X, W) :- p(X, Z), e1(Z, Y), e2({c0}, W){f}.",
    # ordering filters over a constant and over slots of two loops
    "p(X, Y) :- p(X, Z), e0(Z, Y), X {op0} Y, Z {op1} {c1}.",
    "q(X, Y) :- q(X, Z), e0(Z, Y), m(Y), Y {op0} {c0}, X {op1} Z, not n(Z).",
    # a delta literal with a constant: an index on the frontier
    "q(X, Y) :- p(X, {c0}), e0({c0}, Y).",
    # a fully bound delta literal: membership in the frontier
    "p(X, Y) :- q({c0}, {c1}), e1(X, Y).",
    # three loops, the third keyed by the first only
    "q(X, Y) :- p(X, A), e0(A, B), e1(B, C), e2(Y, A){f}.",
)


def _program(rng, values):
    const = lambda: rng.choice(values)  # noqa: E731
    ops = ("<", "<=", ">", ">=")
    texts = ["p(X, Y) :- e0(X, Y).", "q(X, Y) :- p(X, Y), m(X)."]
    for template in rng.sample(TEMPLATES, rng.randint(3, len(TEMPLATES))):
        texts.append(
            template.format(
                c0=const(),
                c1=const(),
                op0=rng.choice(ops),
                op1=rng.choice(ops),
                f=rng.choice(("", f", X {rng.choice(ops)} Y", f", Y {rng.choice(ops)} {const()}")),
            )
        )
    return parse_program("\n".join(texts), query="q")


def _database(rng, values, storage):
    def rows(arity, count):
        return sorted({tuple(rng.choice(values) for _ in range(arity)) for _ in range(count)}, key=repr)

    return Database.from_rows(
        {
            "e0": rows(2, rng.randint(3, 14)),
            "e1": rows(2, rng.randint(2, 10)),
            # Few rows: many hoisted buckets are empty.
            "e2": rows(2, rng.randint(0, 4)),
            "m": rows(1, rng.randint(1, 5)),
            "n": rows(1, rng.randint(0, 3)),
        },
        storage=storage,
    )


def _counters(result):
    return {name: getattr(result.stats, name) for name in _INT_COUNTERS if name != "intern_hits"}


@pytest.mark.parametrize("seed", range(30))
def test_hoisted_probes_flags_and_frontiers_agree_with_the_model(seed):
    rng = random.Random(seed)
    values = SYMBOLS if seed % 3 == 2 else NUMBERS
    program = _program(rng, values)
    data_seed = rng.random()
    baseline = None
    for storage in ("rows", "columnar"):
        database = _database(random.Random(data_seed), values, storage)
        expected = model_fixpoint(program, database)
        plain = evaluate(program, database.copy())
        governed = evaluate(
            program, database.copy(), budget=Governor(Budget(timeout=60), stride=1)
        )
        for result in (plain, governed):
            assert {pred: result.rows(pred) for pred in expected} == expected
            assert _counters(result) == _counters(plain)
        outcome = (_counters(plain), fixpoint_digest([("x", plain.idb)]))
        assert baseline is None or outcome == baseline, storage
        baseline = outcome


def test_the_random_programs_reach_every_path():
    hoisted = {0: 0, 1: 0}
    frontier_index = frontier_member = flags = 0
    for seed in range(30):
        rng = random.Random(seed)
        program = _program(rng, SYMBOLS if seed % 3 == 2 else NUMBERS)
        for rule in program.rules:
            for pos in [None, *range(len(rule.body))]:
                if pos is not None and getattr(rule.body[pos], "predicate", None) not in ("p", "q"):
                    continue
                plan = compile_rule(rule, pos, size_of=lambda literal: 4.0)
                text, source = plan.describe(), plan.source()
                for loop in hoisted:
                    hoisted[loop] += f"hoisted to loop {loop}" in text
                frontier_index += text.startswith("scan* ") and " key=" in text.split(";")[0]
                frontier_member += text.startswith("exists ")
                flags += "tk0 = type(k0) in NUMERIC" in source and "ts0 and" in source
    assert min(hoisted.values()) and frontier_index and frontier_member and flags


def test_join_longer_than_the_block_limit_hoists_inside_its_chained_kernel():
    hops = 18
    body = ", ".join(f"e(X{i}, X{i + 1})" for i in range(hops))
    program = parse_program(f"far(X0, Y) :- {body}, f(Y, X1), X0 < Y.", query="far")
    plan = compile_rule(program.rules[0], size_of=lambda literal: 1.0)
    assert plan.describe().endswith("scan f(Y, X1) key=[1] hoisted to loop 16; filter X0 < Y")
    assert "def kernel1(" in plan.source()
    edges = [(i, i + 1) for i in range(hops + 3)]
    for f_rows in ([(50, 1), (60, 1), (70, 2)], [(50, 9)]):  # one run's buckets all empty
        for storage in ("rows", "columnar"):
            database = Database.from_rows({"e": edges, "f": f_rows}, storage=storage)
            expected = model_fixpoint(program, database)
            plain = evaluate(program, database.copy())
            governed = evaluate(
                program, database.copy(), budget=Governor(Budget(timeout=60), stride=1)
            )
            for result in (plain, governed):
                assert {"far": result.rows("far")} == expected
                assert _counters(result) == _counters(plain)


# ----------------------------------------------------------------------
# sg_2's recursive kernel: one lookup per key binding
# ----------------------------------------------------------------------
class _CountedRelation(Relation):
    """A relation whose index lookups are counted."""

    def index_for(self, positions, stats=None):
        relation = self

        class Counted(dict):
            def get(self, key, default=None):
                relation.lookups += 1
                return dict.get(self, key, default)

        return Counted(super().index_for(positions, stats))


SG = "sg_2(V0, V1) :- parent(V0, XP), sg_2(XP, YP), parent(V1, YP)."


@pytest.mark.parametrize(
    "delta_row,lookups",
    [
        ((1, 2), 2),  # 3 parents of 1, 2 of 2: one lookup each
        ((9, 2), 1),  # no parent of 9: the loop the second sits in never runs
        ((1, 9), 2),  # no parent of 9: the empty bucket ends the loop at once
    ],
)
def test_sg_kernel_looks_parent_up_once_per_key_binding(delta_row, lookups):
    plan = compile_rule(parse_rule(SG), 1, size_of=lambda literal: 1.0)
    assert plan.describe() == (
        "scan* sg_2(XP, YP) full; scan parent(V0, XP) key=[1]; "
        "scan parent(V1, YP) key=[1] hoisted to loop 1"
    )
    parent = _CountedRelation(2, [(10, 1), (11, 1), (12, 1), (20, 2), (21, 2)])
    parent.lookups = 0
    frontier = Frontier(2)
    frontier.add_fresh([delta_row])
    stats = EvaluationStats()
    matches, fresh = plan.run(lambda predicate, arity: parent, frontier, set(), stats)
    assert parent.lookups == lookups
    assert stats.probes == 1 + lookups  # the delta's full scan counts one
    if delta_row == (1, 2):
        assert matches == 6 and set(fresh) == {(a, b) for a in (10, 11, 12) for b in (20, 21)}
        assert stats.rows_scanned == 1 + 3 + 3 * 2  # every row iterated, as before
    else:
        assert matches == 0 and not fresh


# ----------------------------------------------------------------------
# The frontier
# ----------------------------------------------------------------------
def test_frontier_keeps_derivation_order_and_a_maintained_index():
    frontier = Frontier(2)
    frontier.add_fresh([(3, "a"), (1, "b")])
    stats = EvaluationStats()
    index = frontier.index_for((0,), stats)
    assert stats.index_builds == 1 and frontier.has_index((0,))
    frontier.add_fresh({(3, "c")})
    assert frontier.all_rows() == [(3, "a"), (1, "b"), (3, "c")]
    assert index == {3: [(3, "a"), (3, "c")], 1: [(1, "b")]}
    assert frontier.index_for((0,), stats) is index and stats.index_builds == 1
    assert len(frontier) == 3 and (1, "b") in frontier.all_rows()


@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_seed_fact_enters_the_frontier_as_stored(storage):
    program = parse_program("reach(Y) :- reach(X), e(X, Y).", query="reach")
    database = Database.from_rows({"e": [("s", "a"), ("a", "b"), ("b", "c")]}, storage=storage)
    result = evaluate(program, database, seed_fact=("reach", ("s",)))
    assert result.query_rows() == {("s",), ("a",), ("b",), ("c",)}
    assert result.stats.iterations == 4
