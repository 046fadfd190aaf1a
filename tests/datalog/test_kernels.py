"""The generated kernels: one nested-loop function per plan shape.

What the closure chain guaranteed implicitly has to be pinned now that
``plan.py`` hands source text to ``compile()``: no program text ever
reaches that source, the code cache is bounded, an abort inside a
kernel reports exactly the work the closure chain reported, and the
kernels over values, the same kernels over interner codes and the
independent model (``tests/reference_model.py``) agree on shapes the
canonical workloads never produce (arity 0 and 1, constants, repeated
variables).
"""

import linecache
import random
import traceback

import pytest

import repro.datalog.evaluation as evaluation
from reference_model import model_fixpoint
from repro.datalog.atoms import Atom, Literal, OrderAtom
from repro.datalog.database import ArityMismatch, Database, Relation
from repro.datalog.evaluation import _INT_COUNTERS, evaluate
from repro.datalog.parser import parse_atom, parse_constraints, parse_program, parse_rule
from repro.datalog.plan import _compiled_kernel, compile_rule
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.digest import fixpoint_digest
from repro.magic import run_pipeline
from repro.robustness.budget import Budget, Governor
from repro.robustness.errors import BudgetExceededError
from repro.workloads.generators import (
    ab_database,
    good_path_database,
    random_workload,
)
from repro.workloads.programs import ab_transitive_closure, good_path


def _unit(literal):
    """A size estimator with no information: every relation one row."""
    return 1.0


# ----------------------------------------------------------------------
# (a) no program text in the generated source
# ----------------------------------------------------------------------
BENIGN = {name: name for name in ("p", "q", "e", "b", "X", "Y", "Z", "c", "d")}
HOSTILE = {
    "p": 'p"\n__import__("os").system("true")\n"',
    "q": "q'); raise SystemExit #",
    "e": "e%s{}{0}\\",
    "b": 'b"""',
    "X": "X\n    import os",
    "Y": "Y'",
    "Z": "{Z}%d",
    "c": '"; __import__("os") #',
    "d": "d'''\n%(x)s{}",
}


def _named_program(n):
    X, Y, Z = (Variable(n[v]) for v in "XYZ")
    c, d = Constant(n["c"]), Constant(n["d"])
    rules = [
        Rule(Atom(n["p"], (X, Y)), (Literal(Atom(n["e"], (X, Y))),)),
        Rule(
            Atom(n["p"], (X, Y)),
            (
                Literal(Atom(n["e"], (X, Z))),
                Literal(Atom(n["p"], (Z, Y))),
                OrderAtom(X, "!=", c),
                OrderAtom(Z, "<", d),
            ),
        ),
        Rule(
            Atom(n["q"], (X, c)),
            (
                Literal(Atom(n["p"], (X, Y))),
                Literal(Atom(n["b"], (Y,)), positive=False),
                Literal(Atom(n["e"], (Y, d))),
            ),
        ),
    ]
    database = Database.from_rows(
        {
            n["e"]: [("a0", "a1"), ("a1", "a2"), ("a2", n["d"]), (n["c"], "a0")],
            n["b"]: [("a1",)],
        }
    )
    return Program(rules, query=n["q"]), database


def _sources(program):
    return [
        compile_rule(rule, delta, size_of=_unit).source()
        for rule in program.rules
        for delta in [None]
        + [i for i, item in enumerate(rule.body) if isinstance(item, Literal) and item.positive]
    ]


def test_source_holds_no_program_text():
    benign, benign_db = _named_program(BENIGN)
    hostile, hostile_db = _named_program(HOSTILE)
    assert _sources(hostile) == _sources(benign)
    # ``p(X, Y) :- e(X, Y).`` is a renaming rule: the loop-free kernel is checked too.
    assert any("r0 - live" in source for source in _sources(hostile))
    for source in _sources(hostile):
        for fragment in ("import", "os", '"', "%", "{", "\\", "SystemExit"):
            assert fragment not in source, source
    # ... and the hostile program evaluates like the benign one.
    rename = {BENIGN["c"]: HOSTILE["c"], BENIGN["d"]: HOSTILE["d"]}
    expected = {
        tuple(rename.get(value, value) for value in row)
        for row in model_fixpoint(benign, benign_db)[BENIGN["q"]]
    }
    assert expected
    assert model_fixpoint(hostile, hostile_db)[HOSTILE["q"]] == expected
    assert evaluate(hostile, hostile_db.copy()).query_rows() == expected


# ----------------------------------------------------------------------
# (b) the shape cache
# ----------------------------------------------------------------------
def _colored_closure(colors):
    names = [f"e{i}" for i in range(colors)]
    rules = []
    for name in names:
        rules += [f"p(X, Y) :- {name}(X, Y).", f"p(X, Y) :- {name}(X, Z), p(Z, Y)."]
    ics = "\n".join(f":- {a}(X, Y), {b}(Y, Z)." for a, b in zip(names, names[1:]))
    return parse_program("\n".join(rules), query="p"), parse_constraints(ics)


def test_colors_program_shares_a_few_code_objects(monkeypatch):
    program, ics = _colored_closure(5)
    report = run_pipeline(program, ics, parse_atom("p(1, Y)"))
    database = Database.from_rows(
        {f"e{i}": [(6 - i, 5 - i)] for i in range(5)}
    )
    plans = []

    def recording(*args, **kwargs):
        plans.append(compile_rule(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(evaluation, "compile_rule", recording)
    evaluate(report.program, database)
    assert len(plans) >= 50
    assert len({plan._kernel.__code__ for plan in plans}) <= 40


def _random_rule(rng):
    variables = [Variable(f"V{i}") for i in range(5)]
    bound, body = [], []
    for index in range(rng.randint(1, 4)):
        args = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.2:
                args.append(Constant(rng.randrange(3)))
            else:
                args.append(rng.choice(variables))
        body.append(Literal(Atom(f"r{index}", tuple(args))))
        bound += [arg for arg in args if isinstance(arg, Variable)]
        if bound and rng.random() < 0.5:
            op = rng.choice(("<", "<=", "=", "!=", ">"))
            right = rng.choice(bound + [Constant(1)])
            body.append(OrderAtom(rng.choice(bound), op, right))
        if bound and rng.random() < 0.3:
            body.append(Literal(Atom("n", (rng.choice(bound),)), positive=False))
    head = tuple(
        rng.choice(bound) if bound and rng.random() < 0.8 else Constant(rng.randrange(3))
        for _ in range(rng.randint(0, 3))
    )
    return Rule(Atom("h", head), tuple(body))


def test_code_cache_is_bounded_under_random_shapes():
    rng = random.Random(14)
    bound = _compiled_kernel.cache_info().maxsize
    assert bound is not None
    misses_before = _compiled_kernel.cache_info().misses
    for _ in range(5000):
        compile_rule(_random_rule(rng), size_of=_unit)
        assert _compiled_kernel.cache_info().currsize <= bound
    assert _compiled_kernel.cache_info().misses - misses_before > bound
    # Evicted kernels take their linecache entry with them.
    registered = [name for name in linecache.cache if name.startswith("<plan:")]
    assert len(registered) <= bound


# ----------------------------------------------------------------------
# (c) abort parity with the closure chain
# ----------------------------------------------------------------------
class _TripAtScanned(Governor):
    """Trips the deadline inside the kernel whose bucket takes the rows
    scanned to k (stride 1: every non-empty bucket is a checkpoint).

    The clock reads the rows scanned as of the kernel's last
    checkpoint, so a deadline of ``k - 1`` is a deadline in rows."""

    __slots__ = ("now",)

    def __init__(self, k, stride=1):
        self.now = 0
        super().__init__(Budget(timeout=k - 1), clock=lambda: self.now, stride=stride)

    def tick_scan(self, phase, stats, scanned, fresh):
        self.now = stats.rows_scanned + scanned
        return super().tick_scan(phase, stats, scanned, fresh)


ABORT_WORKLOADS = {
    "ab": lambda: (ab_transitive_closure()[0], ab_database(10, 10)),
    "goodpath": lambda: (good_path()[0], good_path_database(3, 6)),
    "random3": lambda: random_workload(3)[:2],
    "random5": lambda: random_workload(5)[:2],
}

#: (workload, k) -> probes, rows_scanned, env_allocations, budget_trips,
#: rule_firings, facts_derived, partial-fixpoint digest.  First recorded
#: from the closure-chain executor tripping on its k-th emitted row;
#: recorded again when the checkpoint moved from the emitted row to the
#: scanned bucket (k now counts rows scanned).  The aborted firing's
#: ``probes`` / ``rows_scanned`` moved with it; wherever both trips fall
#: in the same firing — ten of the fourteen — firings, facts, allocations
#: and the digest are the closure chain's, unchanged.  ``("random3", 150)``
#: read 153 rows scanned until renaming rules became a set difference:
#: the set's rows reach the head's indexes and the frontier in another
#: order, so the aborted firing's bucket boundary moved by one row;
#: every other counter and the digest did not move.  Three moved again
#: when frontiers became lists in derivation order and keyed probes
#: fixed by an outer loop began to be made once per row of that loop:
#: the aborted firing walks its delta in another order, so the trip
#: lands elsewhere in it — ``("random3", 600)`` read 90 probes and 605
#: rows scanned, ``("random5", 40)`` 42 rows scanned and ``("random5",
#: 150)`` 57 probes; allocations, trips, firings, facts and the partial
#: digest did not move.  The three ``random3`` digests moved when
#: ``q(X, Y) :- p2(X, Y).`` became a union view: its empty relation left
#: the partial IDB; no counter moved.
ABORT_GOLDEN = {
    ("ab", 1): (1, 16, 1, 1, 0, 0, "e6cefa4a7911ebaf"),
    ("ab", 7): (1, 16, 1, 1, 0, 0, "e6cefa4a7911ebaf"),
    ("ab", 40): (3, 64, 35, 1, 32, 32, "1e09d66d7878af4d"),
    ("ab", 150): (69, 160, 76, 1, 71, 57, "870f30afeab71969"),
    ("goodpath", 2): (1, 30, 1, 1, 0, 0, "d1495a64fdbece72"),
    ("goodpath", 40): (2, 60, 32, 1, 30, 30, "eec1e8fc3d9ea2d3"),
    ("random3", 40): (2, 46, 25, 1, 23, 23, "4cfe85578d2cc2b5"),
    ("random3", 150): (31, 154, 77, 1, 74, 57, "7a2ce4850fdeef0e"),
    ("random3", 600): (88, 601, 206, 1, 202, 83, "ac651ce59441abf0"),
    ("random5", 1): (1, 4, 1, 1, 0, 0, "93a6010a4946bbb8"),
    ("random5", 2): (1, 4, 1, 1, 0, 0, "93a6010a4946bbb8"),
    ("random5", 7): (5, 9, 1, 1, 0, 0, "93a6010a4946bbb8"),
    ("random5", 40): (20, 40, 24, 1, 20, 15, "70c4d5db67a13416"),
    ("random5", 150): (67, 150, 73, 1, 65, 42, "bb29ff9f7a17aafd"),
}


@pytest.mark.parametrize("workload,k", sorted(ABORT_GOLDEN))
def test_abort_inside_a_kernel_reports_the_closure_chains_work(workload, k):
    program, database = ABORT_WORKLOADS[workload]()
    with pytest.raises(BudgetExceededError) as caught:
        evaluate(program, database, budget=_TripAtScanned(k))
    partial = caught.value.partial
    stats = partial.stats
    assert (
        stats.probes,
        stats.rows_scanned,
        stats.env_allocations,
        stats.budget_trips,
        stats.rule_firings,
        stats.facts_derived,
        fixpoint_digest([("partial", partial.idb)])[:16],
    ) == ABORT_GOLDEN[workload, k]
    # The aborted firing flushed what it scanned and derived nothing.
    assert stats.rows_scanned >= k
    assert stats.facts_derived == sum(len(rel) for rel in partial.idb.values())
    full = evaluate(program, database.copy())
    assert all(partial.rows(pred) <= full.rows(pred) for pred in partial.idb)


# ----------------------------------------------------------------------
# (d) one kernel: plain and governed runs of a random shape
# ----------------------------------------------------------------------
def _random_rule_database(rng, rule):
    rows = {"n": [(value,) for value in range(3) if rng.random() < 0.5]}
    for item in rule.body:
        if isinstance(item, Literal) and item.positive:
            arity = item.atom.arity
            draws = rng.randint(4, 16) if arity else rng.randint(0, 1)
            rows[item.predicate] = list(
                {tuple(rng.randrange(3) for _ in range(arity)) for _ in range(draws)}
            )
    return Database.from_rows(rows)


#: seed -> rule_firings, facts_derived, iterations, probes summed over
#: the seed's 40 random rules (plain runs).  Recorded when an
#: interpreter joining in the kernel's body order still checked them
#: rule by rule.  Seeds 0, 4 and 7 read 66, 122 and 82 probes until a
#: probe keyed only by constants or outer-loop slots was made once per
#: row of the loop fixing its key, not once per row of the loop it sits
#: in; the other counters did not move.  Seeds 0, 1, 2, 5, 6 and 7 fell
#: again when a rule ``h(V̄) :- r(V̄).`` made ``h`` a union view that no
#: kernel fills: (36, 21, 0, 64), (84, 41, 0, 83), (44, 14, 0, 68),
#: (29, 13, 0, 62), (40, 22, 0, 89) and (66, 39, 0, 80) before.
ONE_KERNEL_COUNTS = {
    0: (36, 21, 0, 62),
    1: (80, 37, 0, 81),
    2: (41, 11, 0, 65),
    3: (41, 22, 0, 81),
    4: (71, 35, 0, 121),
    5: (29, 13, 0, 61),
    6: (40, 22, 0, 88),
    7: (58, 31, 0, 77),
}


@pytest.mark.parametrize("seed", range(8))
def test_one_kernel_serves_plain_and_governed_runs(seed):
    rng = random.Random(seed)
    compared = 0
    counts = [0, 0, 0, 0]
    for _ in range(40):
        rule = _random_rule(rng)
        program = Program([rule], query="h")
        database = _random_rule_database(rng, rule)
        expected = model_fixpoint(program, database)
        plain = evaluate(program, database.copy())
        governed = evaluate(program, database.copy(), budget=Governor(Budget(timeout=60), stride=1))
        for result in (plain, governed):
            assert {"h": result.rows("h")} == expected
            for counter in _INT_COUNTERS:
                assert getattr(result.stats, counter) == getattr(plain.stats, counter), counter
        for index, counter in enumerate(("rule_firings", "facts_derived", "iterations", "probes")):
            counts[index] += getattr(plain.stats, counter)
        compared += bool(plain.rows("h"))
    assert compared >= 5
    assert tuple(counts) == ONE_KERNEL_COUNTS[seed]


# ----------------------------------------------------------------------
# (e) both storages and the model agree on every step shape
# ----------------------------------------------------------------------
#: Rules over ``random_workload``'s vocabulary that add what its programs
#: lack: repeated variables in one literal, constants in bodies and
#: heads, arity-0 and arity-1 literals, ``=`` filters, ground filters.
EXTRA_RULES = """
loop(X) :- e0(X, X).
twice(X, X) :- p0(X, X), mark(X).
from3(3, Y) :- e1(3, Y), Y != 3.
into(X, 7) :- e0(X, 2), 1 < 2.
flag() :- mark(X), blocked(X).
any() :- e0(X, Y), X = Y.
gated(X) :- mark(X), on().
ungated(X) :- mark(X), not off().
both(X, Y) :- e0(X, Z), e1(Z, Y), X < Y, Z != X, not blocked(Z).
same(X, Y) :- e0(X, Y), e1(X, Y).
lit(5) :- on(), not off(), 2 >= 2.
pair(X, Y) :- mark(X), blocked(Y), X <= Y.
"""

PINNED = (
    "iterations",
    "rule_firings",
    "facts_derived",
    "rows_scanned",
    "probes",
    "index_builds",
    "env_allocations",
)


def _with_extras(seed):
    program, database, _ = random_workload(seed)
    extras = [parse_rule(line) for line in EXTRA_RULES.strip().splitlines()]
    database.add_row("on", ())
    return Program(program.rules + tuple(extras), query="q"), database


#: seed -> iterations, rule_firings, facts_derived of ``_with_extras``.
#: Recorded while an interpreter in greedy body order still matched them.
#: Where ``q(X, Y) :- p2(X, Y).`` is unguarded, ``q`` became a union view
#: and firings and facts fell by ``q``'s rows (seed 0 read 1076 and 279,
#: 1: 1152, 310; 2: 5866, 523; 3: 3822, 514; 4: 4265, 510; 6: 2196, 408;
#: 8: 783, 388; 9: 3530, 408; 10: 858, 459).
EXTRAS_COUNTS = {
    0: (8, 1010, 213),
    1: (8, 1105, 263),
    2: (5, 5745, 402),
    3: (6, 3686, 378),
    4: (5, 4156, 401),
    5: (11, 606, 326),
    6: (10, 2090, 302),
    7: (3, 387, 167),
    8: (4, 676, 281),
    9: (10, 3442, 320),
    10: (12, 724, 325),
    11: (7, 4530, 419),
}


@pytest.mark.parametrize("seed", range(12))
def test_executors_agree_on_digest_and_counters(seed):
    program, database = _with_extras(seed)
    rows = evaluate(program, database.copy())
    columnar = evaluate(program, database.to_storage("columnar"))
    expected = model_fixpoint(program, database)
    assert {pred: rows.rows(pred) for pred in expected} == expected
    assert fixpoint_digest([("x", columnar.idb)]) == fixpoint_digest([("x", rows.idb)])
    for counter in PINNED:
        assert getattr(rows.stats, counter) == getattr(columnar.stats, counter), counter
    assert rows.stats.rows_scanned_by_rule == columnar.stats.rows_scanned_by_rule
    # Firings and rounds are properties of the program, not of the body order.
    counts = tuple(getattr(rows.stats, c) for c in ("iterations", "rule_firings", "facts_derived"))
    assert counts == EXTRAS_COUNTS[seed]


# ----------------------------------------------------------------------
# (f) renaming rules: one set difference, no loop
# ----------------------------------------------------------------------
#: A renaming rule ``p(X, Y) :- q(X, Y).`` in each place it can stand.
IDENTITY_CASES = {
    # ``r`` reads ``p``: without it ``p`` is the union view below.
    "edb": (
        "p(X, Y) :- e(X, Y).\nr(X) :- p(X, X).",
        {"e": [(i, (i * 7) % 13) for i in range(40)]},
    ),
    # Read by no rule: a union view of ``e``, which no kernel fills.
    "view": ("p(X, Y) :- e(X, Y).", {"e": [(i, (i * 7) % 13) for i in range(40)]}),
    # q :- p fires as a delta rule of the recursive SCC {p, q}.
    "delta": (
        "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), q(Z, Y).\nq(X, Y) :- p(X, Y).",
        {"e": [(i, i + 1) for i in range(12)] + [(12, 0)]},
    ),
    # q :- q, p probes p on [0] before p :- q copies into it.
    "indexed_head": (
        "p(X, Y) :- e(X, Y).\nq(X, Y) :- f(X, Y).\n"
        "q(X, Z) :- q(X, Y), p(Y, Z).\np(X, Y) :- q(X, Y).",
        {"e": [(i, i + 1) for i in range(10)], "f": [(i, i + 3) for i in range(0, 12, 2)]},
    ),
    "own_head": ("p(X) :- e(X, Y).\np(X) :- p(X).", {"e": [(i, i % 3) for i in range(25)]}),
    "arity1": ("one(X) :- m(X).\nm2(X) :- one(X), m(X).", {"m": [(i,) for i in range(30)]}),
    "arity3": (
        "three(X, Y, Z) :- t(X, Y, Z).\nthree(X, Y, Z) :- t(Z, Y, X).",
        {"t": [(i, i % 4, i * 2) for i in range(30)]},
    ),
}

#: name -> ``PINNED`` counters and the fixpoint digest, recorded from the
#: nested-loop kernel (on both storages; every other counter is 0).
#: ``edb`` was the lone ``p(X, Y) :- e(X, Y).`` — (0, 40, 40, 40, 1, 0,
#: 41) — until such a predicate became a union view (``view``, no work);
#: it now adds ``r``'s one scan, (0, 1, 1, 40, 1, 0, 2) when run alone.
IDENTITY_GOLDEN = {
    "edb": ((0, 41, 41, 80, 2, 0, 43), "ee106f097466cf17"),
    "view": ((0, 0, 0, 0, 0, 0, 0), "2d711642b726b044"),
    "delta": ((26, 351, 338, 520, 196, 1, 378), "9c0c5c356fe621f7"),
    "indexed_head": ((6, 95, 68, 163, 86, 2, 113), "1882fd90bddadbde"),
    "own_head": ((1, 50, 25, 50, 2, 0, 52), "14aa6cc4c4539c46"),
    "arity1": ((0, 60, 60, 60, 32, 0, 62), "1896cf079a511bf8"),
    "arity3": ((0, 60, 59, 60, 2, 0, 62), "0081751da389d4f7"),
}


def _identity_case(name, storage="rows"):
    text, rows = IDENTITY_CASES[name]
    return parse_program(text), Database.from_rows(rows, storage=storage)


def _is_renaming(rule):
    return "r0 - live" in compile_rule(rule, size_of=_unit).source()


@pytest.mark.parametrize("storage", ["rows", "columnar"])
@pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
def test_renaming_rule_counts_what_the_nested_loop_counted(name, storage):
    program, database = _identity_case(name, storage)
    assert any(map(_is_renaming, program.rules))
    expected = model_fixpoint(program, database)
    plain = evaluate(program, database.copy())
    governed = evaluate(program, database.copy(), budget=Governor(Budget(timeout=60), stride=1))
    for result in (plain, governed):
        assert {pred: result.rows(pred) for pred in expected} == expected
        counters = tuple(getattr(result.stats, counter) for counter in PINNED)
        digest = fixpoint_digest([("x", result.idb)])[:16]
        assert (counters, digest) == IDENTITY_GOLDEN[name]
        assert not any(getattr(result.stats, c) for c in _INT_COUNTERS if c not in PINNED)


#: limit -> rows_scanned, facts_derived, rule_firings and the partial's
#: rows per predicate, recorded from the nested-loop kernel.
COPY_TRIPS = {
    # The copy's one bucket passes its check with nothing fresh yet; the
    # check after the firing trips.
    "max_facts": (1000, 1000, 1000, {"p": 500, "c": 500, "loop": 0}),
    # The copy's bucket trips inside the kernel: none of its rows is added.
    "timeout": (1000, 500, 500, {"p": 500, "c": 0, "loop": 0}),
}

#: limit -> a governor that trips once 510 facts are derived or 510 rows
#: scanned, at the default stride.
COPY_BUDGETS = {
    "max_facts": lambda: Budget(max_facts=510),
    "timeout": lambda: _TripAtScanned(511, stride=Governor().stride),
}


@pytest.mark.parametrize("limit", sorted(COPY_TRIPS))
def test_budget_over_a_copy_trips_where_the_nested_loop_did(limit):
    # ``loop`` reads ``c``, so ``c`` is a stored copy, not a union view.
    program = parse_program(
        "p(X, Y) :- e(X, Y).\nc(X, Y) :- p(X, Y).\nloop(X) :- c(X, X).", query="c"
    )
    database = Database.from_rows({"e": [(i, i + 1) for i in range(500)]})
    with pytest.raises(BudgetExceededError) as caught:
        evaluate(program, database, budget=COPY_BUDGETS[limit]())
    assert caught.value.limit == limit
    partial = caught.value.partial
    stats = partial.stats
    sizes = {pred: len(rel) for pred, rel in partial.idb.items()}
    assert (stats.rows_scanned, stats.facts_derived, stats.rule_firings, sizes) == COPY_TRIPS[limit]
    assert stats.facts_derived == sum(sizes.values())


@pytest.mark.parametrize(
    "text",
    [
        "p(X, Y) :- e(X, Y), X < Y.",
        "p(X, Y) :- e(X, Y), not b(X).",
        "p(X, Y) :- e(X, 3, Y).",
        "p(X, 3) :- e(X, 3).",
        "p(X, 7) :- e(X).",
        "p(X) :- e(X, X).",
        "p(Y, X) :- e(X, Y).",
        "p(X) :- e(X, Y).",
        "p(X, Y, X) :- e(X, Y).",
    ],
)
def test_other_single_literal_rules_keep_the_nested_loop(text):
    source = compile_rule(parse_rule(text), size_of=_unit).source()
    assert "for (" in source and "r0 - live" not in source


# ----------------------------------------------------------------------
# Limits of one Python function, and what a kernel assumes of its input
# ----------------------------------------------------------------------
def test_join_longer_than_the_block_limit_chains_kernels():
    hops = 45  # CPython compiles at most 20 nested blocks per function
    body = ", ".join(f"e(X{i}, X{i + 1})" for i in range(hops))
    program = parse_program(f"far(X0, X{hops}) :- {body}, X0 < X{hops}.", query="far")
    assert "def kernel2(" in compile_rule(program.rules[0], size_of=_unit).source()
    database = Database.from_rows({"e": [(i, i + 1) for i in range(hops + 3)]})
    rows = evaluate(program, database.copy())
    assert rows.query_rows() == {(i, i + hops) for i in range(4)}
    assert rows.query_rows() == model_fixpoint(program, database)["far"]
    columnar = evaluate(program, database.to_storage("columnar"))
    for counter in PINNED:
        assert getattr(rows.stats, counter) == getattr(columnar.stats, counter)


def test_rule_scanning_its_own_head_relation_reads_it_unchanged():
    # The kernel iterates p's live row set while it finds new p rows:
    # they wait in ``fresh`` until the loop is over.
    program = parse_program("p(X, Y) :- e(X, Y).\np(X, Y) :- p(Y, X).", query="p")
    database = Database.from_rows({"e": [(i, i + 1) for i in range(200)]})
    expected = {(i, i + 1) for i in range(200)} | {(i + 1, i) for i in range(200)}
    assert model_fixpoint(program, database)["p"] == expected
    assert evaluate(program, database.copy()).query_rows() == expected


def test_head_with_a_repeated_variable_and_a_constant():
    program = parse_program("p(X, X, 7) :- e(X, Y).\np(Y, Y, 7) :- p(X, X, 7), e(X, Y).", query="p")
    database = Database.from_rows({"e": [(1, 2), (1, 3), (2, 4), (5, 5)]})
    slots = evaluate(program, database.copy())
    expected = {(n, n, 7) for n in (1, 2, 3, 4, 5)}
    assert slots.query_rows() == model_fixpoint(program, database)["p"] == expected
    stats = slots.stats
    assert (stats.rule_firings, stats.facts_derived, stats.iterations) == (8, 5, 2)
    # Two matches of e(1, _), one new fact p(1, 1, 7).
    assert slots.stats.rule_firings > slots.stats.facts_derived


@pytest.mark.parametrize("key,rows", [(1, [(1, "a"), (1, "b")]), (1.0, [(1, "a"), (1, "b")]), (9, [])])
def test_one_column_index_is_keyed_by_the_value(key, rows):
    # ``1`` and ``1.0`` are one dict key bare or wrapped; a missing key
    # is an empty bucket, through the kernel and through ``probe``.
    relation = Relation(2, [(1, "a"), (1, "b"), (2, "c")])
    assert sorted(relation.probe((0,), (key,))) == rows
    assert set(relation.index_for((0,))) == {1, 2}
    program = parse_program("q(Y) :- want(X), e(X, Y).", query="q")
    for storage in ("rows", "columnar"):
        database = Database.from_rows({"want": [(key,)], "e": [(1, "a"), (1, "b"), (2, "c")]}, storage=storage)
        assert model_fixpoint(program, database)["q"] == {(row[1],) for row in rows}
        result = evaluate(program, database.copy())
        assert result.query_rows() == {(row[1],) for row in rows}, storage
    relation.add((key, "z"))  # ``add`` files the new row under the same key
    assert sorted(relation.probe((0,), (key,)), key=repr) == sorted(rows + [(key, "z")], key=repr)


def test_relation_of_the_wrong_arity_is_a_typed_error():
    program = parse_program("q(X) :- e(X, Y).", query="q")
    database = Database.from_rows({"e": [(1, 2, 3)]})
    with pytest.raises(ArityMismatch, match="for e: expected 2, got 3"):
        evaluate(program, database)


def test_traceback_inside_a_kernel_shows_the_generated_line():
    program = parse_program("q(X) :- e(X, Y), Y < 3.", query="q")
    database = Database.from_rows({"e": [(2, "abc")]})
    with pytest.raises(TypeError) as caught:
        evaluate(program, database)
    text = "".join(traceback.format_exception(caught.value))
    assert 'File "<plan:' in text
    assert "compare(s1, k0, '<')" in text
    plan = compile_rule(program.rules[0], size_of=_unit)
    name = plan._kernel.__code__.co_filename
    assert name.startswith("<plan:") and name in text
    assert plan.source() == "".join(linecache.getlines(name))
