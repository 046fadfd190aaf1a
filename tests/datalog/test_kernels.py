"""The generated row kernels: one nested-loop function per plan shape.

What the closure chain guaranteed implicitly has to be pinned now that
``plan.py`` hands source text to ``compile()``: no program text ever
reaches that source, the code cache is bounded, an abort inside a
kernel reports exactly the work the closure chain reported, provenance
is unchanged, and the three executors agree on shapes the canonical
workloads never produce (arity 0 and 1, constants, repeated variables).
"""

import linecache
import random
import traceback

import pytest

import repro.datalog.evaluation as evaluation
from repro.datalog.atoms import Atom, Literal, OrderAtom
from repro.datalog.database import ArityMismatch, Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_atom, parse_constraints, parse_program, parse_rule
from repro.datalog.plan import _compiled_kernel, compile_rule
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.digest import fixpoint_digest
from repro.magic import run_pipeline
from repro.robustness.budget import CancellationToken, Governor
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
    for source in _sources(hostile):
        for fragment in ("import", "os", '"', "%", "{", "\\", "SystemExit"):
            assert fragment not in source, source
    # ... and the hostile program evaluates like the benign one.
    rename = {BENIGN["c"]: HOSTILE["c"], BENIGN["d"]: HOSTILE["d"]}
    expected = {
        tuple(rename.get(value, value) for value in row)
        for row in evaluate(benign, benign_db, engine="interpreted").query_rows()
    }
    assert expected
    for engine in ("slots", "interpreted"):
        assert evaluate(hostile, hostile_db.copy(), engine=engine).query_rows() == expected


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
class _TripOnRow(Governor):
    """Trips the budget on the k-th row a kernel emits."""

    __slots__ = ("left",)

    def __init__(self, k):
        super().__init__(cancellation=CancellationToken())
        self.left = k

    def tick(self, phase):
        self.left -= 1
        if not self.left:
            self._trip(BudgetExceededError, phase, "timeout", "test trip")


ABORT_WORKLOADS = {
    "ab": lambda: (ab_transitive_closure()[0], ab_database(10, 10)),
    "goodpath": lambda: (good_path()[0], good_path_database(3, 6)),
    "random3": lambda: random_workload(3)[:2],
    "random5": lambda: random_workload(5)[:2],
}

#: (workload, k) -> probes, rows_scanned, env_allocations, budget_trips,
#: rule_firings, facts_derived, partial-fixpoint digest — recorded from
#: the closure-chain executor at the commit before the generated kernels.
ABORT_GOLDEN = {
    ("ab", 1): (1, 16, 1, 1, 0, 0, "e6cefa4a7911ebaf"),
    ("ab", 7): (1, 16, 1, 1, 0, 0, "e6cefa4a7911ebaf"),
    ("ab", 40): (24, 75, 35, 1, 32, 32, "1e09d66d7878af4d"),
    ("ab", 150): (212, 356, 159, 1, 147, 103, "e700d5e56dbe868a"),
    ("goodpath", 2): (1, 30, 1, 1, 0, 0, "d1495a64fdbece72"),
    ("goodpath", 40): (15, 70, 32, 1, 30, 30, "eec1e8fc3d9ea2d3"),
    ("random3", 40): (14, 63, 25, 1, 23, 23, "0e47d39068d6aef3"),
    ("random3", 150): (40, 197, 77, 1, 74, 57, "cd399b06d9d1969d"),
    ("random3", 600): (106, 710, 206, 1, 202, 83, "76658721532986b6"),
    ("random5", 1): (3, 5, 1, 1, 0, 0, "93a6010a4946bbb8"),
    ("random5", 2): (4, 6, 1, 1, 0, 0, "93a6010a4946bbb8"),
    ("random5", 7): (7, 16, 7, 1, 5, 5, "bd9001eb99fe5771"),
    ("random5", 40): (30, 65, 37, 1, 31, 17, "36b48c24c23682a1"),
    ("random5", 150): (99, 254, 124, 1, 115, 79, "711fa545dcd02635"),
}


@pytest.mark.parametrize("workload,k", sorted(ABORT_GOLDEN))
def test_abort_inside_a_kernel_reports_the_closure_chains_work(workload, k):
    program, database = ABORT_WORKLOADS[workload]()
    with pytest.raises(BudgetExceededError) as caught:
        evaluate(program, database, budget=_TripOnRow(k))
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


# ----------------------------------------------------------------------
# (d) provenance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(ABORT_WORKLOADS))
def test_provenance_supports_match_the_interpreter(workload):
    program, database = ABORT_WORKLOADS[workload]()
    slots = evaluate(program, database.copy(), provenance=True)
    interpreted = evaluate(program, database.copy(), engine="interpreted", provenance=True)
    plain = evaluate(program, database.copy())
    # The interpreter joins in greedy order and the kernels in cost order,
    # so which derivation of a fact comes first may differ: the same
    # facts are explained, each by a sound instance of one of its rules.
    assert slots.provenance and slots.provenance.keys() == interpreted.provenance.keys()
    for (predicate, row), (rule, supports) in slots.provenance.items():
        assert rule.head.predicate == predicate
        assert [s[0] for s in supports] == [l.predicate for l in rule.positive_literals]
        for support_predicate, support_row in supports:
            if support_predicate in program.idb_predicates:
                assert support_row in slots.rows(support_predicate)
            else:
                assert database.contains(support_predicate, support_row)
    # The batch insert (provenance off) derives the same facts and counts.
    assert slots.idb.keys() == plain.idb.keys()
    for predicate in plain.idb:
        assert slots.rows(predicate) == plain.rows(predicate)
    for counter in ("probes", "rows_scanned", "rule_firings", "facts_derived", "iterations"):
        assert getattr(slots.stats, counter) == getattr(plain.stats, counter)


# ----------------------------------------------------------------------
# (e) the three executors agree on every step shape
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

PINNED = ("iterations", "rule_firings", "facts_derived", "rows_scanned", "probes", "index_builds")


def _with_extras(seed):
    program, database, _ = random_workload(seed)
    extras = [parse_rule(line) for line in EXTRA_RULES.strip().splitlines()]
    database.add_row("on", ())
    return Program(program.rules + tuple(extras), query="q"), database


@pytest.mark.parametrize("seed", range(12))
def test_executors_agree_on_digest_and_counters(seed):
    program, database = _with_extras(seed)
    rows = evaluate(program, database.copy())
    columnar = evaluate(program, database.to_storage("columnar"))
    interpreted = evaluate(program, database.copy(), engine="interpreted")
    digest = fixpoint_digest([("x", interpreted.idb)])
    assert fixpoint_digest([("x", rows.idb)]) == digest
    assert fixpoint_digest([("x", columnar.idb)]) == digest
    for counter in PINNED:
        assert getattr(rows.stats, counter) == getattr(columnar.stats, counter), counter
    assert rows.stats.rows_scanned_by_rule == columnar.stats.rows_scanned_by_rule
    # Firings and rounds are properties of the program, not of the engine.
    for counter in ("iterations", "rule_firings", "facts_derived"):
        assert getattr(rows.stats, counter) == getattr(interpreted.stats, counter), counter


# ----------------------------------------------------------------------
# Limits of one Python function, and what a kernel assumes of its input
# ----------------------------------------------------------------------
def test_join_longer_than_the_block_limit_chains_kernels():
    hops = 45  # CPython compiles at most 20 nested blocks per function
    body = ", ".join(f"e(X{i}, X{i + 1})" for i in range(hops))
    program = parse_program(f"far(X0, X{hops}) :- {body}, X0 < X{hops}.", query="far")
    database = Database.from_rows({"e": [(i, i + 1) for i in range(hops + 3)]})
    results = {
        engine: evaluate(program, database.copy(), engine=engine)
        for engine in ("slots", "interpreted")
    }
    assert results["slots"].query_rows() == {(i, i + hops) for i in range(4)}
    assert results["slots"].query_rows() == results["interpreted"].query_rows()
    columnar = evaluate(program, database.to_storage("columnar"))
    for counter in PINNED:
        assert getattr(results["slots"].stats, counter) == getattr(columnar.stats, counter)


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
