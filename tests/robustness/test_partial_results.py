"""Property: a budget-tripped evaluation yields a *subset* of the fixpoint.

Bottom-up evaluation only ever adds facts (negation is EDB-only), so a
run interrupted at any cooperative checkpoint must hold a partial IDB
contained in the unbounded fixpoint — the engine's own, and the
independent model's (``tests/reference_model.py``).  Random workloads
from the generator module include negated EDB literals and order atoms,
so the property is exercised on the full program class of the paper.
"""

import pytest

from reference_model import model_fixpoint
from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_program
from repro.robustness import Budget, BudgetExceededError, Governor
from repro.workloads.generators import random_database, random_program

SEEDS = range(8)
#: who computes the unbounded fixpoint: the engine, or the model
REFERENCES = ("slots", "model")


def _workload(seed):
    program = random_program(seed)
    database = random_database(seed + 1, nodes=10, edges=30)
    return program, database


def _idb_rows(result):
    # Every IDB predicate, union views (stored nowhere) included.
    return {
        predicate: result.rows(predicate)
        for predicate in result.program.idb_predicates
    }


def _full(program, database, reference):
    if reference == "model":
        return model_fixpoint(program, database)
    return _idb_rows(evaluate(program, database.copy()))


def _is_subset(partial, full):
    for predicate, rows in partial.items():
        if not rows <= full.get(predicate, frozenset()):
            return False
    return True


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("seed", SEEDS)
def test_tiny_fact_budget_yields_partial_subset_of_fixpoint(seed, reference):
    program, database = _workload(seed)
    full = _full(program, database, reference)
    total = sum(len(rows) for rows in full.values())
    if total < 2:
        pytest.skip("fixpoint too small to interrupt")
    with pytest.raises(BudgetExceededError) as info:
        evaluate(program, database.copy(), budget=Budget(max_facts=1))
    exc = info.value
    assert exc.phase == "evaluate"
    assert exc.partial is not None and exc.stats is not None
    assert exc.stats.budget_trips == 1
    assert exc.stats.wall_time_seconds > 0.0
    partial = _idb_rows(exc.partial)
    assert _is_subset(partial, full)
    assert sum(len(rows) for rows in partial.values()) < total


#: One rule, 60 ``n`` rows: 216 000 facts from a single firing.
CROSS_PRODUCT = "c(X, Y, Z) :- n(X), n(Y), n(Z)."


class _RowsClock(Governor):
    """A deadline measured in rows: the clock reads the rows scanned as
    of the kernel's last checkpoint, so ``Budget(timeout=1000)`` passes
    its deadline once the join has scanned more than 1 000 rows."""

    def __init__(self, budget):
        self.now = 0
        super().__init__(budget, clock=lambda: self.now)

    def tick_scan(self, phase, stats, scanned, fresh):
        self.now = stats.rows_scanned + scanned
        return super().tick_scan(phase, stats, scanned, fresh)


@pytest.mark.parametrize(
    "budget,limit",
    [(Budget(max_facts=1000), "max_facts"), (Budget(timeout=1000), "timeout")],
)
def test_count_limits_bind_inside_a_single_rule_firing(budget, limit):
    # Both limits used to be read between firings only: this join ran
    # to its 216 000 facts before the error.  The kernel now reads the
    # clock and compares the facts it holds unflushed at every stride
    # of scanned rows.
    stride = Governor().stride
    program = parse_program(CROSS_PRODUCT, query="c")
    database = Database.from_rows({"n": [(i,) for i in range(60)]})
    with pytest.raises(BudgetExceededError) as info:
        evaluate(program, database, budget=_RowsClock(budget))
    exc = info.value
    assert exc.limit == limit
    # Overshoot: one stride, plus the 60-row buckets in hand at each depth.
    assert 1000 < exc.stats.rows_scanned < 1000 + stride + 3 * 60
    # The aborted firing contributes nothing to the partial fixpoint.
    assert exc.stats.facts_derived == 0 and not exc.partial.rows("c")
    assert exc.stats.budget_trips == 1 and exc.stats.rule_firings == 0


@pytest.mark.parametrize("reference", REFERENCES)
def test_budget_of_exactly_the_fixpoint_cost_never_trips(reference):
    # Running again with limits set to the measured fixpoint cost must
    # reach the same fixpoint without tripping: budgets are strict
    # bounds, not off-by-one tripwires.
    program, database = _workload(0)
    full = evaluate(program, database.copy())
    bounded = evaluate(
        program,
        database.copy(),
        budget=Budget(
            max_iterations=full.stats.iterations,
            max_facts=full.stats.facts_derived,
        ),
    )
    assert _idb_rows(bounded) == _full(program, database, reference)
    assert bounded.stats.budget_trips == 0


@pytest.mark.parametrize("reference", REFERENCES)
def test_spent_deadline_aborts_with_empty_or_partial_idb(reference):
    program, database = _workload(1)
    full = _full(program, database, reference)
    with pytest.raises(BudgetExceededError) as info:
        evaluate(program, database.copy(), budget=Budget(timeout=0.0))
    assert info.value.limit == "timeout"
    assert _is_subset(_idb_rows(info.value.partial), full)


def test_iteration_budget_partial_matches_silent_truncation_shape():
    # One round short of the fixpoint: the exception names the limit
    # and carries what the completed rounds derived.
    program, database = _workload(2)
    full = evaluate(program, database.copy())
    if full.stats.iterations < 2:
        pytest.skip("need a multi-round fixpoint")
    budget = full.stats.iterations - 1
    with pytest.raises(BudgetExceededError) as info:
        evaluate(program, database.copy(), budget=Budget(max_iterations=budget))
    partial = _idb_rows(info.value.partial)
    assert _is_subset(partial, _idb_rows(full))
    assert info.value.limit == "max_iterations"
