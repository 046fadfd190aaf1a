"""Budget and Governor semantics."""

import pytest

from repro.datalog.evaluation import EvaluationStats
from repro.robustness import Budget, BudgetExceededError
from repro.robustness.budget import Governor


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestBudget:
    def test_default_is_unlimited(self):
        assert Budget().unlimited is True

    @pytest.mark.parametrize("field", ["timeout", "max_iterations", "max_facts"])
    def test_any_single_limit_makes_it_limited(self, field):
        assert Budget(**{field: 1}).unlimited is False

    def test_is_frozen(self):
        with pytest.raises(Exception):
            Budget().timeout = 1.0


class TestGovernorOf:
    def test_none_budget_yields_none(self):
        assert Governor.of(None) is None

    def test_existing_governor_passes_through(self):
        governor = Governor(Budget(max_facts=1))
        assert Governor.of(governor) is governor

    def test_budget_is_wrapped(self):
        governor = Governor.of(Budget(max_facts=1))
        assert isinstance(governor, Governor)
        assert governor.budget.max_facts == 1


class TestGovernorCheck:
    def test_inactive_governor_is_a_noop(self):
        governor = Governor(Budget())
        stats = EvaluationStats(iterations=10**9, facts_derived=10**9)
        governor.check("evaluate", stats)  # never raises

    def test_max_iterations_boundary_is_strict(self):
        # A fixpoint that takes exactly N rounds must NOT trip a budget
        # of N; round N+1 must.
        governor = Governor(Budget(max_iterations=3))
        governor.check("evaluate", EvaluationStats(iterations=3))
        with pytest.raises(BudgetExceededError, match="3-iteration"):
            governor.check("evaluate", EvaluationStats(iterations=4))

    def test_max_facts_boundary_is_strict(self):
        governor = Governor(Budget(max_facts=5))
        governor.check("evaluate", EvaluationStats(facts_derived=5))
        with pytest.raises(BudgetExceededError, match="5 facts"):
            governor.check("evaluate", EvaluationStats(facts_derived=6))

    def test_trip_records_phase_and_limit(self):
        governor = Governor(Budget(max_facts=1))
        with pytest.raises(BudgetExceededError) as info:
            governor.check("evaluate", EvaluationStats(facts_derived=2))
        assert info.value.phase == "evaluate"
        assert info.value.limit == "max_facts"

    def test_timeout_uses_the_injected_clock(self):
        clock = FakeClock()
        governor = Governor(Budget(timeout=10.0), clock=clock)
        clock.now = 9.5
        governor.check("evaluate")
        assert governor.remaining() == pytest.approx(0.5)
        clock.now = 10.5
        with pytest.raises(BudgetExceededError) as info:
            governor.check("evaluate")
        assert info.value.limit == "timeout"

    def test_check_without_stats_only_checks_the_clock(self):
        governor = Governor(Budget(max_facts=0))
        governor.check("pipeline")  # no stats -> nothing to compare


class TestTickAndExpand:
    def test_tick_is_strided(self):
        clock = FakeClock()
        governor = Governor(Budget(timeout=1.0), clock=clock, stride=4)
        clock.now = 2.0  # already past the deadline
        governor.tick("evaluate")
        governor.tick("evaluate")
        governor.tick("evaluate")  # ticks 1-3: no clock read yet
        with pytest.raises(BudgetExceededError):
            governor.tick("evaluate")  # tick 4 hits the stride

    def test_tick_scan_adds_the_kernels_unflushed_counts(self):
        clock = FakeClock()
        governor = Governor(Budget(timeout=1.0, max_facts=10), clock=clock, stride=4)
        stats = EvaluationStats(facts_derived=6, rows_scanned=90)
        assert governor.tick_scan("rule", stats, 10, 4) == 14  # exactly at the limit
        with pytest.raises(BudgetExceededError, match="10 facts") as info:
            governor.tick_scan("rule", stats, 10, 5)
        assert (info.value.phase, info.value.limit) == ("rule", "max_facts")
        clock.now = 2.0
        with pytest.raises(BudgetExceededError, match="deadline"):
            governor.tick_scan("rule", stats, 0, 0)

    def test_expansions_accumulate_across_phases(self):
        # Adornment steps and query-tree expansions tick one shared
        # governor, so its stride counts both: the deadline is polled
        # every ``stride`` expansions of the whole command.
        clock = FakeClock()
        governor = Governor(Budget(timeout=1.0), clock=clock, stride=4)
        clock.now = 2.0
        governor.tick("adornments")
        governor.tick("adornments")
        governor.tick("querytree")
        with pytest.raises(BudgetExceededError) as info:
            governor.tick("querytree")
        assert (info.value.phase, info.value.limit) == ("querytree", "timeout")
