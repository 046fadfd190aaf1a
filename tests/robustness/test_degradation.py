"""One ending for a governed rewrite: a program or a typed abort.

``optimize()`` and ``run_pipeline()`` never answer a tripped limit with
a cheaper program: the budget trip, the cancellation or the injected
fault surfaces with ``phase`` set, and no report comes back that could
be mistaken for the complete rewrite.
"""

import dataclasses

import pytest

from repro.core.adornments import AdornmentLimitError
from repro.core.rewrite import OptimizationReport, optimize
from repro.datalog.parser import parse_atom
from repro.magic.pipeline import PipelineReport, run_pipeline
from repro.robustness import (
    Budget,
    BudgetExceededError,
    Cancelled,
    CancellationToken,
)
from repro.workloads.programs import good_path


@pytest.fixture()
def workload():
    return good_path()


def _field_names(report_type):
    return {f.name for f in dataclasses.fields(report_type)}


class TestOptimizeLadder:
    def test_ungoverned_run_has_no_fallbacks(self, workload):
        program, constraints = workload
        report = optimize(program, constraints)
        assert "fallback_chain" not in _field_names(OptimizationReport)
        assert report.tree.roots and report.adornment_result.adornments

    def test_ungoverned_adornment_guard_still_raises(self, workload):
        program, constraints = workload
        with pytest.raises(RuntimeError):
            optimize(program, constraints, max_adornments=0)
        # The guard error is also a structured budget error, and a
        # budget does not change what it means.
        with pytest.raises(AdornmentLimitError) as ungoverned:
            optimize(program, constraints, max_adornments=0)
        with pytest.raises(AdornmentLimitError) as governed:
            optimize(
                program, constraints, max_adornments=0, budget=Budget(max_facts=10**9)
            )
        assert str(governed.value) == str(ungoverned.value)
        assert governed.value.phase == ungoverned.value.phase == "adornments"

    @pytest.mark.parametrize(
        "budget, limit",
        [(Budget(max_expansions=1), "max_expansions"), (Budget(timeout=0.0), "timeout")],
        ids=["expansions", "timeout"],
    )
    def test_tripped_limit_aborts(self, workload, budget, limit):
        program, constraints = workload
        with pytest.raises(BudgetExceededError) as info:
            optimize(program, constraints, budget=budget)
        assert info.value.limit == limit
        assert info.value.phase in {"optimize", "adornments", "querytree"}

    def test_cancellation_is_never_degraded(self, workload):
        program, constraints = workload
        token = CancellationToken()
        token.cancel()
        with pytest.raises(Cancelled):
            optimize(program, constraints, cancellation=token)


class TestPipelineDegradation:
    QUERY = "goodPath(1, Y)"

    def test_ungoverned_pipeline_has_no_fallbacks(self, workload):
        program, constraints = workload
        report = run_pipeline(program, constraints, parse_atom(self.QUERY))
        assert "fallback_chain" not in _field_names(PipelineReport)
        assert report.satisfiable is True
        assert [s.name for s in report.stages] == ["semantic rewrite", "magic transform"]

    @pytest.mark.parametrize(
        "budget, phases",
        [
            (Budget(timeout=0.0), {"pipeline"}),
            (Budget(max_expansions=1), {"adornments", "querytree"}),
        ],
        ids=["timeout", "expansions"],
    )
    def test_tripped_limit_aborts(self, workload, budget, phases):
        program, constraints = workload
        with pytest.raises(BudgetExceededError) as info:
            run_pipeline(program, constraints, parse_atom(self.QUERY), budget=budget)
        assert info.value.phase in phases

    def test_pipeline_cancellation_propagates(self, workload):
        program, constraints = workload
        token = CancellationToken()
        token.cancel()
        with pytest.raises(Cancelled):
            run_pipeline(
                program, constraints, parse_atom(self.QUERY), cancellation=token
            )

    def test_fact_budget_trips_pipeline_evaluation(self, workload):
        from repro.workloads.generators import good_path_bidirectional_database

        program, constraints = workload
        report = run_pipeline(program, constraints, parse_atom(self.QUERY))
        database = good_path_bidirectional_database(
            num_chains=2, chain_length=8, seed=0
        )
        with pytest.raises(BudgetExceededError) as info:
            # The goal reaches no start point, so the magic seed is the
            # one fact the evaluation derives.
            report.evaluation(database, budget=Budget(max_facts=0))
        assert info.value.partial is not None
