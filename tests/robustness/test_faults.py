"""The chaos harness: deterministic faults at the engine's trace sites.

Covers four distinct injection sites (``plan``, ``index_build``,
``span:scc``, ``span:pipeline.stage``) plus the optimizer span, and
asserts each one ends exactly like a real budget trip: partial
fixpoints out of the evaluation engine, a typed abort with ``phase``
set out of the pipeline and the optimizer.
"""

import pytest

from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_atom
from repro.magic.pipeline import run_pipeline
from repro.observability import RingBufferSink
from repro.robustness import Budget, FaultInjector, InjectedFault
from repro.robustness.faults import chaos
from repro.workloads.generators import good_path_bidirectional_database, random_workload
from repro.workloads.programs import good_path


@pytest.fixture()
def workload():
    program, constraints = good_path()
    database = good_path_bidirectional_database(num_chains=2, chain_length=8, seed=0)
    return program, constraints, database


def _full_rows(program, database):
    result = evaluate(program, database.copy())
    return {pred: rel.rows() for pred, rel in result.idb.items()}


class TestInjector:
    def test_occurrences_start_at_one(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.arm("plan", at=0)

    def test_arm_fires_the_exact_occurrence(self):
        injector = FaultInjector().arm("plan", at=3)
        injector.observe("plan", {})
        injector.observe("plan", {})
        with pytest.raises(InjectedFault) as info:
            injector.observe("plan", {})
        assert info.value.site == "plan"
        assert info.value.occurrence == 3
        assert injector.fired == [("plan", 3)]

    def test_sites_are_counted_independently(self):
        injector = FaultInjector().arm("index_build", at=1)
        injector.observe("plan", {})
        with pytest.raises(InjectedFault):
            injector.observe("index_build", {})
        assert injector.counts == {"plan": 1, "index_build": 1}

    def test_arm_random_is_deterministic_by_seed(self):
        def fire_pattern(seed):
            injector = FaultInjector(seed).arm_random("iteration", rate=0.3)
            pattern = []
            for _ in range(50):
                try:
                    injector.observe("iteration", {})
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        assert fire_pattern(7) == fire_pattern(7)
        assert fire_pattern(7) != fire_pattern(8)


class TestEvaluationFaults:
    @pytest.mark.parametrize("site", ["plan", "index_build", "span:scc"])
    def test_fault_yields_partial_subset(self, workload, site):
        program, _, database = workload
        full = _full_rows(program, database)
        injector = FaultInjector().arm(site)
        with chaos(injector):
            with pytest.raises(InjectedFault) as info:
                evaluate(program, database.copy())
        exc = info.value
        assert exc.site == site
        assert exc.partial is not None and exc.stats is not None
        assert exc.stats.budget_trips == 1
        for pred, rel in exc.partial.idb.items():
            assert rel.rows() <= full.get(pred, frozenset())
        assert injector.fired == [(site, 1)]

    def test_fault_is_reported_like_a_budget_trip(self, workload):
        program, _, database = workload
        sink = RingBufferSink()
        injector = FaultInjector().arm("span:scc")
        with chaos(injector, sink):
            with pytest.raises(InjectedFault):
                evaluate(program, database.copy())
        names = [record.name for record in sink]
        assert "budget.trip" in names

    def test_later_occurrence_faults_later(self, workload):
        # Same site, later occurrence: more of the fixpoint survives.
        program, _, database = workload
        first = FaultInjector().arm("iteration", at=1)
        with chaos(first):
            with pytest.raises(InjectedFault) as early:
                evaluate(program, database.copy())
        later = FaultInjector().arm("iteration", at=3)
        with chaos(later):
            with pytest.raises(InjectedFault) as late:
                evaluate(program, database.copy())
        early_facts = early.value.stats.facts_derived
        late_facts = late.value.stats.facts_derived
        assert early_facts <= late_facts


class TestPipelineFaults:
    def test_faulted_stage_surfaces_as_injected_fault(self, workload):
        program, constraints, _ = workload
        injector = FaultInjector().arm("span:pipeline.stage", at=1)
        with chaos(injector):
            with pytest.raises(InjectedFault) as info:
                run_pipeline(
                    program,
                    constraints,
                    parse_atom("goodPath(1, Y)"),
                    budget=Budget(max_facts=10**9),
                )
        assert info.value.site == "span:pipeline.stage"
        assert info.value.phase == "pipeline"

    def test_optimizer_fault_surfaces_as_injected_fault(self, workload):
        program, constraints, _ = workload
        injector = FaultInjector().arm("span:optimize.adornments", at=1)
        with chaos(injector):
            from repro.core.rewrite import optimize

            with pytest.raises(InjectedFault) as info:
                optimize(program, constraints, budget=Budget(max_facts=10**9))
        assert info.value.site == "span:optimize.adornments"
        assert info.value.phase == "optimize"

    def test_chaos_restores_the_previous_tracer(self):
        from repro.observability import get_tracer

        before = get_tracer()
        with chaos(FaultInjector()):
            assert get_tracer() is not before
        assert get_tracer() is before


class TestArmRandomDeterminism:
    @staticmethod
    def _fired(run=evaluate, seed=13, rate=0.35):
        program, database, _ = random_workload(5, nodes=6, edges=18)
        injector = FaultInjector(seed).arm_random("iteration", rate=rate)
        with chaos(injector):
            try:
                run(program, database)
            except InjectedFault:
                pass
        return list(injector.fired)

    def test_same_seed_same_faults_on_both_storages(self):
        # ``iteration`` fires once per semi-naive round on both storages,
        # and the rng draw sequence depends only on the observation
        # sequence — so the faulted occurrences agree.
        rows = self._fired()
        columnar = self._fired(
            lambda program, database: evaluate(program, database.to_storage("columnar"))
        )
        assert rows == columnar
        assert rows, "the random arm must fire at least once"

    def test_different_seed_differs(self):
        # Seed 13 first fires at occurrence 1, seed 0 at occurrence 4
        # (the workload runs 7 rounds) — different seeds, different
        # faulted occurrences.
        assert self._fired(seed=13) != self._fired(seed=0)
