"""E2 — Section 3 (ic's (1)+(2)): the X >= 100 pushdown.

Sweep over the number of decoy (below-threshold) chains: the original
program materializes every path in the decoy region, the rewritten one
never touches it.  The paper's prediction — the gap grows linearly with
the decoy mass while the optimized cost stays flat — is the shape this
bench exhibits.
"""

import pytest

from repro.core.rewrite import optimize
from repro.datalog.evaluation import evaluate
from repro.workloads.generators import good_path_database
from repro.workloads.programs import good_path_order_constraints

DECOYS = [0, 4, 16]


@pytest.fixture(scope="module")
def workload():
    program, constraints = good_path_order_constraints()
    report = optimize(program, constraints)
    assert report.program is not None
    return program, report


def _database(decoys):
    return good_path_database(
        num_chains=4, chain_length=40, below_threshold_chains=decoys, seed=0
    )


def test_optimized_cost_flat_in_decoys(workload):
    """The headline shape: decoy chains cost the original program linearly
    and the rewritten program (almost) nothing."""
    program, report = workload
    baseline = evaluate(report.program, _database(0)).stats.facts_derived
    loaded = evaluate(report.program, _database(16)).stats.facts_derived
    assert loaded <= baseline * 1.05
    original_baseline = evaluate(program, _database(0)).stats.facts_derived
    original_loaded = evaluate(program, _database(16)).stats.facts_derived
    assert original_loaded > original_baseline * 3


def experiment():
    from common import Experiment, md_table

    def build():
        program, constraints = good_path_order_constraints()
        report = optimize(program, constraints)
        assert report.program is not None
        rows = []
        for decoys in DECOYS:
            database = _database(decoys)
            original = evaluate(program, database)
            rewritten = evaluate(report.program, database)
            assert rewritten.query_rows() == original.query_rows()
            rows.append(
                [
                    decoys,
                    original.stats.facts_derived,
                    rewritten.stats.facts_derived,
                    original.stats.rows_scanned,
                    rewritten.stats.rows_scanned,
                ]
            )
        return md_table(
            [
                "decoy chains",
                "facts (original)",
                "facts (rewritten)",
                "rows scanned (original)",
                "rows scanned (rewritten)",
            ],
            rows,
        )

    return Experiment(
        key="E02",
        title="Section 3, ic's (1)+(2): pushing `X >= 100` into the recursion",
        narrative=(
            "*Paper:* with the start-point threshold constraints, the rewritten "
            "recursive rules carry `X >= 100` and never explore the "
            "below-threshold region.  *Measured:* decoy (below-threshold) "
            "chains cost the original program linearly while the rewritten "
            "program's work stays flat."
        ),
        build=build,
    )
