"""E3 — the a/b running example end-to-end.

The rewritten program "will not attempt to create paths in which arcs
of a are followed by arcs of b (thereby saving the effort involved in
performing joins that are guaranteed to be empty)".  The saving shows
in index probes and rows scanned.  The query predicate ``p`` is read as
the union of its classes p1/p2/p3, never copied, so the rewritten
program derives exactly the original's facts.
"""

import pytest

from repro.core.rewrite import optimize
from repro.datalog.evaluation import evaluate
from repro.workloads.generators import ab_database
from repro.workloads.programs import ab_transitive_closure

SIZES = [20, 40, 80]


@pytest.fixture(scope="module")
def workload():
    program, constraints = ab_transitive_closure()
    report = optimize(program, constraints)
    assert report.program is not None
    return program, report


def _database(size):
    return ab_database(num_b=size, num_a=size, branching=2, seed=0)


def test_probe_savings_hold(workload):
    """Cross-size check: the rewriting consistently probes and scans
    less, and derives no more facts than the original."""
    program, report = workload
    for size in SIZES:
        database = _database(size)
        original = evaluate(program, database)
        rewritten = evaluate(report.program, database)
        assert rewritten.stats.probes < original.stats.probes
        assert rewritten.stats.rows_scanned < original.stats.rows_scanned
        assert rewritten.stats.facts_derived <= original.stats.facts_derived


def experiment():
    from common import Experiment, work_ratio_table

    def build():
        program, constraints = ab_transitive_closure()
        report = optimize(program, constraints)
        assert report.program is not None
        parts = []
        for size in SIZES:
            database = _database(size)
            original = evaluate(program, database)
            rewritten = evaluate(report.program, database)
            assert rewritten.query_rows() == original.query_rows()
            assert rewritten.stats.probes < original.stats.probes
            parts.append(f"{size} a-edges + {size} b-edges:")
            parts.append(
                work_ratio_table(
                    [
                        ("original", original.stats.as_dict()),
                        ("rewritten (p1/p2/p3)", rewritten.stats.as_dict()),
                    ]
                )
            )
        return "\n\n".join(parts)

    return Experiment(
        key="E03",
        title="the a/b running example end-to-end",
        narrative=(
            "*Paper:* the rewritten program \"will not attempt to create paths "
            "in which arcs of a are followed by arcs of b\".  *Measured:* "
            "probes and rows scanned drop at every size, and the rewritten "
            "program derives exactly the original's facts: the query "
            "predicate `p` is read as the union of p1/p2/p3, never copied."
        ),
        build=build,
    )
