"""E1 — Example 3.1: the residue selection ``Y > X``.

Compares evaluation of the original goodPath program against the
CGM88-constrained one on growing consistent databases.  The paper's
claim: "by applying the selection Y > X to path(X, Y) we can reduce the
cost of evaluating rule r3".  The selection can only save work that is
ordered after it: with a single end point the default cost order
probes ``endPoint`` first and nothing is left to prune, so the workload
has many end points — the planner then walks ``startPoint``, ``path``,
the filter, and only then probes ``endPoint``.
"""

import pytest

from repro.core.residues import constrain_program
from repro.datalog.evaluation import evaluate
from repro.workloads.generators import good_path_bidirectional_database
from repro.workloads.programs import good_path

SIZES = [10, 40, 80]
NUM_CHAINS = 4


@pytest.fixture(scope="module")
def workload():
    program, constraints = good_path()
    optimized = constrain_program(program, constraints)
    return program, optimized


def _database(chain_length):
    """Bidirectional chains where every node above the highest start
    point is an end point (still consistent with the Example 3.1 ic)."""
    database = good_path_bidirectional_database(
        num_chains=NUM_CHAINS, chain_length=chain_length, seed=0
    )
    floor = max(start for (start,) in database.relation("startPoint", 1))
    for _, node in list(database.relation("step", 2)):
        if node > floor:
            database.add_row("endPoint", (node,))
    return database


def _evaluate_both(workload, chain_length):
    """Original and residue-constrained results; the residue saves one
    ``endPoint`` probe per chain per step, and nothing else moves."""
    program, optimized = workload
    database = _database(chain_length)
    original = evaluate(program, database)
    constrained = evaluate(optimized, database)
    assert constrained.query_rows() == original.query_rows()
    saved = original.stats.probes - constrained.stats.probes
    assert saved == NUM_CHAINS * chain_length
    return original, constrained


@pytest.mark.parametrize("chain_length", SIZES)
def test_selection_prunes_end_point_probes(workload, chain_length):
    """The residue Y > X skips the endPoint probe for every descending
    path emanating from a start point: one per chain per step."""
    _evaluate_both(workload, chain_length)


def experiment():
    from common import Experiment, md_table

    def build():
        program, constraints = good_path()
        workload = program, constrain_program(program, constraints)
        rows = []
        for chain_length in SIZES:
            original, constrained = _evaluate_both(workload, chain_length)
            assert constrained.stats.rows_scanned == original.stats.rows_scanned
            rows.append(
                [
                    chain_length,
                    original.stats.probes,
                    constrained.stats.probes,
                    original.stats.probes - constrained.stats.probes,
                    f"{constrained.stats.probes / original.stats.probes:.3f}×",
                    original.stats.rows_scanned,
                ]
            )
        return md_table(
            [
                "chain length",
                "probes (original)",
                "probes (with residue Y > X)",
                "probes saved",
                "probe ratio",
                "rows scanned (both)",
            ],
            rows,
        )

    return Experiment(
        key="E01",
        title="Example 3.1: the residue selection `Y > X`",
        narrative=(
            "*Paper:* \"by applying the selection Y > X to path(X, Y) we can "
            "reduce the cost of evaluating rule r3\".  *Measured:* on "
            "consistent bidirectional-chain databases with many end points "
            "the CGM88 residue-constrained program answers identically and "
            "saves exactly one `endPoint` probe per descending path tuple out "
            "of a start point (4 chains × chain length) — half of r3's "
            "`endPoint` probes.  The saving is linear in the chain length "
            "while the `path` closure both programs compute is quadratic, so "
            "its share of all probes shrinks from 7 % to 1 %; rows scanned and "
            "facts derived do not move.  (With a single end point the default "
            "cost order probes `endPoint` first and the selection prunes "
            "nothing.)"
        ),
        build=build,
    )
