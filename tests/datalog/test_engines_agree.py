"""Engine agreement: compiled plans, the interpreter and naive
evaluation compute identical fixpoints on random workloads — under both
storage backends.  Only the first config is reachable from a command or
the daemon; the rest are the references, built by direct call.

``random_workload`` draws recursive programs that include negated EDB
literals and order-atom filters, so the property exercises every step
kind of the compiled engine against the seed interpreter and the naive
oracle.  The storage axis crosses every engine/strategy config with
``rows`` and ``columnar``, so the block-kernel path and the
tuple-at-a-time path are held to the same answers on every workload.
"""

import pytest

from repro.datalog.database import STORAGES
from repro.datalog.evaluation import evaluate
from repro.parallel import evaluate_sharded
from repro.digest import fixpoint_digest
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceededError
from repro.workloads.generators import random_workload
from repro.workloads.programs import good_path
from repro.workloads.generators import good_path_bidirectional_database

ENGINE_CONFIGS = (
    {"engine": "slots"},
    {"engine": "interpreted"},
    {"engine": "slots", "strategy": "naive"},
    {"engine": "interpreted", "strategy": "naive"},
)

# The full storage × engine × strategy agreement matrix.
CONFIGS = tuple(
    {**config, "storage": storage}
    for storage in STORAGES
    for config in ENGINE_CONFIGS
)


def _fixpoint(program, database, storage, **kwargs):
    result = evaluate(program, database.to_storage(storage), **kwargs)
    return {pred: result.rows(pred) for pred in program.idb_predicates}


@pytest.mark.parametrize("seed", range(20))
def test_all_engines_agree_on_random_workloads(seed):
    program, database, _ = random_workload(seed)
    fixpoints = [
        _fixpoint(program, database.copy(), **config) for config in CONFIGS
    ]
    for other in fixpoints[1:]:
        assert other == fixpoints[0]


@pytest.mark.parametrize("seed", range(20, 26))
def test_engines_agree_on_denser_graphs(seed):
    program, database, _ = random_workload(seed, nodes=8, edges=40)
    fixpoints = [
        _fixpoint(program, database.copy(), **config) for config in CONFIGS
    ]
    for other in fixpoints[1:]:
        assert other == fixpoints[0]


# ----------------------------------------------------------------------
# The workers axis: the multiprocess sharded evaluator (repro.parallel)
# held to the sequential slot engine.  A WorkerPool is bound to one
# program + EDB, so every seed costs a fresh fork — seeds are pooled
# inside each worker-count case instead of crossed into the parametrize
# grid to keep the fork bill bounded.

WORKER_COUNTS = (1, 2, 4)

#: ``random_workload`` draws negated EDB literals and order-atom
#: filters at these seeds; the denser draws run enough semi-naive
#: rounds to exercise repeated barrier merges.
SHARDED_SEEDS = (
    (0, {}),
    (3, {}),
    (7, {}),
    (21, {"nodes": 8, "edges": 40}),
    (24, {"nodes": 8, "edges": 40}),
)


def _digest(result):
    return fixpoint_digest([("workload", result.idb)])


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sharded_evaluator_matches_sequential_slots(workers):
    """``evaluate_sharded`` must reproduce the sequential slot engine
    exactly: same fixpoint digest, same iteration count, and the
    same join-work counters — sharding redistributes the work, it never
    changes it (docs/parallel.md)."""
    for seed, kwargs in SHARDED_SEEDS:
        program, database, _ = random_workload(seed, **kwargs)
        sequential = evaluate(program, database.to_storage("columnar"))
        sharded = evaluate_sharded(
            program, database.to_storage("columnar"), workers=workers
        )
        label = f"seed={seed} workers={workers}"
        assert _digest(sharded) == _digest(sequential), label
        assert sharded.stats.iterations == sequential.stats.iterations, label
        assert sharded.stats.rule_firings == sequential.stats.rule_firings, label
        assert sharded.stats.facts_derived == sequential.stats.facts_derived, label
        assert sharded.stats.rows_scanned == sequential.stats.rows_scanned, label
        assert (
            sharded.stats.rows_scanned_by_rule
            == sequential.stats.rows_scanned_by_rule
        ), label
        assert sharded.shards is not None and sharded.shards["workers"] == workers


@pytest.mark.parametrize("storage", STORAGES)
def test_sharded_evaluator_agrees_across_input_storages(storage):
    """The sharded evaluator accepts either storage backend as input
    (converting to columnar for the hand-off) and lands on the same
    digest either way."""
    program, database, _ = random_workload(21, nodes=8, edges=40)
    sequential = evaluate(program, database.to_storage(storage))
    sharded = evaluate_sharded(program, database.to_storage(storage), workers=2)
    assert _digest(sharded) == _digest(sequential)
    assert sharded.stats.iterations == sequential.stats.iterations


def test_sharded_budget_trip_partial_is_subset_of_fixpoint():
    """A budget trip mid-fleet aborts every worker and merges what was
    accepted so far: the partial IDB must be a subset of the true
    fixpoint, with merged stats and a sharding report attached."""
    program, database, _ = random_workload(21, nodes=8, edges=40)
    full = evaluate(program, database.to_storage("columnar"))
    with pytest.raises(BudgetExceededError) as info:
        evaluate_sharded(
            program,
            database.to_storage("columnar"),
            workers=4,
            budget=Budget(max_facts=1),
        )
    exc = info.value
    assert exc.partial is not None and exc.stats is not None
    for predicate, relation in exc.partial.idb.items():
        assert set(relation.rows()) <= set(full.rows(predicate)), predicate
    derived = sum(len(rel) for rel in exc.partial.idb.values())
    assert derived < sum(len(full.rows(p)) for p in program.idb_predicates)
    assert exc.partial.shards is not None and exc.partial.shards["workers"] == 4


def test_storages_agree_on_example31():
    """Example 3.1 (the paper's goodPath workload): both storage
    backends compute identical answers under the compiled engine, and
    the slot-level work counters (probes, rows scanned, facts derived)
    are exactly equal — the columnar backend batches the same work, it
    does not do different work."""
    program, _ = good_path()
    database = good_path_bidirectional_database(num_chains=3, chain_length=12, seed=0)

    rows = evaluate(program, database.copy())
    columnar = evaluate(program, database.to_storage("columnar"))

    assert columnar.query_rows() == rows.query_rows()
    assert columnar.stats.probes == rows.stats.probes
    assert columnar.stats.rows_scanned == rows.stats.rows_scanned
    assert columnar.stats.facts_derived == rows.stats.facts_derived
    assert columnar.stats.rule_firings == rows.stats.rule_firings
    assert columnar.stats.iterations == rows.stats.iterations
    # Only the batching-specific counters diverge: the columnar engine
    # allocates one environment block per kernel call, not one per row,
    # and counts each kernel invocation as a block probe.
    assert columnar.stats.block_probes > 0
    assert rows.stats.block_probes == 0
    assert columnar.stats.env_allocations < rows.stats.env_allocations


def test_example31_rows_scanned_regression():
    """The compiled cost-ordered engine must scan strictly fewer rows
    than the seed interpreter on the Example 3.1 workload, with
    identical answers."""
    program, _ = good_path()
    database = good_path_bidirectional_database(num_chains=3, chain_length=12, seed=0)

    interpreted = evaluate(program, database.copy(), engine="interpreted")
    cost = evaluate(program, database.copy())

    assert cost.query_rows() == interpreted.query_rows()
    assert cost.stats.rows_scanned < interpreted.stats.rows_scanned

    # The per-rule attribution exists for every rule that scanned rows,
    # and adds up to the total.
    assert sum(cost.stats.rows_scanned_by_rule.values()) == cost.stats.rows_scanned
    goodpath_rules = [
        key for key in cost.stats.rows_scanned_by_rule if key.startswith("goodPath")
    ]
    assert goodpath_rules
    for key in goodpath_rules:
        assert (
            cost.stats.rows_scanned_by_rule[key]
            <= interpreted.stats.rows_scanned_by_rule[key]
        )
