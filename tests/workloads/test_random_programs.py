"""Property test: semi-naive evaluation agrees with naive on random programs.

The ``workloads`` generators produce layered recursive programs with
filters and EDB negation; naive rounds over the independent model of
``perf/reference.py`` (``tests/reference_model.py``) are the oracle for
the semi-naive engine on every seeded case.
"""

import pytest

from reference_model import model_fixpoint
from repro.datalog.evaluation import evaluate
from repro.workloads import random_database, random_program, random_workload

SEEDS = range(20)


def _agrees_with_naive(program, database, seed):
    expected = model_fixpoint(program, database, naive=True)
    result = evaluate(program, database)
    for predicate in program.idb_predicates:
        assert result.rows(predicate) == expected[predicate], (seed, predicate)


@pytest.mark.parametrize("seed", SEEDS)
def test_naive_and_seminaive_agree(seed):
    _agrees_with_naive(random_program(seed), random_database(seed * 31 + 7), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_strategies_agree_on_magic_programs(seed):
    """Same property over the magic-transformed random workloads —
    the guarded programs exercise 0-ary predicates and seed facts."""
    from repro.magic import magic_transform

    program, database, atom = random_workload(seed)
    _agrees_with_naive(magic_transform(program, atom).program, database, seed)


def test_random_program_is_deterministic():
    assert repr(random_program(3)) == repr(random_program(3))
    assert set(random_database(3).facts()) == set(random_database(3).facts())
