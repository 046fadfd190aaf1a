"""E11 — magic sets and the semantic+magic pipeline on bound queries.

The semantic rewrite prunes constraint-violating derivations; magic
sets prune derivations the (bound) query atom never demands.  This
bench compares ``EvaluationStats`` across the pipeline orderings on
bound-argument query workloads: the headline number is
``facts_derived``, which magic reduces wherever demand is selective
(goodPath chains, the a/b closure, same-generation), while
``semantic-first`` composes both prunings.
"""

import pytest
from common import Experiment, magic_workloads, work_ratio_table

from repro.datalog.evaluation import evaluate
from repro.magic import check_equivalence, run_pipeline

ORDERS = ("magic-only", "semantic-first", "magic-first", "semantic-only")

WORKLOADS = {name: (prog, ics, db, atom) for name, prog, ics, db, atom in magic_workloads()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_answers_identical_all_orders(name):
    """Every ordering answers the bound query atom exactly like P."""
    program, ics, database, atom = WORKLOADS[name]
    for order in ORDERS:
        report = run_pipeline(program, ics, atom, order=order)
        check = check_equivalence(program, report, atom, database)
        assert check.equivalent, (name, order, check.missing, check.extra)


def test_magic_reduces_facts_derived():
    """The acceptance claim: bound queries derive strictly fewer facts."""
    for name in ("ab", "goodPath", "sg"):
        program, ics, database, atom = WORKLOADS[name]
        baseline = evaluate(program, database)
        for order in ("magic-only", "semantic-first"):
            report = run_pipeline(program, ics, atom, order=order)
            check = check_equivalence(program, report, atom, database)
            assert check.equivalent
            assert (
                check.transformed_stats.facts_derived
                < baseline.stats.facts_derived
            ), (name, order)


def experiment() -> Experiment:
    def build() -> str:
        parts = []
        for name in sorted(WORKLOADS):
            program, ics, database, atom = WORKLOADS[name]
            variants = [("original", evaluate(program, database).stats.as_dict())]
            for order in ORDERS:
                report = run_pipeline(program, ics, atom, order=order)
                check = check_equivalence(program, report, atom, database)
                assert check.equivalent, (name, order)
                variants.append((order, check.transformed_stats.as_dict()))
            parts.append(f"**{name}** — query atom `{atom}`:")
            parts.append(work_ratio_table(variants, baseline="original"))
        return "\n\n".join(parts)

    return Experiment(
        key="E11",
        title="magic sets and the semantic+magic pipeline on bound queries",
        narrative=(
            "*Paper:* the semantic rewrite prunes constraint-violating "
            "derivations; magic sets prune derivations a bound query atom "
            "never demands, and the two compose.  *Measured:* every pipeline "
            "ordering answers each bound query exactly like the original "
            "program, while `facts_derived` drops wherever demand is "
            "selective; `semantic-first` composes both prunings."
        ),
        build=build,
    )
