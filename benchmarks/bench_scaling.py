"""E9 — Theorem 5.1: growth of the adornment space.

Satisfiability (and hence complete semantic optimization) has doubly
exponential lower and upper bounds.  This bench counts how the
bottom-up phase's output grows with the number of constraints and of
mutually-recursive edge colors — the knob that drives the triplet
combinatorics.
"""

from common import Experiment, colored_closure, md_table

from repro.core.adornments import compute_adornments
from repro.core.rewrite import optimize

_colored_closure = colored_closure


def test_adornment_counts_grow_monotonically():
    """The structural claim behind the bound: more interacting
    constraints -> strictly more adorned predicates."""
    counts = []
    for colors in (2, 3, 4):
        program, constraints = _colored_closure(colors)
        result = compute_adornments(program, constraints)
        counts.append(len(result.adornments["p"]))
    assert counts == sorted(counts) and counts[0] < counts[-1]


def experiment() -> Experiment:
    def build() -> str:
        rows = []
        for colors in (2, 3, 4):
            program, constraints = colored_closure(colors)
            result = compute_adornments(program, constraints)
            report = optimize(program, constraints)
            rows.append(
                [
                    colors,
                    len(program.rules),
                    len(constraints),
                    len(result.adornments["p"]),
                    len(result.adorned_rules),
                    0 if report.program is None else len(report.program.rules),
                ]
            )
        return md_table(
            ["colors", "rules", "ic's", "adornments of p", "adorned rules", "rewritten rules"],
            rows,
        )

    return Experiment(
        key="E09",
        title="Theorem 5.1: growth of the adornment space",
        narrative=(
            "*Paper:* satisfiability (and complete semantic optimization) has "
            "doubly exponential lower and upper bounds; the adornment space is "
            "the mechanism.  *Measured:* the colored-closure family "
            "(`common.colored_closure`) with chained forbidden-successor "
            "constraints — each added edge color grows the adornment count of "
            "`p` and the adorned/rewritten rule sets strictly and "
            "super-linearly."
        ),
        build=build,
    )
