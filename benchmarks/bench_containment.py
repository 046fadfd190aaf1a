"""E6 — Proposition 5.1: program-in-UCQ containment via satisfiability.

Decides containment for the transitive-closure family in both
directions and shows the reduction's artifacts.
"""

from repro.core.containment import (
    containment_as_satisfiability,
    program_contained_in_ucq,
)
from repro.cq.conjunctive import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.datalog.parser import parse_program, parse_rule


def cq(source):
    return ConjunctiveQuery.from_rule(parse_rule(source))


TC = parse_program(
    """
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, Z), t(Z, Y).
    """,
    query="t",
)

CONTAINED = UnionOfConjunctiveQueries((cq("t(X, Y) :- e(X, Z)."),))
NOT_CONTAINED = UnionOfConjunctiveQueries((cq("t(X, Y) :- e(X, Y)."),))


def experiment():
    from common import Experiment, md_table

    def build():
        marked, ics = containment_as_satisfiability(TC, CONTAINED)
        rows = [
            ["t ⊑ {t(X,Y) :- e(X,Z)}", str(program_contained_in_ucq(TC, CONTAINED))],
            ["t ⊑ {t(X,Y) :- e(X,Y)}", str(program_contained_in_ucq(TC, NOT_CONTAINED))],
            ["reduction: marked-program query", marked.query],
            ["reduction: generated ic's", len(ics)],
        ]
        return md_table(["decision / artifact", "value"], rows)

    return Experiment(
        key="E06",
        title="Proposition 5.1: satisfiability ↔ containment",
        narrative=(
            "*Paper:* a program is contained in a union of CQs iff a marked "
            "variant is unsatisfiable under ic's built from the union.  "
            "*Measured:* the reduction decides the transitive-closure family "
            "correctly in both directions, with one ic per union member."
        ),
        build=build,
    )
