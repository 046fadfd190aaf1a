"""Substrate benchmark: the bottom-up engine whose cost every experiment
above is built from.
"""

from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_program

TC = parse_program(
    """
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, Z), t(Z, Y).
    """,
    query="t",
)


def _chain_db(n):
    return Database.from_rows({"e": [(i, i + 1) for i in range(n)]})


def experiment():
    from common import Experiment, work_ratio_table

    def build():
        parts = []
        for n in (50, 100):
            database = _chain_db(n)
            seminaive = evaluate(TC, database)
            naive = evaluate(TC, database, strategy="naive")
            assert len(seminaive.rows("t")) == n * (n + 1) // 2
            assert seminaive.rows("t") == naive.rows("t")
            parts.append(f"transitive closure of an {n}-edge chain:")
            parts.append(
                work_ratio_table(
                    [
                        ("naive", naive.stats.as_dict()),
                        ("semi-naive", seminaive.stats.as_dict()),
                    ],
                    baseline="naive",
                )
            )
        return "\n\n".join(parts)

    return Experiment(
        key="S01",
        title="substrate: naive vs. semi-naive evaluation",
        narrative=(
            "*Context:* every experiment above rides on the bottom-up engine; "
            "this section pins its baseline behavior.  *Measured:* on chain "
            "transitive closure both strategies derive the same relation, and "
            "semi-naive (delta) iteration re-derives far fewer facts — the "
            "work every optimization in this report is measured against."
        ),
        build=build,
    )
