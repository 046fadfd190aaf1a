"""E12 — serving: per-request magic specialization and the artifact cache.

The daemon compiles one pipeline artifact per *adornment shape* — the
bound/free pattern of the goal — never per constant: the semantic
rewrite, adornment and magic transform run once, and each request only
swaps the magic seed fact (Levy & Sagiv's binding passing is constant-
independent by construction).  This bench drives the in-process
:class:`~repro.serve.app.ServeApp` through a fixed request sequence of
``mode: "magic"`` queries (a query naming no mode probes the tenant's
resident fixpoint instead, and compiles nothing) and records, per request, whether the artifact cache hit and the
evaluation work counters; the acceptance claims are (a) goals that
differ only in their constants share one artifact, and (b) served
answers are byte-identical to the single-process pipeline's.
"""

import asyncio

from common import Experiment, md_table, serve_workloads

from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_atom, parse_facts, parse_program
from repro.magic import run_pipeline
from repro.magic.transform import match_query_atom
from repro.serve.app import ServeApp
from repro.serve.wire import rows_payload


def _drive(workloads: dict, passes: int = 2) -> list[dict]:
    """Register every workload, then run ``passes`` goal sweeps."""
    app = ServeApp()

    async def run() -> list[dict]:
        responses: list[dict] = []
        for name, spec in workloads.items():
            status, _ = await app.handle(
                "PUT",
                f"/programs/{name}",
                {
                    "program": spec["program"],
                    "facts": spec["facts"],
                    "query": spec["query"],
                },
            )
            assert status == 200, name
        for sweep in range(1, passes + 1):
            for name, spec in workloads.items():
                for goal in spec["goals"]:
                    status, payload = await app.handle(
                        "POST",
                        f"/programs/{name}/query",
                        {"goal": goal, "mode": "magic"},
                    )
                    assert status == 200, (name, goal)
                    responses.append(
                        {"sweep": sweep, "tenant": name, "goal": goal, **payload}
                    )
        return responses

    return asyncio.run(run())


def _expected_answers(spec: dict, goal_text: str) -> list[list]:
    """The single-process pipeline's answers for one goal."""
    program = parse_program(spec["program"], query=spec["query"])
    database = Database(parse_facts(spec["facts"]))
    goal = parse_atom(goal_text)
    report = run_pipeline(program, (), goal, order="semantic-first")
    assert report.program is not None
    result = evaluate(report.program, database)
    return rows_payload(
        frozenset(row for row in result.query_rows() if match_query_atom(row, goal))
    )


def test_cache_hits_are_constant_independent():
    """Goals differing only in constants share one compiled artifact."""
    workloads = serve_workloads(True)
    responses = _drive(workloads, passes=2)
    first_sweep = [r for r in responses if r["sweep"] == 1]
    # Per tenant: one bound-free shape (three goals) and one bound-bound
    # shape — only the first goal of each shape compiles.
    assert sum(1 for r in first_sweep if not r["cache_hit"]) == 2 * len(workloads)
    assert all(r["cache_hit"] for r in responses if r["sweep"] == 2)


def test_served_answers_match_pipeline():
    """Every served response equals the single-process pipeline."""
    workloads = serve_workloads(True)
    for response in _drive(workloads, passes=1):
        spec = workloads[response["tenant"]]
        assert response["answers"] == _expected_answers(spec, response["goal"])


def experiment() -> Experiment:
    def build() -> str:
        workloads = serve_workloads(False)
        responses = _drive(workloads, passes=2)
        rows = []
        mismatches = 0
        for response in responses:
            spec = workloads[response["tenant"]]
            if response["answers"] != _expected_answers(spec, response["goal"]):
                mismatches += 1
            stats = response["stats"]
            rows.append(
                [
                    response["sweep"],
                    response["tenant"],
                    f"`{response['goal']}`",
                    "hit" if response["cache_hit"] else "miss",
                    len(response["answers"]),
                    stats["facts_derived"],
                    stats["rows_scanned"],
                ]
            )
        hits = sum(1 for r in responses if r["cache_hit"])
        table = md_table(
            [
                "sweep",
                "tenant",
                "goal",
                "artifact cache",
                "answers",
                "facts derived",
                "rows scanned",
            ],
            rows,
        )
        summary = (
            f"\n\n{len(responses)} requests compiled {len(responses) - hits} "
            f"artifacts ({hits} cache hits); goals that differ only in their "
            "constants hit the artifact compiled for their adornment shape "
            "(sweep 1 rows 2–3 of each tenant), and every served answer set "
            + (
                "equals the single-process pipeline's, byte for byte."
                if mismatches == 0
                else f"MISMATCHES: {mismatches} responses differ."
            )
        )
        return table + summary

    return Experiment(
        key="E12",
        title="Serving: per-request specialization and the artifact cache",
        narrative=(
            "*Paper:* the magic templates produced by binding passing depend "
            "only on the query's adornment (its bound/free pattern), never on "
            "the bound constants — the constants enter through a single seed "
            "fact.  *Measured:* the serving daemon caches one compiled "
            "pipeline artifact per (workload digest, order, predicate, "
            "adornment) key and re-seeds it per request; in a fixed two-sweep "
            "request sequence over two tenants, only the first goal of each "
            "adornment shape compiles (4 misses), every other request hits, "
            "and served answers are byte-identical to the single-process "
            "pipeline — caching changes work, never answers."
        ),
        build=build,
    )
