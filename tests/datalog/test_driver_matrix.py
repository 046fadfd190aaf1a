"""The driver matrix: every seed x executor against goldens.

One fixpoint driver serves two *seeds* (cold, ingest delta) and three
*round executors* (slot
engine on value rows, the same kernels on interner codes, the sharded
barrier with two workers).  Only the slot engine on rows is reachable
from a command, the daemon or a ``Session``; the other two are built
here by direct call, and only the default one has an ``ingest`` cell (a
``Session`` evaluates one way).  Each cell's fixpoint digest and
deterministic work counters are compared with
``golden_driver_matrix.json``, which was generated by this file at the
commit *before* the four hand-written driver loops were merged into
one, so any drift in iteration counts, firing order or per-rule scan
attribution shows up as a diff against the behaviour of the old loops.
(One re-pin since: the ``ingest`` cells' ``index_builds`` fell when the
ingest seed began extending the live relations, indexes included,
instead of re-seeding fresh ones.  One filter since: the ``ingest``
cells of the three non-default executors left the file with the
``Session`` keywords that built them; no surviving value changed.
The ``slots-columnar`` and ``sharded-w2`` cells were recorded on a
block-at-a-time executor since replaced by the generated kernels;
they held without a re-pin.  A second filter: the ``interpreted``
executor's pairs and every ``naive`` cell left with the interpreter and
the naive loop; the surviving cells keep their ``/seminaive`` names.
A third filter: the ``resume/seminaive`` cells left with the resume
seed.  A second re-pin: the ``sg`` cells' ``probes`` fell by 42 (cold
360 → 318, ingest 593 → 551) when a probe keyed by an outer loop's
slots began to be made once per row of that loop; no other value
moved.)

Regenerate (only at a commit whose behaviour is the intended
reference)::

    PYTHONPATH=src python tests/datalog/test_driver_matrix.py
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.digest import fixpoint_digest
from repro.observability import RingBufferSink, tracing
from repro.parallel import evaluate_sharded
from repro.persist import Session
from repro.workloads.generators import (
    ab_database,
    good_path_database,
    random_workload,
    same_generation_database,
)
from repro.workloads.programs import (
    ab_transitive_closure,
    good_path,
    same_generation,
)

GOLDEN = Path(__file__).with_name("golden_driver_matrix.json")

#: executor name -> ``run(program, database)``
EXECUTORS = {
    "slots-rows": evaluate,
    "slots-columnar": lambda program, database: evaluate(
        program, database.to_storage("columnar")
    ),
    "sharded-w2": lambda program, database: evaluate_sharded(
        program, database, workers=2
    ),
}

WORKLOADS = {
    **{f"random{seed}": (lambda seed=seed: random_workload(seed)[:2]) for seed in range(6)},
    "ab": lambda: (ab_transitive_closure()[0], ab_database(10, 10)),
    "goodpath": lambda: (good_path()[0], good_path_database(3, 6)),
    "sg": lambda: (same_generation()[0], same_generation_database(3, 2)),
}


def _record(program, result, sequential):
    """The compared facts of one run, JSON-ready and compact."""
    rule_index: dict[str, int] = {}
    for index, rule in enumerate(program.rules):
        rule_index.setdefault(repr(rule), index)
    stats = result.stats
    record = {
        "digest": fixpoint_digest([("matrix", result.idb)])[:16],
        "iterations": stats.iterations,
        "rule_firings": stats.rule_firings,
        "facts_derived": stats.facts_derived,
        "rows_scanned": stats.rows_scanned,
        "by_rule": {
            str(rule_index[key]): count
            for key, count in sorted(stats.rows_scanned_by_rule.items())
        },
    }
    if sequential:
        # Fleet totals of the per-process counters exceed the sequential
        # values by design, so they are compared on sequential runs only.
        record["probes"] = stats.probes
        record["index_builds"] = stats.index_builds
    return record


def _held_back(database):
    """Split an EDB into a two-thirds base and the facts to ingest."""
    base_rows, extra = {}, []
    for pred in sorted(database.predicates()):
        rows = sorted(database.relation(pred).rows(), key=repr)
        keep = max(1, (2 * len(rows)) // 3)
        base_rows[pred] = rows[:keep]
        extra.extend((pred, row) for row in rows[keep:])
    return base_rows, extra


def measure(workload: str, executor: str) -> dict:
    """All cells of one (workload, executor) pair, one per seed."""
    program, database = WORKLOADS[workload]()
    run = EXECUTORS[executor]
    sequential = executor != "sharded-w2"
    cells = {}
    with tracing(RingBufferSink()) as tracer:
        cold = run(program, database.copy())
    cells["cold/seminaive"] = _record(program, cold, sequential)
    if sequential:
        # The trace a cold run emits, by event name in sink order:
        # profiler, chaos sites and the perf harness all key on it.
        names = "\n".join(f"{e.kind}:{e.name}" for e in tracer.sinks[0])
        cells["cold/seminaive"]["trace"] = hashlib.sha256(
            names.encode()
        ).hexdigest()[:16]
    if executor == "slots-rows":
        base_rows, extra = _held_back(database)
        session = Session(program, Database.from_rows(base_rows))
        session.run()
        outcome = session.ingest(extra)
        cells["ingest"] = {
            "mode": outcome.mode,
            **_record(program, outcome.result, sequential),
        }
    return cells


def _key(workload: str, executor: str) -> str:
    return f"{workload}/{executor}"


@functools.lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_cell_matches_golden(workload, executor):
    golden = _golden()[_key(workload, executor)]
    cells = measure(workload, executor)
    assert sorted(cells) == sorted(golden)
    for name in sorted(golden):
        assert cells[name] == golden[name], name


if __name__ == "__main__":
    matrix = {
        _key(workload, executor): measure(workload, executor)
        for workload in sorted(WORKLOADS)
        for executor in sorted(EXECUTORS)
    }
    lines = [
        f"{json.dumps(key)}: {json.dumps(matrix[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(matrix)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(matrix)} (workload, executor) pairs to {GOLDEN}")
