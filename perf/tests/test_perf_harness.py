"""Tests of the benchmark harness itself (not of ``repro``).

Run with ``PYTHONPATH=src python -m pytest perf/tests -q``; tier-1's
``testpaths`` does not include this directory.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERF_DIR))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


class TestPercentiles:
    def test_nearest_rank_is_a_sample(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert stats.percentile(samples, 50) == 3.0
        assert stats.percentile(samples, 100) == 5.0
        assert stats.percentile(samples, 1) == 1.0

    @pytest.mark.parametrize(
        "count, expected",
        [(9, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
         (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
    )
    def test_tail_needs_ten_samples_beyond(self, count, expected):
        assert stats.tail_percentile(count) == expected

    def test_summary_reports_median_tail_and_count(self):
        summary = stats.summarize([float(i) for i in range(1, 201)])
        assert summary == {"n": 200, "median": 100.5, "tail_q": 95.0, "tail": 190.0}

    def test_failed_op_exceeds_every_percentile(self):
        samples = [1.0] * 99 + [math.inf]
        assert stats.percentile(samples, 99) == 1.0
        assert stats.percentile(samples, 100) == math.inf
        # Half the ops failing drags the median to infinity, never down.
        assert stats.summarize([1.0, math.inf, math.inf])["median"] == math.inf
        assert stats.finite(math.inf, 30000.0) == 30000.0

class TestSpans:
    def test_self_time_subtracts_children_only(self):
        tree = [
            {"id": 0, "name": "job", "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "name": "rewrite", "parent": 0, "start": 1.0, "end": 5.0},
            {"id": 2, "name": "adorn", "parent": 1, "start": 2.0, "end": 3.5},
            {"id": 3, "name": "tree", "parent": 1, "start": 3.5, "end": 4.0},
            {"id": 4, "name": "eval", "parent": 0, "start": 5.0, "end": 9.0},
        ]
        own = spans.self_times(tree)
        assert own == {0: 2.0, 1: 2.0, 2: 1.5, 3: 0.5, 4: 4.0}
        assert sum(own.values()) == 10.0  # self times tile the root exactly

    def test_recorder_nests_and_wraps(self):
        class Layer:
            @staticmethod
            def inner(x):
                return x + 1

        rec = spans.SpanRecorder()
        rec.wrap(Layer, "inner", "layer.inner",
                 lambda record, result: record.__setitem__("count", result))
        rec.job = 7
        with rec.span("outer"):
            assert Layer.inner(1) == 2
        rec.active = False
        assert Layer.inner(1) == 2  # passes through, records nothing
        rec.unwrap_all()
        assert Layer.inner(1) == 2
        assert [(s["name"], s["parent"], s["job"]) for s in rec.spans] == [
            ("outer", None, 7), ("layer.inner", 0, 7)]
        assert rec.spans[1]["count"] == 2
        assert all(s["end"] >= s["start"] for s in rec.spans)

    def test_wrap_fails_loudly_when_the_layer_moved(self):
        with pytest.raises(AttributeError):
            spans.SpanRecorder().wrap(spans, "no_such_function", "x")


class TestFailedOpAccounting:
    def _logs(self, script, count):
        expected, probes = run.serve_expected(script, [count] * inputs.CONNECTIONS)
        logs = [
            [{"kind": op.kind, "ms": 1.0, "status": 200, "outcome": outcome}
             for op, outcome in zip(script.ops(conn), outcomes)]
            for conn, outcomes in enumerate(expected)
        ]
        return logs, [[{"status": 200, "outcome": p} for p in probes]]

    def test_clean_log_has_no_failures(self):
        script = inputs.ServeScript(5, "smoke")
        logs, probes = self._logs(script, 40)
        attempted, failed = run.check_serve(5, "smoke", logs, probes)
        assert (attempted, failed) == (2 * 40 + len(script.probe_ops()), 0)

    def test_refused_wrong_and_lost_are_all_counted(self):
        script = inputs.ServeScript(5, "smoke")
        logs, probes = self._logs(script, 40)
        logs[0][3].update(status=0, outcome=None, ms=math.inf)   # transport failure
        logs[0][4].update(status=503, outcome=None)              # refused
        logs[1][0]["outcome"] = "0" * 16                         # wrong answer
        probes[0][0]["outcome"] = "0" * 16                       # lost after restart
        attempted, failed = run.check_serve(5, "smoke", logs, probes)
        assert (attempted, failed) == (2 * 40 + len(script.probe_ops()), 4)
        # Every failed op now exceeds any percentile of its connection.
        assert [e["ms"] for e in (logs[0][3], logs[0][4], logs[1][0])] == [math.inf] * 3


class TestInputs:
    @pytest.mark.parametrize("workload", sorted(inputs.BATCH))
    def test_texts_are_a_pure_function_of_the_seed(self, workload):
        first = inputs.BATCH[workload](3, "smoke")
        assert first == inputs.BATCH[workload](3, "smoke")
        assert first != inputs.BATCH[workload](4, "smoke")

    def test_serve_script_is_deterministic_and_write_disjoint(self):
        a, b = inputs.ServeScript(3, "smoke"), inputs.ServeScript(3, "smoke")
        assert a.tenants == b.tenants
        for conn in range(inputs.CONNECTIONS):
            ops = [next(stream) for stream in [a.ops(conn)] for _ in range(200)]
            again = [next(stream) for stream in [b.ops(conn)] for _ in range(200)]
            assert ops == again
            assert {op.tenant for op in ops if op.kind == "ingest"} == {f"ab{conn}"}
        assert inputs.ServeScript(4, "smoke").tenants != a.tenants

    def test_heavy_units_exist(self):
        for workload, unit in inputs.HEAVY_UNIT.items():
            assert unit in {case.name for case in inputs.BATCH[workload](0, "smoke")}


class TestReference:
    PROGRAM = """
        path(X, Y) :- step(X, Y).
        path(X, Y) :- step(X, Z), path(Z, Y).
        far(X, Y) :- path(X, Y), X < Y, not blocked(Y).
    """

    def test_closure_order_atoms_and_negation(self):
        facts = "step(1, 2). step(2, 3). step(3, 1). blocked(3). step(7, 8)."
        assert reference.answers(self.PROGRAM, facts, "path(1, Y)") == {(1, 2), (1, 3), (1, 1)}
        assert reference.answers(self.PROGRAM, facts, "far(X, Y)") == {(1, 2), (7, 8)}
        # A bound goal is answered on its connected component only.
        assert reference.answers(self.PROGRAM, facts, "far(7, Y)") == {(7, 8)}

    def test_incremental_equals_from_scratch(self):
        grown = reference.Fixpoint(self.PROGRAM)
        grown.add(reference.parse_facts("step(1, 2). step(3, 4)."))
        grown.add(reference.parse_facts("step(2, 3)."))
        cold = reference.Fixpoint(self.PROGRAM)
        cold.add(reference.parse_facts("step(1, 2). step(2, 3). step(3, 4)."))
        assert grown.rows("path") == cold.rows("path") and len(cold.rows("path")) == 6

    def test_digest_ignores_order_and_container(self):
        assert reference.digest([(1, "a"), (2, "b")]) == reference.digest({(2, "b"), (1, "a")})
        assert reference.digest([[1, 2]]) == reference.digest([(1, 2)])
        assert reference.digest([(1, 2)]) != reference.digest([(2, 1)])

    def test_committed_seed0_answers_match_the_oracle(self):
        committed = json.loads(run.EXPECTED.read_text())
        assert run.oracle_answers("rewrite_compile", 0, "full") == committed["rewrite_compile"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_of_each_workload(workload):
    """Both modes, tiny sizes: every answer checked, every metric present."""
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--smoke", "--workload", workload],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    spec = run.load_spec()
    assert set(last["metrics"]) == {m["name"] for m in spec["per_layer"]}
    untraced = json.loads((run.OUT_DIR / f"result-{workload}-trace0.json").read_text())
    assert set(untraced["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    assert set(untraced["host"]) == {"nproc", "python", "platform"}
    header = json.loads((run.OUT_DIR / f"trace-{workload}.jsonl").read_text().splitlines()[0])
    assert header["header"]["workload"] == workload


class TestCheckRepeat:
    SPEC = {
        "end_to_end": [{"name": "answer_p50_ms", "bound": 0.1}],
        "per_layer": [{"name": "evaluation.facts_derived", "unit": "count"},
                      {"name": "evaluation.fixpoint_s", "unit": "s"}],
    }

    @staticmethod
    def _suite(answer_ms, facts, fixpoint_s=1.0):
        common = {"workload": "closure_full", "attempted": 4, "failed": 0}
        return [
            {**common, "trace": 0,
             "metrics": {"answer_p50_ms": {"value": answer_ms, "unit": "ms"}}},
            {**common, "trace": 1,
             "metrics": {"evaluation.facts_derived": {"value": facts, "unit": "count"},
                         "evaluation.fixpoint_s": {"value": fixpoint_s, "unit": "s"}}},
        ]

    def test_within_bound_and_equal_counts_pass(self, capsys):
        # Traced timings may differ freely; only counts must repeat.
        assert run.check_repeat(self._suite(100.0, 7.0, 1.0), self._suite(109.0, 7.0, 2.0),
                                self.SPEC)
        assert "9.00%" in capsys.readouterr().out

    def test_outside_bound_fails(self):
        assert not run.check_repeat(self._suite(100.0, 7.0), self._suite(112.0, 7.0), self.SPEC)

    def test_differing_count_fails(self):
        assert not run.check_repeat(self._suite(100.0, 7.0), self._suite(100.0, 8.0), self.SPEC)
