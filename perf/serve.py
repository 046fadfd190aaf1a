"""The ``serve_mixed`` workload: a real daemon under a closed loop.

Untraced, two keep-alive connections (two threads of this one
load-generating process) drive ``python -m repro serve`` - a separate
process, so the clients do not share its interpreter lock - each
through its own endless seeded op stream until the clock runs out; then
the daemon is SIGKILLed and restarted on its persist directory until
every tenant answers again.  Traced, the same op streams replay
in-process through ``ServeApp.handle`` with spans around the layers the
handler calls.

A request that is refused, fails or times out is logged with latency
``inf`` and status 0: it is a failed op and exceeds every percentile.
Nothing here retries.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import calibrate
import inputs
from batch import install_wraps, layer_metrics, note_stats
from reference import digest
from spans import NullRecorder, SpanRecorder

#: Ops each connection runs before the clock starts (caches fill).
WARMUP_OPS = 30
#: Seconds a single request may take before it counts as failed.
OP_TIMEOUT = 30.0
#: Daemon boots (spawn -> all tenants registered) per run; the median
#: is ``setup_s`` and the last boot serves the measured run.
SETUP_REPEATS = 5
#: SIGKILL -> restart -> every tenant answering, per run.
RECOVER_REPEATS = 7
#: The closed loop pauses this often for a calibration probe.
SEGMENT_S = 2.0


def request_of(op: inputs.Op) -> "tuple[str, str, dict]":
    """The HTTP request an op stands for."""
    if op.kind == "ingest":
        return "POST", f"/programs/{op.tenant}/ingest", {"facts": op.text}
    body = {"goal": op.text}
    if op.kind == "materialized":
        body["mode"] = "materialized"
    elif op.kind == "rare":
        body["order"] = "magic-first"
    return "POST", f"/programs/{op.tenant}/query", body


def register_request(tenant: inputs.Tenant) -> "tuple[str, str, dict]":
    return "PUT", f"/programs/{tenant.name}", {
        "program": tenant.program,
        "constraints": tenant.constraints,
        "facts": tenant.facts,
        "query": tenant.query,
    }


def outcome_of(op: inputs.Op, status: int, payload: dict):
    """What the checker compares: an answer digest, or rows ingested."""
    if status != 200:
        return None
    if op.kind == "ingest":
        return payload.get("ingested")
    return digest(payload.get("answers", ()))


class Daemon:
    """One ``repro serve`` subprocess, always reaped."""

    def __init__(self, repo_root: Path, persist_dir: Path):
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(repo_root / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--persist-dir", str(persist_dir)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
            line = self.process.stdout.readline().strip() if ready else ""
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"daemon did not announce its URL: {line!r}")
            host, _, port = line.removeprefix("serving on http://").partition(":")
            self.host, self.port = host, int(port)
        except BaseException:
            self.kill()
            raise

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=30)
        self.process.stdout.close()


class Connection:
    """One keep-alive HTTP connection; failures are results, not retries."""

    def __init__(self, daemon: Daemon):
        self.daemon = daemon
        self.conn = None

    def send(self, method: str, path: str, body: dict) -> "tuple[int, dict]":
        """``(status, payload)``; status 0 when the transport failed."""
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    self.daemon.host, self.daemon.port, timeout=OP_TIMEOUT
                )
            self.conn.request(method, path, body=json.dumps(body),
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            return response.status, json.loads(response.read().decode("utf-8"))
        except (OSError, http.client.HTTPException, ValueError):
            self.close()
            return 0, {}

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _boot(repo_root: Path, persist_dir: Path, script) -> "tuple[Daemon, float, list]":
    """Spawn a daemon and register every tenant; returns the seconds it
    took and the registration statuses."""
    start = time.perf_counter()
    daemon = Daemon(repo_root, persist_dir)
    try:
        link = Connection(daemon)
        statuses = [link.send(*register_request(t))[0] for t in script.tenants]
        link.close()
    except BaseException:
        daemon.kill()
        raise
    return daemon, time.perf_counter() - start, statuses


def _drive(link: Connection, ops, barrier, segments: int, log: list, walls: list):
    """One connection's closed loop: the next op leaves when the previous
    reply has arrived.  The loop runs in segments of ``SEGMENT_S``; at
    each boundary all connections meet at ``barrier``, whose action
    takes a calibration probe while nothing is in flight.  ``log`` and
    ``walls`` (seconds per segment) belong to this connection alone."""

    def one(op, segment):
        start = time.perf_counter()
        status, payload = link.send(*request_of(op))
        elapsed = time.perf_counter() - start
        log.append({
            "kind": op.kind,
            "raw_ms": elapsed * 1000.0 if status == 200 else float("inf"),
            "status": status,
            "outcome": outcome_of(op, status, payload),
            "segment": segment,
        })

    try:
        for op in itertools.islice(ops, WARMUP_OPS):
            one(op, None)
        barrier.wait(timeout=2 * OP_TIMEOUT)
        for segment in range(segments):
            start = time.perf_counter()
            while time.perf_counter() - start < SEGMENT_S:
                one(next(ops), segment)
            walls.append(time.perf_counter() - start)
            barrier.wait(timeout=2 * OP_TIMEOUT)
    except BaseException:
        barrier.abort()
        raise
    finally:
        link.close()


def run_timed(repo_root: Path, tmp_root: Path, seed: int, profile: str, seconds: float) -> dict:
    script = inputs.ServeScript(seed, profile)
    setups, daemon = [], None
    logs = [[] for _ in range(inputs.CONNECTIONS)]
    try:
        for attempt in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.kill()
            persist = tmp_root / f"persist{attempt}"
            daemon, took, statuses = _boot(repo_root, persist, script)
            setups.append(took * calibrate.factor(calibrate.probe()))
            if statuses != [200] * len(script.tenants):
                raise RuntimeError(f"tenant registration failed: {statuses}")

        segments = max(1, round(seconds / SEGMENT_S))
        walls = [[] for _ in range(inputs.CONNECTIONS)]
        probes: list[float] = []
        barrier = threading.Barrier(
            inputs.CONNECTIONS, action=lambda: probes.append(calibrate.probe()))
        with ThreadPoolExecutor(inputs.CONNECTIONS) as pool:
            drivers = [
                pool.submit(_drive, Connection(daemon), script.ops(c), barrier,
                            segments, logs[c], walls[c])
                for c in range(inputs.CONNECTIONS)
            ]
            for driver in drivers:
                driver.result()
        # Segment i ran between probes i and i + 1, and lasted until its
        # slower connection was done.
        scale = [calibrate.factor(a, b) for a, b in zip(probes, probes[1:])]
        walls = [max(per_connection) for per_connection in zip(*walls)]
        for log in logs:
            for entry in log:
                segment = entry["segment"]
                entry["ms"] = entry["raw_ms"] * (1.0 if segment is None else scale[segment])
        rss = daemon.peak_rss_mb()

        # Crash and recover: the ingests acknowledged above must survive.
        recoveries, probe_rounds = [], []
        for _ in range(RECOVER_REPEATS):
            daemon.kill()
            start = time.perf_counter()
            # A tenant that fails to come back answers its probe with 404.
            daemon, _, _ = _boot(repo_root, persist, script)
            link = Connection(daemon)
            answers = []
            for op in script.probe_ops():
                status, payload = link.send(*request_of(op))
                answers.append({"status": status, "outcome": outcome_of(op, status, payload)})
            link.close()
            took = time.perf_counter() - start
            recoveries.append(took * calibrate.factor(calibrate.probe()))
            probe_rounds.append(answers)
    finally:
        if daemon is not None:
            daemon.kill()
    return {
        "setups": setups,
        "logs": logs,
        "wall_s": sum(w * f for w, f in zip(walls, scale)),
        "raw_wall_s": sum(walls),
        "recoveries": recoveries,
        "probes": probe_rounds,
        "peak_rss_mb": rss,
    }


# --------------------------------------------------------------------------
# Traced run: the same ops, in-process
# --------------------------------------------------------------------------


def _install_serve_wraps(rec: SpanRecorder) -> None:
    """Spans around the public functions a request passes through."""
    import repro.magic.pipeline as pipeline
    import repro.persist.journal as journal
    import repro.persist.session as session
    import repro.serve.app as app
    import repro.serve.registry as registry
    import repro.serve.wire as wire

    install_wraps(rec)
    for name in ("parse_query", "parse_ingest", "parse_register"):
        rec.wrap(app, name, "serve.wire_parse")
    for name in ("parse_program_and_facts", "parse_constraints", "parse_atom"):
        rec.wrap(wire, name, "parser.program")
    rec.wrap(wire, "parse_facts", "parser.facts",
             lambda record, result: record.__setitem__("facts", len(result)))
    rec.wrap(registry, "Database", "database.load")
    rec.wrap(app, "specialize_pipeline", "serve.specialize")
    rec.wrap(pipeline, "run_pipeline", "magic.pipeline")
    rec.wrap(pipeline, "evaluate", "evaluation.fixpoint", note_stats)
    rec.wrap(session, "evaluate", "evaluation.fixpoint", note_stats)
    rec.wrap(app, "rows_payload", "serve.serialize")
    rec.wrap(registry.Tenant, "ingest", "persist.ingest")
    rec.wrap(registry.Tenant, "materialize", "persist.materialize")
    rec.wrap(session, "commit_with_retry", "persist.journal_commit")
    rec.wrap(session, "save_with_retry", "persist.checkpoint_save")
    rec.wrap(journal.IngestJournal, "append", "persist.journal_append",
             lambda record, result: record.__setitem__("bytes", result))
    rec.wrap(os, "fsync", "persist.fsync")


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _newest_checkpoint_bytes(root: Path) -> int:
    """Size of each tenant's newest checkpoint, summed."""
    total = 0
    for tenant_dir in root.iterdir():
        files = sorted(tenant_dir.glob("ckpt-*.json"))
        if files:
            total += files[-1].stat().st_size
    return total


def _replay(rec, loop, persist: Path, script, ops_per_connection: int):
    """Register, run the scripted ops round-robin, "restart" and probe -
    all in-process.  Returns ``(logs, probes, seconds inside handle)``."""
    from repro.serve import ServeApp

    logs = [[] for _ in range(inputs.CONNECTIONS)]
    request_ids = itertools.count()
    inside = 0.0

    def handle(app, kind, method, path, body):
        nonlocal inside
        rec.job = next(request_ids)
        start = time.perf_counter()
        with rec.span("serve.handle", kind=kind):
            status, payload = loop.run_until_complete(
                app.handle(method, path, json.dumps(body).encode("utf-8"))
            )
            with rec.span("serve.serialize"):
                json.dumps(payload)
        took = time.perf_counter() - start
        inside += took
        rec.job = None
        return status, payload, took

    def register_all(app, kind):
        for tenant in script.tenants:
            status, _, _ = handle(app, kind, *register_request(tenant))
            if status != 200:
                raise RuntimeError(f"in-process registration of {tenant.name}: {status}")

    app = ServeApp(persist_root=persist)
    register_all(app, "register")
    streams = [script.ops(c) for c in range(inputs.CONNECTIONS)]
    for _ in range(ops_per_connection):
        for conn, stream in enumerate(streams):
            op = next(stream)
            status, payload, took = handle(app, op.kind, *request_of(op))
            logs[conn].append({
                "kind": op.kind,
                "ms": took * 1000.0 if status == 200 else float("inf"),
                "status": status,
                "outcome": outcome_of(op, status, payload),
                "cache_hit": payload.get("cache_hit"),
                "mode": payload.get("mode"),
            })
    sizes = (_newest_checkpoint_bytes(persist), _tree_bytes(persist))
    # "Restart": a second app on the same persist root must recover
    # every tenant from its checkpoint and journal.
    for name in app.registry.names():
        app.registry.get(name).session.journal.close()
    app = ServeApp(persist_root=persist)
    register_all(app, "recover")
    probes = []
    for op in script.probe_ops():
        status, payload, _ = handle(app, "probe", *request_of(op))
        probes.append({"status": status, "outcome": outcome_of(op, status, payload)})
    return logs, probes, inside, sizes


def run_traced(
    repo_root: Path, tmp_root: Path, seed: int, profile: str,
    ops_per_connection: int, trace_path: str, header: dict,
) -> dict:
    script = inputs.ServeScript(seed, profile)
    rec = SpanRecorder()
    loop = asyncio.new_event_loop()
    try:
        # The same script twice on fresh persist roots: tracing off, then on.
        _, _, plain_s, _ = _replay(
            NullRecorder(), loop, tmp_root / "plain", script, ops_per_connection)
        _install_serve_wraps(rec)
        logs, probes, traced_s, (checkpoint_bytes, disk_bytes) = _replay(
            rec, loop, tmp_root / "traced", script, ops_per_connection)
    finally:
        rec.unwrap_all()
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()

    metrics = serve_layer_metrics(rec.spans, logs)
    metrics["persist.checkpoint_bytes"] = float(checkpoint_bytes)
    metrics["persist.disk_bytes"] = float(disk_bytes)
    metrics["harness.trace_overhead_ratio"] = traced_s / plain_s
    metrics["serve.http_overhead_ms"] = _http_overhead(
        repo_root, tmp_root, script, ops_per_connection, logs[0]
    )
    rec.write(trace_path, header)
    return {"metrics": metrics, "logs": logs, "probes": [probes]}


def _http_overhead(repo_root, tmp_root, script, count, in_process_log) -> float:
    """Client-observed minus in-process median of connection 0's plain
    queries: the same ops, once over HTTP and once through ``handle``."""
    daemon, _, statuses = _boot(repo_root, tmp_root / "overhead", script)
    try:
        if statuses != [200] * len(script.tenants):
            raise RuntimeError(f"tenant registration failed: {statuses}")
        link = Connection(daemon)
        over_http = []
        for op in itertools.islice(script.ops(0), count):
            start = time.perf_counter()
            status, _ = link.send(*request_of(op))
            if op.kind == "query" and status == 200:
                over_http.append((time.perf_counter() - start) * 1000.0)
        link.close()
    finally:
        daemon.kill()
    direct = [e["ms"] for e in in_process_log if e["kind"] == "query"]
    return statistics.median(over_http) - statistics.median(direct)


def serve_layer_metrics(spans, logs) -> dict:
    """Layer seconds (totals over the traced script) and counts."""
    metrics = layer_metrics(spans, 1, root="serve.handle")
    seconds = dict.fromkeys(
        ["serve.wire_parse", "serve.specialize", "serve.serialize", "persist.ingest",
         "persist.journal_commit", "persist.checkpoint_save"], 0.0)
    handles = {"register": 0.0, "recover": 0.0, "materialized": 0.0}
    journal_bytes = fsyncs = 0
    for span in spans:
        duration = span["end"] - span["start"]
        name = span["name"]
        if name in seconds:
            seconds[name] += duration
        elif name == "serve.handle" and span["kind"] in handles:
            handles[span["kind"]] += duration
        elif name == "persist.fsync":
            fsyncs += 1
        elif name == "persist.journal_append":
            journal_bytes += span["bytes"]
    entries = [e for log in logs for e in log]
    ingests = [e for e in entries if e["kind"] == "ingest"]
    magic = [e for e in entries if e["kind"] in ("query", "shared", "rare")]
    metrics.update({f"{name}_s": value for name, value in seconds.items()})
    metrics.update({
        "serve.register_s": handles["register"],
        "serve.materialized_lookup_s": handles["materialized"],
        "serve.cache_hit_ratio": sum(1 for e in magic if e["cache_hit"]) / len(magic),
        "serve.handle_p50_ms": statistics.median(
            e["ms"] for e in entries if e["kind"] == "query"
        ),
        "persist.ingest_p50_ms": statistics.median(e["ms"] for e in ingests),
        "persist.fsyncs": float(fsyncs),
        "persist.journal_bytes_per_row": journal_bytes / len(ingests),
        "persist.incremental_share":
            sum(1 for e in ingests if e["mode"] == "incremental") / len(ingests),
        "persist.recover_s": handles["recover"],
    })
    return metrics
