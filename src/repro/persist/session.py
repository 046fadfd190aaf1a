"""Durable evaluation sessions: run, crash, resume, ingest.

A :class:`Session` binds one workload (program + database + engine
options) to one checkpoint directory and exposes the durable life
cycle:

* :meth:`Session.run` — evaluate with periodic checkpoints.  Saves go
  through :func:`~repro.persist.store.save_with_retry`; a store that
  stays broken after the retry budget **degrades** the session to plain
  in-memory evaluation (recorded as a
  :class:`~repro.robustness.budget.FallbackStep` and a
  ``budget.fallback`` trace event) instead of failing the run.
* :meth:`Session.resume` — pick up the newest valid checkpoint for
  this exact workload digest and restart the fixpoint from its saved
  frontier.  Corrupt or foreign checkpoints are quarantined during the
  walk; with no usable checkpoint the session falls back to a fresh
  run.
* :meth:`Session.ingest` — add new EDB facts and re-derive
  **incrementally**: the new facts seed delta relations
  (Bancilhon–Ramakrishnan differentiation — each rule fires once per
  changed body position with the delta there and full relations
  elsewhere), then normal semi-naive rounds propagate inside each SCC,
  in dependency order.  Every derivation that uses at least one new
  fact is covered, so the result is row-identical to recomputation.
  When an ingested predicate occurs **negated** in the program the
  update is non-monotonic (new facts can retract conclusions), so
  ingest detects this and falls back to a full recompute — wrong
  answers are never an option.

  Ingest is **journal-first**: the normalized new rows are appended to
  the session's :class:`~repro.persist.journal.IngestJournal` and
  ``fsync``\\ ed *before* the in-memory EDB mutates — the fsync is the
  acknowledgment point, so an acknowledged ingest survives a SIGKILL
  at any later instant (mid-fixpoint, mid-checkpoint, or with the
  checkpoint store degraded).  Once the post-ingest complete
  checkpoint lands, the covered journal prefix is compacted away.
* :meth:`Session.recover` — crash recovery: chain the journal's
  acknowledged records onto the initial EDB, restore the newest
  *complete* checkpoint along that chain, and idempotently replay the
  uncovered suffix (incrementally when monotone, by recompute
  otherwise).  The resulting fixpoint is byte-identical to a cold
  recompute over (initial EDB + every acknowledged ingest).
* :meth:`Session.inspect` — a JSON-ready summary of store + journal.

Statistics stay cumulative across the whole life cycle (resume and
ingest merge the prior snapshot's counters before adding new work), so
budget accounting and reports see the true total cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..datalog.atoms import Atom
from ..datalog.database import ArityMismatch, Database, Row
from ..datalog.evaluation import (
    EvaluationResult,
    EvaluationSnapshot,
    EvaluationStats,
    _evaluate_ingest,
    _sccs,
    evaluate,
)
from ..datalog.program import Program
from ..observability.trace import Tracer, get_tracer
from ..robustness.budget import Budget, CancellationToken, FallbackStep, Governor
from .checkpoint import Checkpoint, CheckpointError, workload_digest
from .journal import (
    FlakyJournal,
    IngestJournal,
    JournalMismatch,
    JournalRecord,
    commit_with_retry,
)
from .store import (
    CheckpointStore,
    CheckpointStoreUnavailable,
    FlakyStore,
    RetryPolicy,
    save_with_retry,
)

__all__ = ["Session", "SessionResult"]

#: Facts accepted by :meth:`Session.ingest`: ground atoms or (predicate, row).
FactLike = "Atom | tuple[str, Sequence[object]]"


@dataclass
class SessionResult:
    """The outcome of one session operation.

    ``mode`` records the path taken: ``"fresh"`` (full evaluation),
    ``"resumed"`` (restarted from a checkpoint), ``"incremental"``
    (delta-seeded ingest), ``"recompute"`` (ingest fell back to full
    re-evaluation), ``"warm"`` (zero-evaluation checkpoint restore) or
    ``"recovered"`` (checkpoint restore plus journal replay).
    ``fallback_chain`` lists every degradation taken, in order;
    ``replayed`` counts the journal records recovery re-applied.
    """

    result: EvaluationResult
    mode: str
    checkpoints_written: int = 0
    resumed_seq: int | None = None
    fallback_chain: list[FallbackStep] = field(default_factory=list)
    replayed: int = 0

    @property
    def stats(self) -> EvaluationStats:
        return self.result.stats


class Session:
    """One durable evaluation workload bound to a checkpoint store."""

    def __init__(
        self,
        program: Program,
        database: Database,
        *,
        store: "CheckpointStore | FlakyStore | None" = None,
        journal: "IngestJournal | FlakyJournal | None | str" = "auto",
        checkpoint_every: int = 1,
        constraints: Sequence[object] = (),
        strategy: str = "seminaive",
        engine: str = "slots",
        plan_order: str = "cost",
        storage: str | None = None,
        workers: int | None = None,
        budget: "Budget | Governor | None" = None,
        cancellation: CancellationToken | None = None,
        tracer: Tracer | None = None,
        retry: RetryPolicy | None = None,
        throttle: float = 0.0,
    ):
        self.program = program
        # The session evaluates (and ingests) in one storage backend for
        # its whole life cycle; ``storage=None`` keeps the database's
        # own.  Conversion happens once here, not per run — the workload
        # digest is computed over decoded rows, so it is unaffected.
        self.database = (
            database if storage is None else database.to_storage(storage)
        )
        self.store = store
        # ``journal="auto"`` (the default) co-locates the write-ahead
        # ingest journal with the checkpoint store (``<dir>/journal``);
        # pass an explicit journal to place it elsewhere, or ``None``
        # to run without write-ahead durability.
        if journal == "auto":
            self.journal = (
                None
                if store is None
                else IngestJournal(Path(store.directory) / "journal", tracer=tracer)
            )
        else:
            self.journal = journal  # type: ignore[assignment]
        # The highest journal sequence the newest *complete* checkpoint
        # is known to cover (recovery recomputes it from the digest
        # chain; ingest advances it as covering checkpoints land).
        self._covered_seq = 0
        self.checkpoint_every = checkpoint_every
        self.constraints = tuple(constraints)
        self.strategy = strategy
        self.engine = engine
        self.plan_order = plan_order
        # ``workers=N`` shards full runs and resumes across N forked
        # processes (see docs/parallel.md); incremental ingest stays
        # sequential — its delta-seeded firings are far below the
        # sharding break-even point.
        self.workers = workers
        self.budget = budget
        self.cancellation = cancellation
        self._tracer = tracer
        self.retry = retry if retry is not None else RetryPolicy()
        self.throttle = throttle
        self._last: EvaluationResult | None = None

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    def workload(self) -> str:
        """The digest binding checkpoints to this exact workload."""
        return workload_digest(self.program, self.database, self.constraints)

    # ------------------------------------------------------------------
    def _governor(self) -> Governor | None:
        return Governor.of(self.budget, self.cancellation)

    def _make_sink(
        self,
        governor: Governor | None,
        fallback_chain: list[FallbackStep],
        counter: list[int],
    ):
        """A checkpoint sink that saves-with-retry and degrades on failure."""
        if self.store is None:
            return None
        store = self.store
        workload = self.workload()
        state = {"degraded": False}

        def sink(snapshot: EvaluationSnapshot) -> None:
            if state["degraded"]:
                return
            if snapshot.complete and snapshot.edb is None:
                # Complete checkpoints are self-contained: they carry
                # the EDB so the journal can compact the records they
                # cover without losing the only copy of ingested facts.
                snapshot = replace(snapshot, edb=self._edb_rows())
            checkpoint = Checkpoint(
                seq=store.next_seq(), workload=workload, snapshot=snapshot
            )
            try:
                save_with_retry(
                    store, checkpoint, policy=self.retry, governor=governor
                )
            except CheckpointStoreUnavailable as exc:
                state["degraded"] = True
                step = FallbackStep(
                    stage="session.checkpoint",
                    fell_back_to="in-memory",
                    reason=str(exc),
                )
                fallback_chain.append(step)
                self._trace_fallback(step)
                return
            counter[0] += 1
            if self.throttle:
                # Deliberate pacing between checkpoints; the crash tests
                # use it to make "SIGKILL mid-fixpoint" land reliably
                # between two saves.
                time.sleep(self.throttle)

        return sink

    # ------------------------------------------------------------------
    def run(self, *, resume: bool = False) -> SessionResult:
        """Evaluate the workload, checkpointing as configured.

        With ``resume=True`` the newest valid checkpoint of this
        workload (if any) supplies the starting frontier; without one
        the run is simply fresh.
        """
        governor = self._governor()
        fallback_chain: list[FallbackStep] = []
        counter = [0]
        resume_from: EvaluationSnapshot | None = None
        resumed_seq: int | None = None
        if resume and self.store is not None:
            latest = self.store.latest(expect_workload=self.workload())
            if latest is not None and latest.snapshot.strategy == self.strategy:
                resume_from = latest.snapshot
                resumed_seq = latest.seq
        sink = self._make_sink(governor, fallback_chain, counter)
        result = evaluate(
            self.program,
            self.database,
            strategy=self.strategy,
            engine=self.engine,
            plan_order=self.plan_order,
            workers=self.workers,
            budget=governor,
            tracer=self._tracer,
            checkpoint_every=self.checkpoint_every,
            checkpoint_sink=sink,
            resume_from=resume_from,
        )
        self._last = result
        # Degradation-ladder rungs the fleet took (worker recovery
        # exhaustion) join the session's own fallback steps, so callers
        # see one chain for the whole run.
        fallback_chain.extend(getattr(result, "fallbacks", ()))
        return SessionResult(
            result=result,
            mode="resumed" if resume_from is not None else "fresh",
            checkpoints_written=counter[0],
            resumed_seq=resumed_seq,
            fallback_chain=fallback_chain,
        )

    def resume(self) -> SessionResult:
        """:meth:`run` with ``resume=True``."""
        return self.run(resume=True)

    def warm_start(self) -> SessionResult | None:
        """Restore the latest *complete* fixpoint with zero evaluation.

        The serving daemon's restart path: when the store holds a
        complete checkpoint for this exact workload digest, the saved
        IDB is rebuilt into an :class:`~repro.datalog.evaluation
        .EvaluationResult` directly — no rules fire, no rounds run —
        and the session is primed for incremental :meth:`ingest`.
        Returns ``None`` when no complete checkpoint exists (the caller
        decides whether to fall back to :meth:`run`).
        """
        if self.store is None:
            return None
        latest = self.store.latest(expect_workload=self.workload())
        if latest is None or not latest.complete:
            return None
        outcome = self._complete_from(
            (latest.snapshot.idb, latest.snapshot.stats), "warm", []
        )
        outcome.resumed_seq = latest.seq
        return outcome

    # ------------------------------------------------------------------
    def _normalize_facts(self, facts: Iterable[object]) -> list[tuple[str, Row]]:
        normalized: list[tuple[str, Row]] = []
        for fact in facts:
            if isinstance(fact, Atom):
                if not fact.is_ground():
                    raise ValueError(f"ingested fact {fact} is not ground")
                normalized.append(
                    (fact.predicate, tuple(arg.value for arg in fact.args))  # type: ignore[union-attr]
                )
            else:
                predicate, row = fact  # type: ignore[misc]
                normalized.append((str(predicate), tuple(row)))
        return normalized

    def _prior_fixpoint(self) -> "tuple[Mapping[str, frozenset], EvaluationStats] | None":
        """The last complete fixpoint: in-memory first, else the store."""
        if self._last is not None:
            return (
                {pred: rel.rows() for pred, rel in self._last.idb.items()},
                self._last.stats,
            )
        if self.store is not None:
            latest = self.store.latest(expect_workload=self.workload())
            if latest is not None and latest.complete:
                return latest.snapshot.idb, latest.snapshot.stats
        return None

    def _negated_predicates(self) -> set[str]:
        return {
            lit.predicate
            for rule in self.program.rules
            for lit in rule.negative_literals
        }

    def _edb_rows(self) -> dict[str, frozenset]:
        return {
            pred: frozenset(tuple(row) for row in self.database.relation(pred).rows())
            for pred in sorted(self.database.predicates())
        }

    def _trace_fallback(self, step: FallbackStep) -> None:
        tracer = self.tracer
        if tracer.enabled:
            tracer.event(
                "budget.fallback",
                stage=step.stage,
                fell_back_to=step.fell_back_to,
                reason=step.reason,
            )

    def _recompute(
        self,
        stage: str,
        reason: str,
        mode: str,
        fallback_chain: list[FallbackStep],
        journaled_seq: int | None,
    ) -> SessionResult:
        """Fall back to a full governed re-evaluation, recording why."""
        step = FallbackStep(stage=stage, fell_back_to="recompute", reason=reason)
        fallback_chain.append(step)
        self._trace_fallback(step)
        outcome = self.run()
        outcome.mode = mode
        outcome.fallback_chain = fallback_chain + outcome.fallback_chain
        self._mark_covered(journaled_seq, outcome)
        return outcome

    def _journal_commit(
        self, new_rows: Mapping[str, Sequence[Row]], governor: Governor | None
    ) -> int | None:
        """Append + fsync the normalized rows; returns the acked seq.

        This is the **acknowledgment point** of an ingest: it runs
        before any in-memory mutation, so a commit that fails after the
        retry budget leaves the session byte-identical to before the
        call — the caller simply never acked.  The record carries the
        *pre-ingest* workload digest, the chain link recovery uses.
        """
        if self.journal is None:
            return None
        record = JournalRecord(
            seq=self.journal.next_seq(),
            workload=self.workload(),
            rows=tuple(
                (predicate, tuple(row))
                for predicate in sorted(new_rows)
                for row in new_rows[predicate]
            ),
        )
        commit_with_retry(
            self.journal, record, policy=self.retry, governor=governor
        )
        return record.seq

    def _mark_covered(self, seq: int | None, outcome: SessionResult) -> None:
        """Compact the journal once a covering complete checkpoint landed."""
        if self.journal is None or seq is None:
            return
        degraded = any(
            step.stage == "session.checkpoint" for step in outcome.fallback_chain
        )
        if outcome.checkpoints_written > 0 and not degraded:
            self._covered_seq = max(self._covered_seq, seq)
            self.journal.compact(self._covered_seq)

    def ingest(self, facts: Iterable[object]) -> SessionResult:
        """Add EDB facts and bring the fixpoint up to date incrementally.

        Facts are ground :class:`~repro.datalog.atoms.Atom` objects or
        ``(predicate, row)`` pairs.  Requires a prior *complete*
        fixpoint (from this session or its store); without one — or
        when an ingested predicate occurs negated in the program
        (non-monotonic update) — the session falls back to a full
        recompute, recorded in the result's ``fallback_chain``.

        Ordering is **journal-first**: normalize and validate, decide
        the path (incremental vs. recompute), journal the new rows with
        append+fsync, and only then mutate the EDB and derive.  A crash
        or budget trip at any point after the fsync is recoverable via
        :meth:`recover`; a journal failure before the fsync leaves the
        session completely untouched (nothing was acknowledged).
        """
        # Normalize and validate BEFORE any state changes: an invalid
        # fact must never leave a half-applied batch behind.
        normalized = self._normalize_facts(facts)
        idb_preds = self.program.idb_predicates
        arities: dict[str, int] = {}
        for predicate, row in normalized:
            if predicate in idb_preds:
                raise ValueError(
                    f"cannot ingest {predicate}: it is an IDB predicate "
                    "(derived, not stored)"
                )
            if predicate not in arities:
                arities[predicate] = self.database.relation(predicate, len(row)).arity
            if len(row) != arities[predicate]:
                raise ArityMismatch(arities[predicate], len(row), predicate)
        # The prior fixpoint must be anchored to the *pre-ingest* digest.
        prior = self._prior_fixpoint()
        # Deduplicate against the current EDB without mutating it — the
        # fallback decision below must be taken on a pristine session.
        new_rows: dict[str, list[Row]] = {}
        pending: set[tuple[str, Row]] = set()
        for predicate, row in normalized:
            if self.database.contains(predicate, row) or (predicate, row) in pending:
                continue
            pending.add((predicate, row))
            new_rows.setdefault(predicate, []).append(row)

        fallback_chain: list[FallbackStep] = []
        if not new_rows and prior is not None:
            # Nothing actually new: the prior fixpoint still stands.
            return self._complete_from(prior, "incremental", fallback_chain)

        reason = None
        if prior is None:
            reason = "no prior complete fixpoint to increment from"
        else:
            overlap = self._negated_predicates() & set(new_rows)
            if overlap:
                reason = (
                    f"ingested predicate(s) {', '.join(sorted(overlap))} "
                    "occur negated (non-monotonic)"
                )

        governor = self._governor()
        # Journal-first: fsync the acknowledged rows before the EDB
        # mutates.  From here on, any crash — including a budget trip
        # inside the recompute fallback below — is recoverable.
        journaled_seq = self._journal_commit(new_rows, governor)
        for predicate, rows in new_rows.items():
            for row in rows:
                self.database.add_row(predicate, row)
        # The EDB is now ahead of the last fixpoint.  Drop it until the
        # re-derivation below lands: after an abort the next ingest must
        # recompute from the journaled EDB, not answer from a stale prior.
        self._last = None

        if reason is not None:
            return self._recompute(
                "session.ingest", reason, "recompute", fallback_chain, journaled_seq
            )

        assert prior is not None
        result = self._incremental_fixpoint(new_rows, prior, governor)
        outcome = self._checkpoint_complete(
            result, "incremental", fallback_chain, governor
        )
        self._mark_covered(journaled_seq, outcome)
        return outcome

    # ------------------------------------------------------------------
    def _newest_self_contained(self) -> "Checkpoint | None":
        """The newest complete, EDB-carrying checkpoint that binds here.

        A *self-contained* checkpoint carries the extensional database
        alongside the fixpoint, so it can seed recovery even after the
        journal compacted the records it covers.  Binding is verified
        from the checkpoint's own contents: its EDB must reproduce its
        workload digest under this session's program and constraints
        (rules out a different workload sharing the directory), and it
        must contain every row of this session's initial EDB (rules
        out a checkpoint from an older registration whose facts have
        since changed).
        """
        if self.store is None:
            return None
        for path in sorted(self.store.paths(), reverse=True):
            try:
                found = self.store.load(path, quarantine_mismatch=False)
            except CheckpointError:
                continue
            if not found.complete or found.snapshot.edb is None:
                continue
            probe = Database(storage=self.database.storage)
            for predicate, rows in found.snapshot.edb.items():
                for row in rows:
                    probe.add_row(predicate, row)
            if workload_digest(self.program, probe, self.constraints) != found.workload:
                continue
            if not all(
                probe.contains(predicate, row)
                for predicate in self.database.predicates()
                for row in self.database.relation(predicate).rows()
            ):
                continue
            return found
        return None

    def recover(self) -> SessionResult:
        """Crash recovery: newest complete checkpoint + journal replay.

        The session must be constructed with the workload's *initial*
        EDB (as first registered).  Recovery then:

        1. replays the journal's acknowledged records onto the digest
           chain — each record carries the pre-ingest workload digest,
           so the chain positions every record against the initial EDB
           (records whose rows the EDB already contains are stale and
           skipped; a record that neither chains nor is contained
           raises :class:`~repro.persist.journal.JournalMismatch`);
        2. restores the newest *complete* checkpoint bound to any
           digest along the chain (zero evaluation, like
           :meth:`warm_start`);
        3. re-applies the uncovered suffix — incrementally for a
           monotone suffix, by governed recompute otherwise — and
           writes a fresh covering checkpoint, after which the covered
           journal prefix is compacted away.

        The result is byte-identical to a cold recompute over (initial
        EDB + every acknowledged ingest), which is exactly the
        crash-consistency property the kill-sweep tests assert.  With
        no journal and no checkpoint this is simply a fresh run, so
        callers can use ``recover()`` unconditionally at startup.
        """
        governor = self._governor()
        fallback_chain: list[FallbackStep] = []
        self._last = None  # rebuilt below; an abort must not leave a stale one
        records = [] if self.journal is None else self.journal.replay()
        # Pre-seed from the newest self-contained checkpoint: it is the
        # durable copy of every ingested fact whose journal record has
        # been compacted away, and folding its EDB in first makes the
        # digest chain below start at that checkpoint's digest (covered
        # records then read as stale and skip; live records chain on).
        base = self._newest_self_contained()
        if base is not None:
            assert base.snapshot.edb is not None
            for predicate, rows in base.snapshot.edb.items():
                for row in rows:
                    self.database.add_row(predicate, row)
        digests = [self.workload()]
        applicable: list[JournalRecord] = []
        absorbed_seq = 0
        if records:
            scratch = self.database.copy()
            for record in records:
                if record.workload == digests[-1]:
                    for predicate, row in record.rows:
                        scratch.add_row(predicate, row)
                    applicable.append(record)
                    digests.append(
                        workload_digest(self.program, scratch, self.constraints)
                    )
                elif all(
                    scratch.contains(predicate, row) for predicate, row in record.rows
                ):
                    # Stale: the initial EDB already includes these rows
                    # (e.g. a re-registration that resent ingested
                    # facts).  Idempotent replay skips them.
                    absorbed_seq = max(absorbed_seq, record.seq)
                    continue
                else:
                    raise JournalMismatch(
                        f"journal record {record.seq} does not chain onto this "
                        f"workload (expected digest {digests[-1][:12]}…, record "
                        f"carries {record.workload[:12]}…)"
                    )
        checkpoint = None
        best_k = 0
        if self.store is not None:
            for k in range(len(digests) - 1, -1, -1):
                found = self.store.latest(
                    expect_workload=digests[k], quarantine_mismatch=False
                )
                if found is not None and found.complete:
                    checkpoint, best_k = found, k
                    break
        if checkpoint is None and base is not None:
            # The chain probe can miss when the newest file at the base
            # digest is an incomplete mid-evaluation snapshot; the base
            # itself is complete and sits at digests[0] by construction.
            checkpoint, best_k = base, 0

        if checkpoint is None:
            # No covering checkpoint anywhere: the journal is the only
            # durable copy — fold every acknowledged record into the
            # EDB and recompute under the governor.
            for record in applicable:
                for predicate, row in record.rows:
                    self.database.add_row(predicate, row)
            if applicable:
                outcome = self._recompute(
                    "session.recover",
                    "no complete checkpoint covers the journal chain",
                    "recovered",
                    fallback_chain,
                    applicable[-1].seq,
                )
                outcome.replayed = len(applicable)
                return outcome
            outcome = self.run()
            if absorbed_seq:
                self._mark_covered(absorbed_seq, outcome)
            return outcome

        covered, suffix = applicable[:best_k], applicable[best_k:]
        for record in covered:
            for predicate, row in record.rows:
                self.database.add_row(predicate, row)
        # Records are compactable only once a *self-contained* durable
        # copy of their rows exists: absorbed records are contained in
        # the session's initial EDB (re-supplied at every recovery),
        # chain-covered records in the covering checkpoint's EDB — if
        # it carries one.  A covering checkpoint without an EDB defers
        # compaction until the next EDB-carrying checkpoint lands.
        compactable = absorbed_seq
        if covered and checkpoint.snapshot.edb is not None:
            compactable = max(compactable, covered[-1].seq)
        if compactable:
            self._covered_seq = max(self._covered_seq, compactable)
        prior = (checkpoint.snapshot.idb, checkpoint.snapshot.stats)

        if not suffix:
            # Pure warm restore: the newest complete checkpoint already
            # reflects every acknowledged record.
            outcome = self._complete_from(
                prior, "recovered" if covered else "warm", fallback_chain
            )
            outcome.resumed_seq = checkpoint.seq
            outcome.replayed = len(covered)
            if self.journal is not None and self._covered_seq:
                self.journal.compact(self._covered_seq)
            return outcome

        new_rows: dict[str, list[Row]] = {}
        for record in suffix:
            for predicate, row in record.rows:
                new_rows.setdefault(predicate, []).append(row)
        for predicate, rows in new_rows.items():
            for row in rows:
                self.database.add_row(predicate, row)
        overlap = self._negated_predicates() & set(new_rows)
        if overlap:
            outcome = self._recompute(
                "session.recover",
                f"replayed predicate(s) {', '.join(sorted(overlap))} "
                "occur negated (non-monotonic)",
                "recovered",
                fallback_chain,
                suffix[-1].seq,
            )
            outcome.replayed = len(covered) + len(suffix)
            return outcome

        result = self._incremental_fixpoint(new_rows, prior, governor)
        outcome = self._checkpoint_complete(
            result, "recovered", fallback_chain, governor
        )
        outcome.resumed_seq = checkpoint.seq
        outcome.replayed = len(covered) + len(suffix)
        self._mark_covered(suffix[-1].seq, outcome)
        return outcome

    def journal_info(self) -> dict | None:
        """The journal's JSON-ready summary with this session's lag view."""
        if self.journal is None:
            return None
        info = self.journal.info()
        info["lag"] = self.journal.lag(max(self._covered_seq, info["covered_seq"]))
        return info

    def _complete_from(
        self,
        prior: "tuple[Mapping[str, frozenset], EvaluationStats]",
        mode: str,
        fallback_chain: list[FallbackStep],
    ) -> SessionResult:
        prior_idb, prior_stats = prior
        idb = {
            pred: self.database.new_relation(self.program.arity_of(pred))
            for pred in self.program.idb_predicates
        }
        for pred, rows in prior_idb.items():
            if pred in idb:
                for row in rows:
                    idb[pred].add(row)
        result = EvaluationResult(
            idb=idb,
            stats=prior_stats.copy(),
            program=self.program,
            database=self.database,
        )
        self._last = result
        return SessionResult(result=result, mode=mode, fallback_chain=fallback_chain)

    def _checkpoint_complete(
        self,
        result: EvaluationResult,
        mode: str,
        fallback_chain: list[FallbackStep],
        governor: Governor | None,
    ) -> SessionResult:
        """Persist a ``complete=True`` snapshot of ``result`` (post-ingest)."""
        counter = [0]
        sink = self._make_sink(governor, fallback_chain, counter)
        if sink is not None:
            sink(
                EvaluationSnapshot(
                    strategy=self.strategy,
                    completed_sccs=len(_sccs(self.program.dependency_graph())),
                    scc_index=None,
                    iteration=result.stats.iterations,
                    idb={pred: rel.rows() for pred, rel in result.idb.items()},
                    delta=None,
                    stats=result.stats.copy(),
                    complete=True,
                )
            )
        return SessionResult(
            result=result,
            mode=mode,
            checkpoints_written=counter[0],
            fallback_chain=fallback_chain,
        )

    # ------------------------------------------------------------------
    def _incremental_fixpoint(
        self,
        new_rows: Mapping[str, Sequence[Row]],
        prior: "tuple[Mapping[str, frozenset], EvaluationStats]",
        governor: Governor | None,
    ) -> EvaluationResult:
        """Delta-seeded re-derivation over the already-updated database:
        the shared fixpoint driver's *ingest* seed."""
        self._last = _evaluate_ingest(
            self.program,
            self.database,
            new_rows,
            *prior,
            engine=self.engine,
            plan_order=self.plan_order,
            tracer=self.tracer,
            governor=governor,
        )
        return self._last

    # ------------------------------------------------------------------
    def inspect(self) -> dict:
        """A JSON-ready summary of the session's checkpoint store."""
        info: dict = {
            "workload": self.workload(),
            "strategy": self.strategy,
            "engine": self.engine,
            "storage": self.database.storage,
            "workers": self.workers,
            "checkpoint_every": self.checkpoint_every,
        }
        if self.store is None:
            info["store"] = None
            return info
        paths = self.store.paths()
        corrupt = sorted(
            p.name for p in self.store.directory.glob("*.corrupt*")
        )
        info["store"] = {
            "directory": str(self.store.directory),
            "checkpoints": len(paths),
            "corrupt": corrupt,
        }
        # Read-only diagnostic: never quarantine a checkpoint just
        # because it belongs to a different workload than ours.  The
        # envelope summary carries ``latest_round`` and ``age_seconds``
        # together (shared with the daemon's /stats endpoint).
        info["latest"] = self.store.latest_summary(expect_workload=self.workload())
        info["journal"] = self.journal_info()
        return info
