"""Durable evaluation sessions: run, crash, resume, ingest.

A :class:`Session` binds one workload (program + database) to one
checkpoint directory and exposes the durable life cycle:

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

  An ingest is **priced by its delta**.  The session's live fixpoint
  is extended *in place*: the relations of the last result — rows and
  their incrementally maintained indexes — are the ones the delta
  rounds add to, the compiled plans are kept between ingests, and the
  workload digest moves by one hash per added row.  The returned
  result therefore shares its relations with every earlier result of
  the session.

  Ingest **derives, then journals, then acknowledges**: the new rows
  are staged in the EDB and the fixpoint is brought up to date first;
  only a batch whose derivation completed is appended to the session's
  :class:`~repro.persist.journal.IngestJournal` and ``fsync``\\ ed — the
  fsync is the acknowledgment point, and the only durable write an
  ingest waits for, so an acknowledged ingest survives a SIGKILL at any
  later instant.  A batch that is rejected on the way (an order atom
  meeting incomparable values, a budget trip, a journal that cannot
  fsync) is taken back whole: EDB, fixpoint, workload digest and
  journal are what they were, the error propagates, and the session
  keeps serving and ingesting.  So the journal only ever holds batches
  that :meth:`Session.recover` can replay.  Checkpoints follow
  **journal lag**: a covering
  self-contained checkpoint (EDB + fixpoint) is written when the
  journal bytes acknowledged since the last one reach that
  checkpoint's own size — so checkpoint writes stay within 2x of
  journal writes, and a restart replays at most one checkpoint's worth
  of journal — and additionally after every full run, after a recovery
  that replayed records, and on :meth:`Session.checkpoint`.  Once a
  covering checkpoint lands, the journal prefix it covers is compacted
  away.  (A session with a store but no journal has no other durable
  copy, so there every ingest checkpoints.)
* :meth:`Session.recover` — crash recovery: restore the newest
  self-contained checkpoint, chain the journal's acknowledged records
  onto its EDB (one hash per row), and replay them all as **one**
  incremental delta (by recompute when not monotone).  The resulting
  fixpoint is byte-identical to a cold recompute over (initial EDB +
  every acknowledged ingest).
* :meth:`Session.inspect` — a JSON-ready summary of store + journal.

Statistics stay cumulative across the whole life cycle (resume and
ingest merge the prior snapshot's counters before adding new work), so
budget accounting and reports see the true total cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

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
from ..digest import bind_edb, edb_hash, program_digest, rows_hash
from ..observability.trace import Tracer, get_tracer
from ..robustness.budget import Budget, CancellationToken, FallbackStep, Governor
from .checkpoint import Checkpoint, CheckpointError
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
        budget: "Budget | Governor | None" = None,
        cancellation: CancellationToken | None = None,
        tracer: Tracer | None = None,
        retry: RetryPolicy | None = None,
        throttle: float = 0.0,
    ):
        self.program = program
        self.database = database
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
        # Journal positions.  Every record up to ``_applied_seq`` has
        # its rows in the EDB (ingest and recovery advance it); a
        # self-contained checkpoint on disk reflects every record up to
        # ``_covered_seq`` (advanced when one lands).
        self._applied_seq = 0
        self._covered_seq = 0
        # Journal lag in bytes: the size of the newest covering
        # checkpoint, and the journal bytes acknowledged since it
        # landed.  An ingest checkpoints when the second reaches the
        # first.
        self._checkpoint_bytes = 0
        self._lag_bytes = 0
        self.checkpoint_every = checkpoint_every
        self.constraints = tuple(constraints)
        self.budget = budget
        self.cancellation = cancellation
        self._tracer = tracer
        self.retry = retry if retry is not None else RetryPolicy()
        self.throttle = throttle
        self._last: EvaluationResult | None = None
        #: Compiled (rule, delta position) plans, kept between ingests.
        self._plans: dict = {}
        # The workload digest: the program-shape digest bound to the
        # EDB's multiset hash.  The hash is taken on first use and then
        # moves with the rows this session adds (:meth:`_add_rows`).
        self._shape = program_digest(program, self.constraints)
        self._edb_hash: int | None = None

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    def workload(self) -> str:
        """The digest binding checkpoints to this exact workload."""
        if self._edb_hash is None:
            self._edb_hash = edb_hash(self.database)
        return bind_edb(self._shape, self._edb_hash)

    def _add_rows(self, rows: Iterable[tuple[str, Row]]) -> None:
        """Add EDB rows, moving the workload digest with them."""
        self.workload()  # the hash must predate the rows
        add_row = self.database.add_row
        added = [(predicate, row) for predicate, row in rows if add_row(predicate, row)]
        self._edb_hash = rows_hash(added, self._edb_hash)

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
                seq=store.next_seq(), workload=self.workload(), snapshot=snapshot
            )
            try:
                save_with_retry(
                    store, checkpoint, policy=self.retry, governor=governor
                )
            except CheckpointStoreUnavailable as exc:
                state["degraded"] = True
                self._fall_back(
                    fallback_chain, "session.checkpoint", "in-memory", str(exc)
                )
                return
            counter[0] += 1
            if snapshot.complete:
                self._covering_landed(checkpoint)
            if self.throttle:
                # Deliberate pacing between checkpoints; the crash tests
                # use it to make "SIGKILL mid-fixpoint" land reliably
                # between two saves.
                time.sleep(self.throttle)

        return sink

    def _covering_landed(self, checkpoint: Checkpoint) -> None:
        """A self-contained checkpoint of the current EDB is durable.

        It reflects every journal record applied so far, so that prefix
        is compacted away, and lag is counted afresh against its size.
        """
        self._checkpoint_bytes = len(checkpoint.encode()[0])
        self._lag_bytes = 0
        self._covered_seq = max(self._covered_seq, self._applied_seq)
        if self.journal is not None and self._covered_seq:
            self.journal.compact(self._covered_seq)

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
            if latest is not None and latest.snapshot.strategy == "seminaive":
                resume_from = latest.snapshot
                resumed_seq = latest.seq
        sink = self._make_sink(governor, fallback_chain, counter)
        result = evaluate(
            self.program,
            self.database,
            budget=governor,
            tracer=self._tracer,
            checkpoint_every=self.checkpoint_every,
            checkpoint_sink=sink,
            resume_from=resume_from,
        )
        self._last = result
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

    def checkpoint(self) -> bool:
        """Write a covering checkpoint of the live fixpoint now.

        The explicit counterpart of the lag-triggered checkpoint of
        :meth:`ingest` (``repro session ingest`` calls it before
        exiting): the journal prefix it covers is compacted away.
        Returns whether the store now holds a checkpoint reflecting
        every acknowledged ingest — trivially so when nothing was
        acknowledged since the last one; ``False`` without a store or a
        current fixpoint, or when the store stayed broken through the
        retry budget (traced as a ``budget.fallback`` like any degraded
        save).
        """
        if self._checkpoint_bytes and not self._lag_bytes:
            return True
        if self._last is None:
            return False
        return self._cover(self._last, [], self._governor()) > 0

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

    def _live_fixpoint(self) -> "EvaluationResult | None":
        """The current complete fixpoint, as relations of this session's
        database that an ingest may extend: in-memory first, else the
        store's."""
        last = self._last
        if last is None and self.store is not None:
            latest = self.store.latest(
                expect_workload=self.workload(), quarantine_mismatch=False
            )
            if latest is not None and latest.complete:
                last = self._restore(latest.snapshot.idb, latest.snapshot.stats)
        return last

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

    def _fall_back(
        self, chain: list[FallbackStep], stage: str, fell_back_to: str, reason: str
    ) -> None:
        """Record one degradation in ``chain`` and in the trace."""
        step = FallbackStep(stage=stage, fell_back_to=fell_back_to, reason=reason)
        chain.append(step)
        tracer = self.tracer
        if tracer.enabled:
            tracer.event(
                "budget.fallback",
                stage=step.stage,
                fell_back_to=step.fell_back_to,
                reason=step.reason,
            )

    def _recover_by_recompute(
        self, reason: str, fallback_chain: list[FallbackStep]
    ) -> SessionResult:
        """Recovery's fall-back to a full governed re-evaluation.

        The run's final checkpoint covers every applied journal record
        (:meth:`_covering_landed`)."""
        self._fall_back(fallback_chain, "session.recover", "recompute", reason)
        outcome = self.run()
        outcome.mode = "recovered"
        outcome.fallback_chain = fallback_chain + outcome.fallback_chain
        return outcome

    def _journal_commit(
        self,
        new_rows: Mapping[str, Sequence[Row]],
        workload: str,
        governor: Governor | None,
    ) -> None:
        """Append + fsync the normalized rows.

        This is the **acknowledgment point** of an ingest.  It runs
        once the batch has been derived, and :meth:`ingest` takes the
        staged rows and their consequences back when it fails after the
        retry budget, so the session is then byte-identical to before
        the call — the caller simply never acked.  The record carries
        ``workload``, the *pre-ingest* digest: the chain link recovery
        uses.
        """
        if self.journal is None:
            return
        record = JournalRecord(
            seq=self.journal.next_seq(),
            workload=workload,
            rows=tuple(
                (predicate, tuple(row))
                for predicate in sorted(new_rows)
                for row in new_rows[predicate]
            ),
        )
        self._lag_bytes += commit_with_retry(
            self.journal, record, policy=self.retry, governor=governor
        )
        self._applied_seq = record.seq

    def ingest(self, facts: Iterable[object]) -> SessionResult:
        """Add EDB facts and bring the fixpoint up to date incrementally.

        Facts are ground :class:`~repro.datalog.atoms.Atom` objects or
        ``(predicate, row)`` pairs.  Requires a prior *complete*
        fixpoint (from this session or its store); without one — or
        when an ingested predicate occurs negated in the program
        (non-monotonic update) — the session falls back to a full
        recompute, recorded in the result's ``fallback_chain``.

        Ordering: normalize and validate, decide the path (incremental
        vs. recompute), stage the new rows in the EDB and derive, and
        only then journal them with append+fsync — the acknowledgment.
        A crash at any point after the fsync is recoverable via
        :meth:`recover`; anything that raises before it — a typed error
        or budget trip in the derivation, a journal that cannot fsync —
        takes the whole batch back and leaves the session completely
        untouched (nothing was acknowledged).

        The incremental path extends the live relations in place: the
        result's ``idb`` holds the same relation objects as the
        session's previous result.  The journal fsync is the only
        durable write it waits for, except when journal lag has reached
        the last covering checkpoint's size and a new one is due (see
        the module docstring).
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
        live = self._live_fixpoint()
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
        if not new_rows and live is not None:
            # Nothing actually new: the prior fixpoint still stands.
            return SessionResult(
                result=live, mode="incremental", fallback_chain=fallback_chain
            )

        reason = None
        if live is None:
            reason = "no prior complete fixpoint to increment from"
        else:
            overlap = self._negated_predicates() & set(new_rows)
            if overlap:
                reason = (
                    f"ingested predicate(s) {', '.join(sorted(overlap))} "
                    "occur negated (non-monotonic)"
                )

        governor = self._governor()
        workload, edb_hash = self.workload(), self._edb_hash
        self._add_rows(
            (predicate, row) for predicate, rows in new_rows.items() for row in rows
        )

        def commit() -> None:
            self._journal_commit(new_rows, workload, governor)

        try:
            if reason is None:
                result = self._incremental_fixpoint(new_rows, live, governor, commit)
            else:
                self._fall_back(fallback_chain, "session.ingest", "recompute", reason)
                result = evaluate(
                    self.program, self.database, budget=governor, tracer=self._tracer
                )
                commit()
        except BaseException:
            # Rejected: the staged rows leave the EDB (the derivation
            # already took its own additions back) and the prior
            # fixpoint stands.
            for predicate, rows in new_rows.items():
                self.database.discard_rows(predicate, rows)
            self._edb_hash = edb_hash
            self._last = live
            raise
        self._last = result
        outcome = SessionResult(
            result=result,
            mode="incremental" if reason is None else "recompute",
            fallback_chain=fallback_chain,
        )
        # Checkpoints follow journal lag.  Without a journal the
        # checkpoint is the only durable copy, so every ingest is due.
        if self.store is not None and (
            self.journal is None or self._lag_bytes >= self._checkpoint_bytes
        ):
            outcome.checkpoints_written += self._cover(
                outcome.result, fallback_chain, governor
            )
        return outcome

    # ------------------------------------------------------------------
    def _newest_self_contained(self) -> "tuple[Checkpoint, int] | None":
        """The newest complete, EDB-carrying checkpoint that binds here,
        with its size on disk.

        A *self-contained* checkpoint carries the extensional database
        alongside the fixpoint, so it can seed recovery even after the
        journal compacted the records it covers.  Binding is verified
        from the checkpoint's own contents: its EDB must reproduce its
        workload digest under this session's program and constraints
        (rules out a different workload sharing the directory), and it
        must contain every row of this session's initial EDB (rules
        out a checkpoint from an older registration whose facts have
        since changed).  Files are read newest first, each at most once.
        """
        if self.store is None:
            return None
        for path in reversed(self.store.paths()):
            try:
                found = self.store.load(path, quarantine_mismatch=False)
            except (CheckpointError, OSError):
                continue  # unreadable: an older file may still serve
            edb = found.snapshot.edb
            if not found.complete or edb is None:
                continue
            digest = bind_edb(
                self._shape,
                rows_hash((pred, row) for pred, rows in edb.items() for row in rows),
            )
            if digest != found.workload:
                continue
            if not all(
                row in edb.get(predicate, ())
                for predicate in self.database.predicates()
                for row in self.database.relation(predicate)
            ):
                continue
            return found, path.stat().st_size
        return None

    def recover(self) -> SessionResult:
        """Crash recovery: newest self-contained checkpoint + journal replay.

        The session must be constructed with the workload's *initial*
        EDB (as first registered).  Recovery then:

        1. folds in the EDB of the newest self-contained checkpoint that
           binds to this workload — the durable copy of every ingested
           fact whose journal record has been compacted away — and
           restores its fixpoint (zero evaluation);
        2. chains the journal's acknowledged records onto that EDB:
           each record carries the pre-ingest workload digest, and the
           digest moves by one hash per row, so the walk costs the
           journal's size, not the database's (records whose rows the
           EDB already contains are stale and skipped; a record that
           neither chains nor is contained raises
           :class:`~repro.persist.journal.JournalMismatch` and leaves
           the EDB as step 1 left it);
        3. re-applies the chained records as one delta — incrementally
           when monotone, by governed recompute otherwise — and writes
           a fresh covering checkpoint, after which the covered journal
           prefix is compacted away.

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
        base = self._newest_self_contained()
        if base is not None:
            edb = base[0].snapshot.edb
            assert edb is not None
            self._add_rows((pred, row) for pred, rows in edb.items() for row in rows)
        head = self.workload()
        edb_sum = self._edb_hash
        contains = self.database.contains
        # The rows the chain adds, in journal order, not yet in the EDB.
        chained: dict[tuple[str, Row], None] = {}
        replayed = 0
        for record in records:
            if record.workload == head:
                fresh = [
                    pair
                    for pair in record.rows
                    if pair not in chained and not contains(*pair)
                ]
                chained.update(dict.fromkeys(fresh))
                edb_sum = rows_hash(fresh, edb_sum)
                head = bind_edb(self._shape, edb_sum)
                replayed += 1
            elif all(pair in chained or contains(*pair) for pair in record.rows):
                # Stale: the EDB already includes these rows (the base
                # checkpoint covers them, or a re-registration resent
                # ingested facts).  Idempotent replay skips them; those
                # ahead of the chain are durable elsewhere already.
                if not replayed:
                    self._covered_seq = max(self._covered_seq, record.seq)
            else:
                raise JournalMismatch(
                    f"journal record {record.seq} does not chain onto this "
                    f"workload (expected digest {head[:12]}…, record "
                    f"carries {record.workload[:12]}…)"
                )
        self._add_rows(chained)
        if records:
            self._applied_seq = max(self._applied_seq, records[-1].seq)

        if base is None:
            # No covering checkpoint anywhere: the journal is the only
            # durable copy — every acknowledged record is in the EDB
            # now; recompute under the governor.
            if not replayed:
                return self.run()
            outcome = self._recover_by_recompute(
                "no complete checkpoint covers the journal chain", fallback_chain
            )
            outcome.replayed = replayed
            return outcome

        checkpoint, self._checkpoint_bytes = base
        live = self._restore(checkpoint.snapshot.idb, checkpoint.snapshot.stats)
        outcome = SessionResult(
            result=live,
            mode="warm",
            resumed_seq=checkpoint.seq,
            fallback_chain=fallback_chain,
        )
        if not replayed:
            # Pure warm restore: the checkpoint already reflects every
            # acknowledged record.
            if self.journal is not None and self._covered_seq:
                self.journal.compact(self._covered_seq)
            return outcome

        new_rows: dict[str, list[Row]] = {}
        for predicate, row in chained:
            new_rows.setdefault(predicate, []).append(row)
        overlap = self._negated_predicates() & set(new_rows)
        if overlap:
            outcome = self._recover_by_recompute(
                f"replayed predicate(s) {', '.join(sorted(overlap))} "
                "occur negated (non-monotonic)",
                fallback_chain,
            )
        else:
            outcome.result = self._incremental_fixpoint(new_rows, live, governor)
            outcome.mode = "recovered"
            # A replayed suffix is owed a checkpoint now; if the save
            # fails, the next ingest tries again.
            self._lag_bytes = self._checkpoint_bytes
            outcome.checkpoints_written = self._cover(
                outcome.result, fallback_chain, governor
            )
        outcome.replayed = replayed
        return outcome

    def journal_info(self) -> dict | None:
        """The journal's JSON-ready summary with this session's lag view."""
        if self.journal is None:
            return None
        info = self.journal.info()
        info["lag"] = self.journal.lag(max(self._covered_seq, info["covered_seq"]))
        return info

    def _restore(
        self, idb_rows: Mapping[str, Iterable[Row]], stats: EvaluationStats
    ) -> EvaluationResult:
        """Make saved IDB rows the live fixpoint (no evaluation)."""
        idb = {
            pred: self.database.new_relation(self.program.arity_of(pred))
            for pred in self.program.idb_predicates
        }
        for pred, rows in idb_rows.items():
            if pred in idb:
                idb[pred].extend(rows)
        self._last = EvaluationResult(
            idb=idb,
            stats=stats.copy(),
            program=self.program,
            database=self.database,
        )
        return self._last

    def _cover(
        self,
        result: EvaluationResult,
        fallback_chain: list[FallbackStep],
        governor: Governor | None,
    ) -> int:
        """Persist a self-contained ``complete=True`` snapshot of
        ``result``; returns how many checkpoints landed (0 or 1), with
        a degraded save recorded in ``fallback_chain``."""
        counter = [0]
        sink = self._make_sink(governor, fallback_chain, counter)
        if sink is not None:
            sink(
                EvaluationSnapshot(
                    strategy="seminaive",
                    completed_sccs=len(_sccs(self.program.dependency_graph())),
                    scc_index=None,
                    iteration=result.stats.iterations,
                    idb={pred: rel.rows() for pred, rel in result.idb.items()},
                    delta=None,
                    stats=result.stats.copy(),
                    complete=True,
                )
            )
        return counter[0]

    # ------------------------------------------------------------------
    def _incremental_fixpoint(
        self,
        new_rows: Mapping[str, Sequence[Row]],
        live: EvaluationResult,
        governor: Governor | None,
        commit: "Callable[[], object] | None" = None,
    ) -> EvaluationResult:
        """Delta-seeded re-derivation over the already-updated database:
        the shared fixpoint driver's *ingest* seed, extending ``live``'s
        relations in place, then ``commit`` (the ingest's journal
        write).  There is no current fixpoint while it runs — nor after
        it raises: ``live`` is then rolled back, and the caller decides
        whether the EDB follows it (:meth:`ingest`) or stays ahead
        (:meth:`recover`, whose rows are already durable)."""
        self._last = None
        self._last = _evaluate_ingest(
            self.program,
            self.database,
            new_rows,
            live,
            plans=self._plans,
            tracer=self.tracer,
            governor=governor,
            commit=commit,
        )
        return self._last

    # ------------------------------------------------------------------
    def inspect(self) -> dict:
        """A JSON-ready summary of the session's checkpoint store."""
        info: dict = {
            "workload": self.workload(),
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
