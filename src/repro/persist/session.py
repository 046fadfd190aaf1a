"""Durable evaluation sessions: recover, ingest, checkpoint.

A :class:`Session` binds one workload (program + *initial* database) to
one checkpoint directory.  Its durable life cycle is ``recover`` →
``ingest``\\ * → ``checkpoint``; each method's docstring is the contract:

* :meth:`Session.recover` — start *or* restart, and the **only** code
  that reads a checkpoint file or a journal segment: newest
  self-contained checkpoint + journal replay, else a fresh run.  A
  valid checkpoint that does not fit is skipped, never renamed.
* :meth:`Session.ingest` — add EDB facts and extend the live fixpoint
  *in place* by semi-naive differentiation (recompute when an ingested
  predicate occurs negated): **derive, then journal, then acknowledge**
  — the journal fsync is the acknowledgment and the only durable write
  an ingest waits for; a batch rejected on the way is taken back whole.
  A session that holds no fixpoint yet recovers first.
* :meth:`Session.checkpoint` — checkpoints follow **journal lag**: a
  covering self-contained checkpoint (EDB + fixpoint) is written when
  the journal bytes acknowledged since the last one reach that
  checkpoint's own size — so checkpoint writes stay within 2x of
  journal writes, and a restart replays at most one checkpoint's worth
  of journal — and additionally after every full evaluation, after a
  recovery that replayed records, and on this call.  Once one lands,
  the journal prefix it covers is compacted away.
* :meth:`Session.run` — the cold evaluation recovery falls back to and
  the tests compare against; it writes one covering checkpoint of the
  fixpoint, never reads disk.  A run killed mid-evaluation costs only
  that evaluation: nothing it computed was acknowledged.
* :meth:`Session.inspect` — a JSON-ready summary of store + journal.

Checkpoint saves go through :func:`~repro.persist.store.save_with_retry`;
a store that stays broken after the retry budget **degrades** the
session to in-memory evaluation (a
:class:`~repro.robustness.budget.FallbackStep` and a ``budget.fallback``
trace event) instead of failing it.  Statistics stay cumulative across
the whole life cycle (a restored fixpoint brings its counters, and
ingest adds to them), so budget accounting and reports
see the true total cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from ..datalog.database import ArityMismatch, Database, FactRows, Row
from ..datalog.evaluation import (
    EvaluationResult,
    EvaluationStats,
    _evaluate_ingest,
    evaluate,
)
from ..datalog.program import Program
from ..digest import bind_edb, edb_hash, program_digest, rows_hash
from ..observability.trace import Tracer, get_tracer
from ..robustness.budget import (
    Budget,
    CancellationToken,
    FallbackStep,
    Governor,
    record_fallback,
)
from .checkpoint import Checkpoint, CheckpointError, EvaluationSnapshot
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


@dataclass
class SessionResult:
    """The outcome of one session operation.

    ``mode`` records the path taken: ``"fresh"`` (full evaluation),
    ``"incremental"`` (delta-seeded ingest), ``"recompute"`` (ingest
    fell back to full re-evaluation), ``"warm"`` (zero-evaluation
    checkpoint restore) or ``"recovered"`` (recovery replayed journal
    records).
    ``fallback_chain`` lists every degradation taken, in order;
    ``replayed`` counts the journal records recovery re-applied, and
    ``resumed_seq`` is the sequence number of the checkpoint a
    recovery restored.
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
        journal: "IngestJournal | FlakyJournal | None" = None,
        constraints: Sequence[object] = (),
        budget: "Budget | Governor | None" = None,
        cancellation: CancellationToken | None = None,
        tracer: Tracer | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.program = program
        self.database = database
        self.store = store
        # The write-ahead ingest journal lives with the checkpoint store
        # (``<dir>/journal``) unless one is passed to place it elsewhere.
        if journal is None and store is not None:
            journal = IngestJournal(Path(store.directory) / "journal", tracer=tracer)
        self.journal = journal
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
        self.constraints = tuple(constraints)
        self.budget = budget
        self.cancellation = cancellation
        self._tracer = tracer
        self.retry = retry if retry is not None else RetryPolicy()
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

    def _add_rows(self, rows: Iterable[tuple[str, Row]]) -> list[tuple[str, Row]]:
        """Add EDB rows, moving the workload digest with them; returns
        those that were new."""
        self.workload()  # the hash must predate the rows
        add_row = self.database.add_row
        added = [(predicate, row) for predicate, row in rows if add_row(predicate, row)]
        self._edb_hash = rows_hash(added, self._edb_hash)
        return added

    # ------------------------------------------------------------------
    def _governor(self) -> Governor | None:
        return Governor.of(self.budget, self.cancellation)

    # ------------------------------------------------------------------
    def run(self) -> SessionResult:
        """Evaluate the workload cold, then checkpoint the fixpoint.

        Never reads disk: this is the evaluation :meth:`recover` falls
        back to on an empty directory, and the reference the tests
        compare recovery against.  Over a directory that may have been
        used before, call :meth:`recover` — a cold run there knows
        nothing of the ingests the directory holds.
        """
        governor = self._governor()
        result = evaluate(
            self.program, self.database, budget=governor, tracer=self._tracer
        )
        outcome = SessionResult(result=result, mode="fresh")
        outcome.checkpoints_written = self._cover(
            result, outcome.fallback_chain, governor
        )
        self._last = result
        return outcome

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
        if self._last is None or self.store is None:
            return False
        return self._cover(self._last, [], self._governor()) > 0

    # ------------------------------------------------------------------
    def _negated_predicates(self) -> set[str]:
        return {
            lit.predicate
            for rule in self.program.rules
            for lit in rule.negative_literals
        }

    def _journal_commit(
        self,
        new_rows: Mapping[str, Sequence[Row]],
        workload: str,
        governor: Governor | None,
    ) -> None:
        """Append + fsync the derived batch: the **acknowledgment point**
        of an ingest.  The record carries ``workload``, the *pre-ingest*
        digest — the chain link recovery uses."""
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
        ``(predicate, row)`` pairs.  A session that holds no fixpoint
        yet :meth:`recover`\\ s first — the directory's state, or a fresh
        run on an empty one — so an ingest never builds on less than
        what is durable.

        The new facts seed delta relations (Bancilhon–Ramakrishnan
        differentiation: each rule fires once per changed body position
        with the delta there and full relations elsewhere), then normal
        semi-naive rounds propagate inside each SCC in dependency order
        — row-identical to recomputation, and priced by the delta: the
        live relations and their indexes are extended *in place* (the
        result's ``idb`` holds the same relation objects as the previous
        result), compiled plans are kept between ingests, and the
        workload digest moves by one hash per added row.  When an
        ingested predicate occurs negated in the program the update is
        non-monotonic, and the session falls back to a full recompute,
        recorded in the result's ``fallback_chain``.

        Ordering: normalize and validate, decide the path, stage the
        new rows in the EDB and derive, and only then journal them with
        append+fsync — the acknowledgment, and the only durable write
        an ingest waits for unless journal lag makes a checkpoint due.
        A crash after the fsync is recoverable via :meth:`recover`;
        anything that raises before it — a typed error or budget trip
        in the derivation, a journal that cannot fsync — takes the
        whole batch back (EDB, fixpoint, digest, journal), so the
        journal only ever holds batches that :meth:`recover` can replay.
        """
        # Normalize and validate BEFORE any state changes: an invalid
        # fact must never leave a half-applied batch behind.
        groups = FactRows.of(facts).grouped()
        idb_preds = self.program.idb_predicates
        for predicate, rows in groups.items():
            if predicate in idb_preds:
                raise ValueError(
                    f"cannot ingest {predicate}: it is an IDB predicate "
                    "(derived, not stored)"
                )
            arity = self.database.relation(predicate, len(rows[0])).arity
            for row in rows:
                if len(row) != arity:
                    raise ArityMismatch(arity, len(row), predicate)
        fallback_chain: list[FallbackStep] = []
        if self._last is None:
            fallback_chain += self.recover().fallback_chain
        live = self._last
        assert live is not None
        # Deduplicate against the current EDB without mutating it — the
        # fallback decision below must be taken on a pristine session.
        contains = self.database.contains
        new_rows: dict[str, list[Row]] = {}
        for predicate, rows in groups.items():
            fresh = [row for row in dict.fromkeys(rows) if not contains(predicate, row)]
            if fresh:
                new_rows[predicate] = fresh

        if not new_rows:
            # Nothing actually new: the prior fixpoint still stands.
            return SessionResult(
                result=live, mode="incremental", fallback_chain=fallback_chain
            )

        reason = None
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
                record_fallback(
                    fallback_chain, "session.ingest", "recompute", reason, self.tracer
                )
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
        # Checkpoints follow journal lag.
        if self.store is not None and self._lag_bytes >= self._checkpoint_bytes:
            outcome.checkpoints_written += self._cover(
                outcome.result, fallback_chain, governor
            )
        return outcome

    # ------------------------------------------------------------------
    def _read_store(self) -> "tuple[Checkpoint | None, int]":
        """One pass over the store, newest file first, each read at most
        once: the newest self-contained checkpoint that binds here and
        its size on disk.

        A *self-contained* checkpoint is complete and carries the EDB
        beside the fixpoint, so it can seed recovery even after the
        journal compacted the records it covers.  It binds when its EDB
        reproduces its own workload digest under this session's program
        and constraints (not another workload sharing the directory)
        and contains every row of this session's initial EDB (not an
        older registration whose facts have since changed).  An older
        build's per-round frontier is neither, and is passed over.
        """
        for path in reversed(self.store.paths() if self.store is not None else []):
            try:
                found = self.store.load(path)
            except (CheckpointError, OSError):
                continue  # unreadable: an older file may still serve
            edb = found.snapshot.edb
            if (
                found.complete
                and edb is not None
                and found.workload
                == bind_edb(
                    self._shape,
                    rows_hash((pred, row) for pred, rows in edb.items() for row in rows),
                )
                and all(
                    row in edb.get(predicate, ())
                    for predicate in self.database.predicates()
                    for row in self.database.relation(predicate)
                )
            ):
                return found, path.stat().st_size
        return None, 0

    def recover(self) -> SessionResult:
        """Start or restart from the durable state: newest self-contained
        checkpoint + journal replay.

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
           :class:`~repro.persist.journal.JournalMismatch`);
        3. re-applies the chained records as one delta — incrementally
           when monotone, by governed recompute otherwise — and writes
           a fresh covering checkpoint, after which the covered journal
           prefix is compacted away.

        With no self-contained checkpoint, step 3 is a :meth:`run` over
        (initial EDB + chained records) — a fresh run on an empty
        directory, so callers use ``recover()`` unconditionally.  An
        evaluation that was killed left no checkpoint behind, so it is
        simply run again.

        The result is byte-identical to a cold recompute over (initial
        EDB + every acknowledged ingest).  A recovery that raises leaves
        the session as constructed — initial EDB, no fixpoint — and can
        simply be called again.
        """
        self.workload()
        before = self._edb_hash, self._applied_seq, self._covered_seq
        folded: list[tuple[str, Row]] = []
        try:
            return self._recover(folded)
        except BaseException:
            for predicate in {predicate for predicate, _ in folded}:
                rows = [row for pred, row in folded if pred == predicate]
                self.database.discard_rows(predicate, rows)
            self._edb_hash, self._applied_seq, self._covered_seq = before
            self._last = None  # an abort must not leave a stale fixpoint
            raise

    def _recover(self, folded: list[tuple[str, Row]]) -> SessionResult:
        """:meth:`recover`, noting in ``folded`` each row it adds to the EDB."""
        governor = self._governor()
        fallback_chain: list[FallbackStep] = []
        records = [] if self.journal is None else self.journal.replay()
        base, base_bytes = self._read_store()
        if base is not None:
            edb = base.snapshot.edb
            assert edb is not None
            folded += self._add_rows(
                (pred, row) for pred, rows in edb.items() for row in rows
            )
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
        folded += self._add_rows(chained)
        if records:
            self._applied_seq = max(self._applied_seq, records[-1].seq)

        new_rows: dict[str, list[Row]] = {}
        for predicate, row in chained:
            new_rows.setdefault(predicate, []).append(row)
        overlap = self._negated_predicates() & set(new_rows)
        if base is None or overlap:
            # No covering checkpoint anywhere (the journal is the only
            # durable copy; every acknowledged record is in the EDB now)
            # or a non-monotone replay: evaluate.  Its checkpoint covers
            # every applied record.
            if replayed:
                reason = "no complete checkpoint covers the journal chain"
                if base is not None:
                    reason = (
                        f"replayed predicate(s) {', '.join(sorted(overlap))} "
                        "occur negated (non-monotonic)"
                    )
                record_fallback(
                    fallback_chain, "session.recover", "recompute", reason, self.tracer
                )
            outcome = self.run()
            if replayed:
                outcome.mode = "recovered"
            outcome.fallback_chain = fallback_chain + outcome.fallback_chain
            outcome.replayed = replayed
            return outcome

        self._checkpoint_bytes = base_bytes
        outcome = SessionResult(
            result=self._restore(base.snapshot),
            mode="warm",
            resumed_seq=base.seq,
            fallback_chain=fallback_chain,
            replayed=replayed,
        )
        if not replayed:
            # Pure warm restore: the checkpoint already reflects every
            # acknowledged record.
            if self.journal is not None and self._covered_seq:
                self.journal.compact(self._covered_seq)
            return outcome
        outcome.result = self._incremental_fixpoint(new_rows, outcome.result, governor)
        outcome.mode = "recovered"
        # A replayed suffix is owed a checkpoint now; if the save
        # fails, the next ingest tries again.
        self._lag_bytes = self._checkpoint_bytes
        outcome.checkpoints_written = self._cover(
            outcome.result, fallback_chain, governor
        )
        return outcome

    def journal_info(self) -> dict | None:
        """The journal's JSON-ready summary with this session's lag view."""
        if self.journal is None:
            return None
        info = self.journal.info()
        info["lag"] = self.journal.lag(max(self._covered_seq, info["covered_seq"]))
        return info

    def _restore(self, snapshot: EvaluationSnapshot) -> EvaluationResult:
        """Make a complete snapshot's IDB the live fixpoint (no evaluation)."""
        # A union view stores nothing: rows an older checkpoint holds
        # for one are dropped, and the view reads its live members.
        views = self.program.union_views
        idb = {
            pred: self.database.new_relation(self.program.arity_of(pred))
            for pred in self.program.idb_predicates
            if pred not in views
        }
        for pred, rows in snapshot.idb.items():
            if pred in idb:
                idb[pred].extend(rows)
        self._last = EvaluationResult(
            idb=idb,
            stats=snapshot.stats.copy(),
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
        """Checkpoint ``result`` with retry; returns how many landed (0
        or 1).  The checkpoint is self-contained — the fixpoint plus the
        current EDB — so the journal can compact the records it covers
        without losing the only copy of ingested facts.  A store that
        stays broken degrades the operation to in-memory, recorded in
        ``fallback_chain``."""
        if self.store is None:
            return 0
        snapshot = EvaluationSnapshot(
            idb={pred: rel.rows() for pred, rel in result.idb.items()},
            stats=result.stats.copy(),
            edb={
                pred: self.database.relation(pred).rows()
                for pred in sorted(self.database.predicates())
            },
            completed_sccs=len(self.program.schedule),
        )
        checkpoint = Checkpoint(
            seq=self.store.next_seq(), workload=self.workload(), snapshot=snapshot
        )
        try:
            save_with_retry(
                self.store, checkpoint, policy=self.retry, governor=governor
            )
        except CheckpointStoreUnavailable as exc:
            record_fallback(
                fallback_chain, "session.checkpoint", "in-memory", str(exc), self.tracer
            )
            return 0
        # The checkpoint reflects every journal record applied so far,
        # so that prefix is compacted away, and lag is counted afresh
        # against its size.
        self._checkpoint_bytes = len(checkpoint.encode()[0])
        self._lag_bytes = 0
        self._covered_seq = max(self._covered_seq, self._applied_seq)
        if self.journal is not None and self._covered_seq:
            self.journal.compact(self._covered_seq)
        return 1

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
        it raises: ``live`` is then rolled back, and the caller takes
        the rows it staged back out of the EDB."""
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
        info: dict = {"workload": self.workload()}
        if self.store is None:
            info["store"] = None
            return info
        info["store"] = {
            "directory": str(self.store.directory),
            "checkpoints": len(self.store.paths()),
            "corrupt": sorted(p.name for p in self.store.directory.glob("*.corrupt*")),
        }
        # The envelope summary carries ``latest_round`` and
        # ``age_seconds`` together (shared with the daemon's /stats).
        info["latest"] = self.store.latest_summary(expect_workload=self.workload())
        info["journal"] = self.journal_info()
        return info
