"""Durable evaluation sessions: recover, ingest, checkpoint.

A :class:`Session` binds one workload (program + *initial* database) to
one checkpoint directory.  What is durable is the EDB: base files
(:mod:`repro.persist.checkpoint`, each the EDB a session had reached)
plus the ingest journal.  The fixpoint is never stored — it is a
function of the EDB, and recovery re-derives it.  The durable life
cycle is ``recover`` → ``ingest``\\ * → ``checkpoint``; each method's
docstring is the contract:

* :meth:`Session.recover` — start *or* restart, and the **only** code
  that reads a base file or a journal segment: fold in the newest base
  that binds here, chain the journal onto it, then run one governed
  evaluation.  A valid base that does not fit is skipped, never
  renamed.
* :meth:`Session.ingest` — add EDB facts and extend the live fixpoint
  *in place* by semi-naive differentiation (recompute when an ingested
  predicate occurs negated): **derive, then journal, then acknowledge**
  — the journal fsync is the acknowledgment and the only durable write
  an ingest waits for; a batch rejected on the way is taken back whole.
  A session that holds no fixpoint yet recovers first.
* :meth:`Session.checkpoint` — bases follow **journal lag**: a base is
  written when the journal bytes acknowledged since the last one reach
  that base's own size (with no base on disk, the size a base of the
  caller's EDB would have) — so base writes stay within 2x of journal
  writes, and a restart replays at most one base's worth of journal —
  and additionally after a recovery that replayed records, and on this
  call.  Once one lands, the journal prefix it covers is compacted
  away.
* :meth:`Session.run` — a cold evaluation of the EDB as it stands;
  it writes nothing and never reads disk.  The caller re-supplies the
  initial EDB on every start, so nothing needs writing until an ingest.
* :meth:`Session.inspect` — a JSON-ready summary of store + journal.

Base saves go through :func:`~repro.persist.store.save_with_retry`; a
store that stays broken after the retry budget **degrades** the session
to in-memory evaluation (a :class:`~repro.robustness.budget.FallbackStep`
and a ``budget.fallback`` trace event) instead of failing it.  Work
counters start afresh with every process: a recovery's are those of
its evaluation, and ingests add to them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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
    RetryPolicy,
    record_fallback,
)
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
    save_with_retry,
)

__all__ = ["Session", "SessionResult"]


@dataclass
class SessionResult:
    """The outcome of one session operation.

    ``mode`` records the path taken: ``"fresh"`` (full evaluation over
    the caller's EDB alone), ``"incremental"`` (delta-seeded ingest),
    ``"recompute"`` (ingest fell back to full re-evaluation) or
    ``"recovered"`` (recovery folded in a base or replayed journal
    records, then evaluated).  ``fallback_chain`` lists every
    degradation taken, in order; ``replayed`` counts the journal
    records recovery re-applied.
    """

    result: EvaluationResult
    mode: str
    checkpoints_written: int = 0
    fallback_chain: list[FallbackStep] = field(default_factory=list)
    replayed: int = 0

    @property
    def stats(self) -> EvaluationStats:
        return self.result.stats


@dataclass(frozen=True)
class _Base:
    """A base file on disk: the one a restart would fold in."""

    seq: int
    edb_facts: int
    bytes: int
    path: Path

    def summary(self) -> dict:
        try:
            age = max(0.0, time.time() - self.path.stat().st_mtime)
        except OSError:
            age = None
        return {
            "seq": self.seq,
            "edb_facts": self.edb_facts,
            "bytes": self.bytes,
            "age_seconds": age,
        }


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
        # its rows in the EDB (ingest and recovery advance it); a base
        # on disk reflects every record up to ``_covered_seq`` (advanced
        # when one lands).
        self._applied_seq = 0
        self._covered_seq = 0
        # The newest base this session read or wrote, and the journal
        # bytes acknowledged since.  A base is due when the second
        # reaches the first's size (:meth:`_lag_limit`).
        self._base: _Base | None = None
        self._lag_bytes = 0
        self._unwritten_base_bytes: int | None = None
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
        """The digest binding bases and journal records to this exact workload."""
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
        """Evaluate the workload's EDB as it stands, cold; write nothing.

        Never reads disk: over a directory that may have been used
        before, call :meth:`recover` — a cold run there knows nothing of
        the ingests the directory holds.
        """
        result = evaluate(
            self.program, self.database, budget=self._governor(), tracer=self._tracer
        )
        self._last = result
        return SessionResult(result=result, mode="fresh")

    def checkpoint(self) -> bool:
        """Write a base of the session's EDB now, if any ingest is uncovered.

        The explicit counterpart of the lag-triggered base of
        :meth:`ingest` (``repro session ingest`` calls it before
        exiting): the journal prefix it covers is compacted away.
        Returns whether the durable state now needs no journal record
        this session acknowledged — trivially so when nothing was
        acknowledged since the last base; ``False`` without a store or a
        current fixpoint, or when the store stayed broken through the
        retry budget (traced as a ``budget.fallback`` like any degraded
        save).
        """
        if self._last is None or self.store is None:
            return False
        if not self._lag_bytes:
            return True
        return self._cover([], self._governor()) > 0

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
        an ingest waits for unless journal lag makes a base due.
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
                # The shared fixpoint driver's ingest seed extends
                # ``live``'s relations in place, then commits; there is
                # no current fixpoint while it runs.
                self._last = None
                result = _evaluate_ingest(
                    self.program,
                    self.database,
                    new_rows,
                    live,
                    plans=self._plans,
                    tracer=self.tracer,
                    governor=governor,
                    commit=commit,
                )
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
        # Bases follow journal lag.
        if self.store is not None and self._lag_bytes >= self._lag_limit():
            outcome.checkpoints_written += self._cover(fallback_chain, governor)
        return outcome

    # ------------------------------------------------------------------
    def _read_store(self) -> "tuple[Checkpoint, _Base] | None":
        """One pass over the store, newest file first, each read at most
        once: the newest base that binds here.

        A base binds when its EDB reproduces its own workload digest
        under this session's program and constraints (not another
        workload sharing the directory) and contains every row of this
        session's initial EDB (not an older registration whose facts
        have since changed).  A valid file that holds no EDB (an older
        build's per-round frontier) is passed over.
        """
        for path in reversed(self.store.paths() if self.store is not None else []):
            try:
                found = self.store.load(path)
                size = path.stat().st_size
            except (CheckpointError, OSError):
                continue  # unreadable: an older file may still serve
            edb = found.edb
            if (
                edb is not None
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
                return found, _Base(found.seq, found.edb_facts, size, path)
        return None

    def recover(self) -> SessionResult:
        """Start or restart from the durable state: newest binding base,
        journal chain, one evaluation.

        The session must be constructed with the workload's *initial*
        EDB (as first registered).  Recovery then:

        1. folds in the EDB of the newest base that binds to this
           workload — the durable copy of every ingested fact whose
           journal record has been compacted away;
        2. chains the journal's acknowledged records onto that EDB:
           each record carries the pre-ingest workload digest, and the
           digest moves by one hash per row, so the walk costs the
           journal's size, not the database's (records whose rows the
           EDB already contains are stale and skipped; a record that
           neither chains nor is contained raises
           :class:`~repro.persist.journal.JournalMismatch`);
        3. runs one governed evaluation over the result — monotone or
           not, replayed or not — and, when it replayed records, writes
           a base covering them, after which the covered journal prefix
           is compacted away.

        On an empty directory this is a fresh run, so callers use
        ``recover()`` unconditionally.  An evaluation that was killed
        left nothing behind, so it is simply run again.

        The result is byte-identical to a cold recompute over (initial
        EDB + every acknowledged ingest).  A recovery that raises leaves
        the session as constructed — initial EDB, no fixpoint — and can
        simply be called again.
        """
        self.workload()
        before = self._edb_hash, self._applied_seq, self._covered_seq, self._base
        folded: list[tuple[str, Row]] = []
        try:
            return self._recover(folded)
        except BaseException:
            for predicate in {predicate for predicate, _ in folded}:
                rows = [row for pred, row in folded if pred == predicate]
                self.database.discard_rows(predicate, rows)
            self._edb_hash, self._applied_seq, self._covered_seq, self._base = before
            self._last = None  # an abort must not leave a stale fixpoint
            raise

    def _recover(self, folded: list[tuple[str, Row]]) -> SessionResult:
        """:meth:`recover`, noting in ``folded`` each row it adds to the EDB."""
        governor = self._governor()
        records = [] if self.journal is None else self.journal.replay()
        found = self._read_store()
        if found is not None:
            base, self._base = found
            assert base.edb is not None
            folded += self._add_rows(
                (pred, row) for pred, rows in base.edb.items() for row in rows
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
                # covers them, or a re-registration resent ingested
                # facts).  Idempotent replay skips them.  Only a base
                # makes them durable elsewhere: rows the caller resent
                # may be missing from the next registration, so with no
                # base the record stays until a base is written.
                if not replayed and found is not None:
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

        self._last = evaluate(
            self.program, self.database, budget=governor, tracer=self._tracer
        )
        outcome = SessionResult(
            result=self._last,
            mode="recovered" if found is not None or replayed else "fresh",
            replayed=replayed,
        )
        if replayed:
            # The replayed suffix is owed a base; if the save fails, the
            # next ingest or checkpoint() tries again.
            outcome.checkpoints_written = self._cover(outcome.fallback_chain, governor)
        elif self.journal is not None and self._covered_seq:
            self.journal.compact(self._covered_seq)
        return outcome

    def journal_info(self) -> dict | None:
        """The journal's JSON-ready summary with this session's lag view."""
        if self.journal is None:
            return None
        info = self.journal.info()
        info["lag"] = self.journal.lag(max(self._covered_seq, info["covered_seq"]))
        return info

    def _base_checkpoint(self, seq: int) -> Checkpoint:
        """A base of the session's EDB as it stands."""
        return Checkpoint(
            seq=seq,
            workload=self.workload(),
            edb={
                pred: self.database.relation(pred).rows()
                for pred in sorted(self.database.predicates())
            },
        )

    def _lag_limit(self) -> int:
        """The journal bytes that make a base due: the newest base's
        size, or with none on disk, the size a base of the caller's EDB
        would have (measured once)."""
        if self._base is not None:
            return self._base.bytes
        if self._unwritten_base_bytes is None:
            self._unwritten_base_bytes = len(self._base_checkpoint(0).encode()[0])
        return self._unwritten_base_bytes

    def _cover(self, fallback_chain: list[FallbackStep], governor: Governor | None) -> int:
        """Write a base of the current EDB with retry; returns how many
        landed (0 or 1).  It reflects every journal record applied so
        far, so the journal can compact them without losing the only
        copy of ingested facts.  A store that stays broken degrades the
        operation to in-memory, recorded in ``fallback_chain``, and the
        base stays due."""
        if self.store is None:
            return 0
        checkpoint = self._base_checkpoint(self.store.next_seq())
        try:
            path = save_with_retry(
                self.store, checkpoint, policy=self.retry, governor=governor
            )
        except CheckpointStoreUnavailable as exc:
            record_fallback(
                fallback_chain, "session.checkpoint", "in-memory", str(exc), self.tracer
            )
            self._lag_bytes = max(self._lag_bytes, self._lag_limit())
            return 0
        self._base = _Base(
            checkpoint.seq, checkpoint.edb_facts, len(checkpoint.encode()[0]), path
        )
        self._lag_bytes = 0
        self._covered_seq = max(self._covered_seq, self._applied_seq)
        if self.journal is not None and self._covered_seq:
            self.journal.compact(self._covered_seq)
        return 1

    # ------------------------------------------------------------------
    def base_summary(self) -> dict | None:
        """The base a restart would fold in, as ``{seq, edb_facts,
        bytes, age_seconds}`` (``None`` when there is none).

        A live session reports the newest base it read or wrote; one
        that has not recovered yet looks it up by :meth:`recover`'s own
        binding rule.
        """
        if self._last is None:
            found = self._read_store()
            base = None if found is None else found[1]
        else:
            base = self._base
        return None if base is None else base.summary()

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
        info["latest"] = self.base_summary()
        info["journal"] = self.journal_info()
        return info
