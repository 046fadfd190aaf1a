"""Durable evaluation sessions: one journal, recover, ingest.

The persistence layer makes a session's EDB survive process death —
every acknowledged ingest included — and keeps its fixpoint current
across ingests without cold recomputation; a restart re-derives the
fixpoint from the durable EDB (see ``docs/robustness.md``, "Durability
& recovery"):

* :mod:`repro.persist.journal` — :class:`IngestJournal`, the one
  durable format: CRC-framed segments holding one base (the EDB a
  session had reached) and the acknowledged ingest records after it
  (fsync-before-ack, torn-tail truncation, compaction at each base),
  the reader of an older build's ``ckpt-*.json`` bases, the
  chaos-harness :class:`FlakyJournal`, and :func:`commit_with_retry` /
  :func:`save_with_retry` under a
  :class:`~repro.robustness.budget.RetryPolicy`;
* :mod:`repro.persist.session` — :class:`Session`, the durable
  recover/ingest/checkpoint life cycle; ``recover()`` is the one reader.

The workload and fixpoint digests that bind bases and records to their
workload are :mod:`repro.digest`'s, re-exported here.
"""

from .._lazy import lazy_exports

# Nothing is imported up front: a caller that needs one layer (the
# journal, the digests) does not load the session beside it.
__getattr__, __dir__ = lazy_exports(globals(), {
    "..digest": ("fixpoint_digest", "workload_digest"),
    ".journal": (
        "JOURNAL_VERSION",
        "FlakyJournal",
        "IngestJournal",
        "JournalCorrupt",
        "JournalError",
        "JournalMismatch",
        "JournalRecord",
        "JournalUnavailable",
        "RetryPolicy",
        "commit_with_retry",
        "save_with_retry",
    ),
    ".session": ("Session", "SessionResult"),
})

__all__ = [
    "FlakyJournal",
    "IngestJournal",
    "JOURNAL_VERSION",
    "JournalCorrupt",
    "JournalError",
    "JournalMismatch",
    "JournalRecord",
    "JournalUnavailable",
    "RetryPolicy",
    "Session",
    "SessionResult",
    "commit_with_retry",
    "fixpoint_digest",
    "save_with_retry",
    "workload_digest",
]
