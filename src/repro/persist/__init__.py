"""Durable evaluation sessions: bases, journal, recover, ingest.

The persistence layer makes a session's EDB survive process death —
every acknowledged ingest included — and keeps its fixpoint current
across ingests without cold recomputation; a restart re-derives the
fixpoint from the durable EDB (see ``docs/robustness.md``, "Durability
& recovery"):

* :mod:`repro.persist.checkpoint` — the versioned, content-addressed
  on-disk base format (:class:`Checkpoint`, an EDB), the workload and
  fixpoint digests, and the corruption error taxonomy;
* :mod:`repro.persist.store` — :class:`CheckpointStore` (atomic
  write-temp-fsync-rename saves, checksum-verified loads, quarantine of
  corrupt files only), the chaos-harness :class:`FlakyStore`, and
  :func:`save_with_retry` under a
  :class:`~repro.robustness.budget.RetryPolicy`;
* :mod:`repro.persist.journal` — :class:`IngestJournal`, the
  append-only CRC-framed write-ahead log of acknowledged ingests
  (fsync-before-ack, torn-tail truncation, segment rotation and
  compaction), the chaos-harness :class:`FlakyJournal`, and
  :func:`commit_with_retry`;
* :mod:`repro.persist.session` — :class:`Session`, the durable
  recover/ingest/checkpoint life cycle; ``recover()`` is the one reader.
"""

from .._lazy import lazy_exports

# Nothing is imported up front: a caller that needs one layer (the
# checkpoint format, the store) does not load the session and journal
# beside it.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".checkpoint": (
        "CHECKPOINT_VERSION",
        "Checkpoint",
        "CheckpointCorrupt",
        "CheckpointError",
        "fixpoint_digest",
        "workload_digest",
    ),
    ".journal": (
        "JOURNAL_VERSION",
        "FlakyJournal",
        "IngestJournal",
        "JournalCorrupt",
        "JournalError",
        "JournalMismatch",
        "JournalRecord",
        "JournalUnavailable",
        "commit_with_retry",
    ),
    ".session": ("Session", "SessionResult"),
    ".store": (
        "CheckpointStore",
        "CheckpointStoreUnavailable",
        "FlakyStore",
        "RetryPolicy",
        "save_with_retry",
    ),
})

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointCorrupt",
    "CheckpointStore",
    "CheckpointStoreUnavailable",
    "FlakyJournal",
    "FlakyStore",
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
