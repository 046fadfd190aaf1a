"""Durable evaluation sessions: checkpoint/restore, recover, ingest.

The persistence layer makes fixpoints survive process death and absorb
new facts without cold recomputation (see ``docs/robustness.md``,
"Durability & recovery"):

* :mod:`repro.persist.checkpoint` — the versioned, content-addressed
  on-disk format (:class:`Checkpoint`), the workload and fixpoint
  digests, and the corruption/mismatch error taxonomy;
* :mod:`repro.persist.store` — :class:`CheckpointStore` (atomic
  write-temp-fsync-rename saves, checksum-verified loads, quarantine of
  corrupt files only), the chaos-harness :class:`FlakyStore`, and
  :func:`save_with_retry` under a :class:`RetryPolicy`;
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
# sharded engine's checkpoint format, the client's retry policy) does
# not load the session and journal beside it.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".checkpoint": (
        "CHECKPOINT_VERSION",
        "Checkpoint",
        "CheckpointCorrupt",
        "CheckpointError",
        "CheckpointMismatch",
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
    "CheckpointMismatch",
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
