"""Checkpoint stores: atomic durable writes, quarantine, faults, retries.

:class:`CheckpointStore` owns one directory of base files (each a
session's EDB, :mod:`repro.persist.checkpoint`).  Saves are
atomic in the crash-consistency sense — write to a temp file in the
same directory, flush, ``fsync``, then ``os.replace`` onto the final
content-addressed name — so a process killed at *any* instant leaves
either the previous set of valid checkpoints or the previous set plus
one new valid checkpoint (plus, at worst, an ignorable ``*.tmp``).
Loads verify the embedded checksum; a file that fails is **quarantined**
— renamed to ``*.corrupt`` with a ``checkpoint.quarantine`` trace event
— and never used.  A *valid* checkpoint is never renamed: whether it
binds to a workload is decided by its one reader,
:meth:`Session.recover <repro.persist.session.Session.recover>`.

:class:`FlakyStore` is the store under the chaos harness
(:class:`~repro.robustness.faults.FlakyIO`).  :func:`with_retry` is the
retry loop of every durable write — capped exponential backoff with
seeded jitter (:class:`~repro.robustness.budget.RetryPolicy`), clamped to the
:class:`~repro.robustness.budget.Governor` — and
:func:`save_with_retry` is that loop around a checkpoint save.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, TypeVar

from ..observability.trace import Tracer, get_tracer
from ..robustness.budget import Governor, RetryPolicy
from ..robustness.faults import FlakyIO
from .checkpoint import Checkpoint, CheckpointCorrupt, CheckpointError

Item = TypeVar("Item")
T = TypeVar("T")

__all__ = [
    "CheckpointStore",
    "FlakyStore",
    "RetryPolicy",
    "CheckpointStoreUnavailable",
    "save_with_retry",
    "with_retry",
]


class CheckpointStoreUnavailable(CheckpointError):
    """Every retry of a checkpoint save failed; the store is given up on."""


class CheckpointStore:
    """Atomic, quarantining checkpoint persistence in one directory."""

    def __init__(self, directory: str | os.PathLike, *, tracer: Tracer | None = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._tracer = tracer

    @property
    def tracer(self) -> Tracer:
        # Resolved per call: the store must see a tracer installed
        # globally (e.g. by the chaos() context manager) after
        # construction.
        return self._tracer if self._tracer is not None else get_tracer()

    # ------------------------------------------------------------------
    def paths(self) -> list[Path]:
        """Checkpoint files, oldest first (by sequence); quarantined
        ones (``*.json.corrupt*``) are not among them."""
        return sorted(self.directory.glob("ckpt-*.json"))

    def next_seq(self) -> int:
        """One past the highest sequence number present (corrupt included)."""
        highest = 0
        for path in self.directory.glob("ckpt-*"):
            parts = path.name.split("-")
            if len(parts) >= 2 and parts[1].isdigit():
                highest = max(highest, int(parts[1]))
        return highest + 1

    # ------------------------------------------------------------------
    def save(self, checkpoint: Checkpoint) -> Path:
        """Atomically persist ``checkpoint``; returns the final path."""
        text, _ = checkpoint.encode()
        final = self.directory / checkpoint.filename()
        self._write_atomic(final, text)
        tracer = self.tracer
        if tracer.enabled:
            tracer.event(
                "checkpoint.save",
                path=final.name,
                seq=checkpoint.seq,
                edb_facts=checkpoint.edb_facts,
                bytes=len(text),
            )
        return final

    def _write_atomic(self, final: Path, text: str) -> None:
        tmp = final.with_name(final.name + ".tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, text.encode())
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, final)

    # ------------------------------------------------------------------
    def load(self, path: str | os.PathLike) -> Checkpoint:
        """Load and verify one checkpoint file.

        Corruption (unparsable, malformed, checksum mismatch)
        quarantines the file and raises — a corrupt file is garbage no
        matter who asks.  A valid file is never renamed, whichever
        workload it belongs to: deciding whether it binds is the
        reader's business.
        """
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise CheckpointCorrupt(f"cannot read checkpoint {path.name}: {exc}") from exc
        try:
            checkpoint = Checkpoint.decode(text)
        except CheckpointCorrupt as exc:
            self.quarantine(path, str(exc))
            raise
        tracer = self.tracer
        if tracer.enabled:
            tracer.event("checkpoint.load", path=path.name, seq=checkpoint.seq)
        return checkpoint

    # ------------------------------------------------------------------
    def quarantine(self, path: Path, reason: str) -> Path:
        """Rename a bad checkpoint to ``*.corrupt`` so it is never reused.

        Quarantined copies are forensic evidence, so the suffix is made
        unique (``.corrupt``, ``.corrupt.1``, …) — a later quarantine
        of a recreated file with the same name must never overwrite an
        earlier one.
        """
        target = path.with_name(path.name + ".corrupt")
        bump = 0
        while target.exists():
            bump += 1
            target = path.with_name(f"{path.name}.corrupt.{bump}")
        try:
            os.replace(path, target)
        except OSError:
            target = path  # unrenameable: leave in place, still never loaded
        tracer = self.tracer
        if tracer.enabled:
            tracer.event("checkpoint.quarantine", path=path.name, reason=reason)
        return target


class FlakyStore(FlakyIO):
    """A :class:`CheckpointStore` whose ``save`` and ``load`` fail on
    command (sites ``checkpoint.save`` / ``checkpoint.load``); a *torn*
    save lands the first half of the encoded bytes on the final path —
    a non-atomic write interrupted mid-stream — for checksum quarantine
    to find on a later load."""

    @property
    def store(self) -> CheckpointStore:
        return self.inner  # type: ignore[return-value]

    def save(self, checkpoint: Checkpoint) -> Path:
        def tear() -> None:
            text = checkpoint.encode()[0].encode()
            (self.store.directory / checkpoint.filename()).write_bytes(
                text[: len(text) // 2]
            )

        self._fault("checkpoint.save", tear)
        return self.store.save(checkpoint)

    def load(self, path) -> Checkpoint:
        self._fault("checkpoint.load")
        return self.store.load(path)


def with_retry(
    target: object,
    write: Callable[[Item], T],
    item: Item,
    *,
    phase: str,
    what: str,
    unavailable: type[CheckpointError],
    policy: RetryPolicy | None = None,
    governor: Governor | None = None,
    sleep=time.sleep,
) -> T:
    """``write(item)`` — one durable write to ``target`` of a numbered
    (``.seq``) item — retrying transient ``OSError`` failures.

    Before every attempt the governor (if any) is consulted, so a
    deadline that expires mid-backoff aborts with the usual
    :class:`~repro.robustness.errors.BudgetExceededError` instead of
    burning the remaining budget on sleeps; each sleep is clamped to
    the governor's remaining time and traced as ``<phase>.retry``.
    An exhausted attempt budget raises ``unavailable``.
    """
    policy = policy if policy is not None else RetryPolicy()
    delays = policy.delays()
    last_error: OSError | None = None
    for attempt in range(1, max(1, policy.attempts) + 1):
        if governor is not None:
            governor.check(phase)
        try:
            return write(item)
        except OSError as exc:
            last_error = exc
            delay = next(delays, None)
            if delay is None:
                break
            remaining = governor.remaining() if governor is not None else None
            if remaining is not None:
                delay = max(0.0, min(delay, remaining))
            tracer = target.tracer  # type: ignore[attr-defined]
            if tracer.enabled:
                tracer.event(
                    f"{phase}.retry",
                    seq=item.seq,  # type: ignore[attr-defined]
                    attempt=attempt,
                    delay=round(delay, 6),
                    error=str(exc),
                )
            sleep(delay)
    raise unavailable(
        f"{what} failed after {policy.attempts} attempts: {last_error}"
    ) from last_error


def save_with_retry(
    store: CheckpointStore | FlakyStore,
    checkpoint: Checkpoint,
    *,
    policy: RetryPolicy | None = None,
    governor: Governor | None = None,
    sleep=time.sleep,
) -> Path:
    """Save ``checkpoint`` under :func:`with_retry`; an exhausted
    attempt budget raises :class:`CheckpointStoreUnavailable` — the
    caller's cue to degrade to in-memory evaluation."""
    return with_retry(
        store,
        store.save,
        checkpoint,
        phase="checkpoint",
        what="checkpoint save",
        unavailable=CheckpointStoreUnavailable,
        policy=policy,
        governor=governor,
        sleep=sleep,
    )
