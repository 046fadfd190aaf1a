"""Checkpoint stores: atomic durable writes, quarantine, faults, retries.

:class:`CheckpointStore` owns one checkpoint directory.  Saves are
atomic in the crash-consistency sense — write to a temp file in the
same directory, flush, ``fsync``, then ``os.replace`` onto the final
content-addressed name — so a process killed at *any* instant leaves
either the previous set of valid checkpoints or the previous set plus
one new valid checkpoint (plus, at worst, an ignorable ``*.tmp``).
Loads verify the embedded checksum and the expected workload digest;
anything that fails is **quarantined** — renamed to ``*.corrupt`` with
a ``checkpoint.quarantine`` trace event — and never used.

:class:`FlakyStore` wraps a store with the deterministic
:class:`~repro.robustness.faults.FaultInjector` of the chaos harness:
each ``save``/``load`` consults the injector at the trace sites
``checkpoint.save`` / ``checkpoint.load`` and converts an armed
:class:`~repro.robustness.errors.InjectedFault` into a realistic
``OSError`` — a torn write (truncated bytes actually land on disk),
``ENOSPC``, or a transient I/O error — cycling deterministically
through the armed flavors.

:func:`save_with_retry` is the recovery policy: transient ``OSError``
saves retry under capped exponential backoff with seeded jitter
(:class:`RetryPolicy`), sleeping never past a
:class:`~repro.robustness.budget.Governor` deadline and re-checking the
governor before each attempt so a budget trip still aborts promptly.
An exhausted retry budget raises :class:`CheckpointStoreUnavailable`,
which the session layer degrades on (checkpointing off, evaluation
continues in memory) rather than failing the run.
"""

from __future__ import annotations

import errno
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from ..observability.trace import Tracer, get_tracer
from ..robustness.budget import Governor
from ..robustness.errors import InjectedFault
from ..robustness.faults import FaultInjector
from .checkpoint import Checkpoint, CheckpointCorrupt, CheckpointError, CheckpointMismatch

__all__ = [
    "CheckpointStore",
    "FlakyStore",
    "RetryPolicy",
    "CheckpointStoreUnavailable",
    "save_with_retry",
    "FAULT_FLAVORS",
]

#: The OSError flavors :class:`FlakyStore` can inject, in cycling order.
FAULT_FLAVORS = ("transient", "torn", "enospc")


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
        """Valid-looking checkpoint files, oldest first (by sequence)."""
        return sorted(
            p
            for p in self.directory.glob("ckpt-*.json")
            if not p.name.endswith(".corrupt")
        )

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
                complete=checkpoint.complete,
                facts=sum(len(rows) for rows in checkpoint.snapshot.idb.values()),
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
    def load(
        self,
        path: str | os.PathLike,
        *,
        expect_workload: str | None = None,
        quarantine_mismatch: bool = True,
    ) -> Checkpoint:
        """Load and verify one checkpoint file.

        Corruption (unparsable, malformed, checksum mismatch) always
        quarantines the file and raises — a corrupt file is garbage no
        matter who asks.  When ``expect_workload`` is given, a
        workload-digest mismatch also raises; it quarantines only with
        ``quarantine_mismatch`` (the default, right for resume-type
        reads where a foreign checkpoint must never be used again —
        read-only callers like ``inspect`` pass ``False``, since a
        mismatch against *their* workload may be another workload's
        perfectly valid checkpoint).  A quarantined checkpoint is never
        returned.
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
        if expect_workload is not None and checkpoint.workload != expect_workload:
            reason = (
                f"workload digest {checkpoint.workload[:12]}… does not match "
                f"expected {expect_workload[:12]}…"
            )
            if quarantine_mismatch:
                self.quarantine(path, reason)
            raise CheckpointMismatch(f"{path.name}: {reason}")
        tracer = self.tracer
        if tracer.enabled:
            tracer.event(
                "checkpoint.load",
                path=path.name,
                seq=checkpoint.seq,
                complete=checkpoint.complete,
            )
        return checkpoint

    def latest(
        self,
        *,
        expect_workload: str | None = None,
        quarantine_mismatch: bool = True,
    ) -> Checkpoint | None:
        """The newest loadable checkpoint (``None`` if the store is empty).

        Walks newest to oldest; files that fail verification are
        quarantined in passing (mismatches only per
        ``quarantine_mismatch``) and the walk continues, so one torn
        final write never blocks recovery from the checkpoint before it.
        """
        found = self.latest_with_path(
            expect_workload=expect_workload,
            quarantine_mismatch=quarantine_mismatch,
        )
        return None if found is None else found[0]

    def latest_with_path(
        self,
        *,
        expect_workload: str | None = None,
        quarantine_mismatch: bool = True,
    ) -> tuple[Checkpoint, Path] | None:
        """:meth:`latest` plus the file it was loaded from."""
        for path in reversed(self.paths()):
            try:
                return (
                    self.load(
                        path,
                        expect_workload=expect_workload,
                        quarantine_mismatch=quarantine_mismatch,
                    ),
                    path,
                )
            except CheckpointError:
                continue
        return None

    def latest_summary(
        self,
        *,
        expect_workload: str | None = None,
        now: float | None = None,
    ) -> dict | None:
        """The newest checkpoint's envelope summary plus its on-disk age.

        Read-only diagnostic (never quarantines a workload mismatch):
        the :meth:`Checkpoint.summary
        <repro.persist.checkpoint.Checkpoint.summary>` dict extended
        with ``age_seconds`` — the mtime delta between the checkpoint
        file and ``now`` (wall clock by default) — so ``repro session
        inspect`` and the serving daemon's ``/stats`` report checkpoint
        age and round number together from one code path.
        """
        found = self.latest_with_path(
            expect_workload=expect_workload, quarantine_mismatch=False
        )
        if found is None:
            return None
        checkpoint, path = found
        summary = checkpoint.summary()
        try:
            mtime = path.stat().st_mtime
        except OSError:
            summary["age_seconds"] = None
        else:
            reference = time.time() if now is None else now
            summary["age_seconds"] = max(0.0, reference - mtime)
        return summary

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


class FlakyStore:
    """A :class:`CheckpointStore` whose I/O fails on command.

    The :class:`~repro.robustness.faults.FaultInjector` decides *when*
    (``arm("checkpoint.save", at=2)``, ``arm_random(...)``) exactly as
    it does for engine trace sites; this wrapper decides *how*, cycling
    through ``flavors`` per fired occurrence:

    * ``"transient"`` — ``OSError(EIO)``, nothing written;
    * ``"torn"`` — the first half of the encoded bytes land on the
      final path (a non-atomic write interrupted mid-stream), then
      ``OSError(EIO)`` — exercising checksum quarantine on later loads;
    * ``"enospc"`` — ``OSError(ENOSPC)``, nothing written.
    """

    def __init__(
        self,
        store: CheckpointStore,
        injector: FaultInjector,
        *,
        flavors: Sequence[str] = ("transient",),
    ):
        for flavor in flavors:
            if flavor not in FAULT_FLAVORS:
                raise ValueError(
                    f"unknown fault flavor {flavor!r} (valid: {', '.join(FAULT_FLAVORS)})"
                )
        self.store = store
        self.injector = injector
        self.flavors = tuple(flavors)
        self._fired = 0

    @property
    def directory(self) -> Path:
        return self.store.directory

    @property
    def tracer(self) -> Tracer:
        return self.store.tracer

    def _fault(self, site: str, checkpoint: Checkpoint | None) -> None:
        try:
            self.injector.observe(site, {})
        except InjectedFault as exc:
            flavor = self.flavors[self._fired % len(self.flavors)]
            self._fired += 1
            if flavor == "enospc":
                raise OSError(errno.ENOSPC, "no space left on device (injected)") from exc
            if flavor == "torn" and checkpoint is not None:
                text, _ = checkpoint.encode()
                final = self.directory / checkpoint.filename()
                final.write_bytes(text.encode()[: len(text) // 2])
            raise OSError(errno.EIO, f"injected {flavor} I/O error at {site}") from exc

    def save(self, checkpoint: Checkpoint) -> Path:
        self._fault("checkpoint.save", checkpoint)
        return self.store.save(checkpoint)

    def load(
        self,
        path,
        *,
        expect_workload: str | None = None,
        quarantine_mismatch: bool = True,
    ) -> Checkpoint:
        self._fault("checkpoint.load", None)
        return self.store.load(
            path,
            expect_workload=expect_workload,
            quarantine_mismatch=quarantine_mismatch,
        )

    def latest(
        self,
        *,
        expect_workload: str | None = None,
        quarantine_mismatch: bool = True,
    ) -> Checkpoint | None:
        # Fault accounting happens per underlying file read via load();
        # a transient fault on one file must not abort the whole walk.
        for path in reversed(self.store.paths()):
            try:
                return self.load(
                    path,
                    expect_workload=expect_workload,
                    quarantine_mismatch=quarantine_mismatch,
                )
            except (CheckpointError, OSError):
                continue
        return None

    def latest_summary(
        self,
        *,
        expect_workload: str | None = None,
        now: float | None = None,
    ) -> dict | None:
        # Read-only diagnostic: served by the underlying store directly
        # (fault sites cover the save/load paths that matter).
        return self.store.latest_summary(expect_workload=expect_workload, now=now)

    def paths(self) -> list[Path]:
        return self.store.paths()

    def next_seq(self) -> int:
        return self.store.next_seq()

    def quarantine(self, path: Path, reason: str) -> Path:
        return self.store.quarantine(path, reason)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic seeded jitter.

    Attempt ``k`` (0-based) sleeps ``min(base_delay * 2**k, max_delay)``
    scaled by a jitter factor drawn uniformly from
    ``[1 - jitter, 1 + jitter]`` from a generator seeded with ``seed``
    — deterministic for tests, decorrelated in aggregate.
    """

    attempts: int = 4
    base_delay: float = 0.02
    max_delay: float = 0.5
    jitter: float = 0.25
    seed: int = 0

    def delays(self) -> Iterator[float]:
        """The back-off delays between attempts (``attempts - 1`` of them)."""
        rng = random.Random(self.seed)
        for attempt in range(max(0, self.attempts - 1)):
            base = min(self.base_delay * (2**attempt), self.max_delay)
            yield base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


def save_with_retry(
    store: CheckpointStore | FlakyStore,
    checkpoint: Checkpoint,
    *,
    policy: RetryPolicy | None = None,
    governor: Governor | None = None,
    sleep=time.sleep,
) -> Path:
    """Save ``checkpoint``, retrying transient ``OSError`` failures.

    Before every attempt the governor (if any) is consulted, so a
    deadline that expires mid-backoff aborts the evaluation with the
    usual :class:`~repro.robustness.errors.BudgetExceededError` instead
    of burning the remaining budget on sleeps; each sleep is clamped to
    the governor's remaining time.  Raises
    :class:`CheckpointStoreUnavailable` once the attempt budget is
    exhausted — the caller's cue to degrade to in-memory evaluation.
    """
    policy = policy if policy is not None else RetryPolicy()
    delays = policy.delays()
    last_error: OSError | None = None
    for attempt in range(1, max(1, policy.attempts) + 1):
        if governor is not None:
            governor.check("checkpoint")
        try:
            return store.save(checkpoint)
        except OSError as exc:
            last_error = exc
            delay = next(delays, None)
            if delay is None:
                break
            remaining = governor.remaining() if governor is not None else None
            if remaining is not None:
                delay = max(0.0, min(delay, remaining))
            tracer = store.tracer
            if tracer.enabled:
                tracer.event(
                    "checkpoint.retry",
                    seq=checkpoint.seq,
                    attempt=attempt,
                    delay=round(delay, 6),
                    error=str(exc),
                )
            sleep(delay)
    raise CheckpointStoreUnavailable(
        f"checkpoint save failed after {policy.attempts} attempts: {last_error}"
    ) from last_error
