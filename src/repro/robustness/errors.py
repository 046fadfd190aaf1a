"""The structured exception taxonomy of the resource-governance layer.

Every error this package raises deliberately derives from
:class:`ReproError`, so embedders (and the CLI) can catch one base class
and turn any input/usage problem into a clean diagnostic instead of a
traceback.  Two families matter:

* **input errors** — parse errors, unsafe rules, program-class
  violations, non-local constraints, ...  These subclass both
  :class:`ReproError` and the builtin they historically derived from
  (``ValueError``/``RuntimeError``), so existing ``except ValueError``
  call sites keep working.
* **aborted executions** — :class:`EvaluationAborted` and its two
  subclasses, one per cause: :class:`BudgetExceededError` (a limit ran
  out) and :class:`InjectedFault` (a fault armed by a test).  These are
  *cooperative* interruptions raised at round/expansion boundaries;
  they carry the phase that tripped, the partial fixpoint computed so
  far (when the evaluation engine was running) and its
  :class:`~repro.datalog.evaluation.EvaluationStats`, so callers get
  partial results instead of nothing.

The input-error classes themselves stay defined next to the code that
raises them (:mod:`repro.datalog.parser`, :mod:`repro.datalog.rules`,
...); this module only provides the roots of the hierarchy.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datalog.evaluation import EvaluationResult, EvaluationStats

__all__ = [
    "ReproError",
    "UsageError",
    "EvaluationAborted",
    "BudgetExceededError",
    "InjectedFault",
    "abort_phase",
]


class ReproError(Exception):
    """Base class of every structured error raised by this package."""


class UsageError(ReproError):
    """Bad caller-supplied input: a malformed flag, goal or payload.

    Raised with an already-normalized, human-readable message.  The CLI
    reports it as ``error: ...`` with exit code 2; the serving daemon
    maps it to HTTP 400 with the *same* message text, so both surfaces
    diagnose bad input identically (see
    :func:`repro.robustness.budget.parse_timeout_value`).
    """


class EvaluationAborted(ReproError):
    """A long-running phase was interrupted at a cooperative checkpoint.

    ``phase`` names the phase that tripped (``"evaluate"``,
    ``"adornments"``, ``"querytree"``, ``"pipeline"``, ...); ``limit``
    names the resource that ran out (``"timeout"``, ``"max_iterations"``,
    ``"max_facts"``) or ``"fault"``.  When the evaluation engine was
    running, ``partial`` holds the partial fixpoint as an
    :class:`~repro.datalog.evaluation.EvaluationResult` (a *subset* of
    the unbounded fixpoint — bottom-up evaluation only ever adds facts)
    and ``stats`` its work counters.
    """

    def __init__(
        self,
        message: str,
        *,
        phase: str | None = None,
        limit: str | None = None,
        partial: "EvaluationResult | None" = None,
        stats: "EvaluationStats | None" = None,
    ):
        super().__init__(message)
        self.phase = phase
        self.limit = limit
        self.partial = partial
        self.stats = stats

    def with_context(
        self,
        *,
        phase: str | None = None,
        partial: "EvaluationResult | None" = None,
        stats: "EvaluationStats | None" = None,
    ) -> "EvaluationAborted":
        """Fill in still-unknown context while the exception unwinds.

        The innermost frame knows the limit that tripped; the engine
        driver above it knows the partial fixpoint.  Existing values are
        never overwritten, so the most precise information wins.
        """
        if self.phase is None:
            self.phase = phase
        if self.partial is None:
            self.partial = partial
        if self.stats is None:
            self.stats = stats
        return self


@contextmanager
def abort_phase(phase: str) -> Iterator[None]:
    """Name the phase on any abort leaving the block without one (a
    budget trip knows its phase; a fault injected at a trace site does not)."""
    try:
        yield
    except EvaluationAborted as exc:
        exc.with_context(phase=phase)
        raise


class BudgetExceededError(EvaluationAborted):
    """A :class:`~repro.robustness.budget.Budget` limit was reached."""


class InjectedFault(EvaluationAborted):
    """A fault armed by :class:`~repro.robustness.faults.FaultInjector`.

    Subclassing :class:`EvaluationAborted` is the point: injected
    faults travel the exact same abort and partial-result paths real
    budget trips do, which is what the chaos tests verify.
    """

    def __init__(self, message: str, *, site: str, occurrence: int, **kwargs):
        super().__init__(message, limit="fault", **kwargs)
        self.site = site
        self.occurrence = occurrence
