"""Budgets, deadlines and cooperative cancellation for long-running phases.

The engine's inputs are adversarial by nature: satisfiability w.r.t.
integrity constraints is undecidable for ``{theta,not}``-programs
(Theorem 5.1), the adornment phase is worst-case doubly exponential,
and fixpoint evaluation — polynomial in data — is unbounded in practice
on generated workloads.  This module supplies the standard production
guardrails:

* :class:`Budget` — a declarative bundle of limits (wall-clock timeout,
  semi-naive iterations, derived facts, rows scanned, symbolic
  expansions);
* :class:`CancellationToken` — a thread-safe flag an outside caller can
  set to stop a run at its next checkpoint;
* :class:`RetryPolicy` — capped exponential backoff with seeded jitter,
  shared by every retried durable write, the serving client and the
  sharded fleet's supervision;
* :class:`Governor` — the runtime object threaded through the phases.
  Phases call :meth:`Governor.check` at round boundaries (with their
  live :class:`~repro.datalog.evaluation.EvaluationStats`), the
  cheap strided :meth:`Governor.tick` / :meth:`Governor.expand` inside
  tight symbolic loops, and :meth:`Governor.tick_scan` from inside a
  join kernel, once per stride of scanned rows.  A violated limit raises
  :class:`~repro.robustness.errors.BudgetExceededError` (or
  :class:`~repro.robustness.errors.Cancelled`), which the engine driver
  enriches with the partial fixpoint on the way out.

A single :class:`Governor` may be shared across phases (rewrite, then
magic, then evaluation) so ``--timeout`` bounds the whole command, not
each phase separately; every ``budget=`` parameter in the package also
accepts a pre-started governor for exactly this reason.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from .errors import BudgetExceededError, Cancelled, UsageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datalog.evaluation import EvaluationStats

__all__ = [
    "Budget",
    "CancellationToken",
    "Governor",
    "FallbackStep",
    "record_fallback",
    "RetryPolicy",
    "RequestGovernorFactory",
    "parse_timeout_value",
    "parse_limit_value",
]


def parse_timeout_value(value: object, *, option: str = "timeout") -> float | None:
    """Normalize a caller-supplied timeout into seconds (or ``None``).

    Accepts a number or a numeric string; anything else — or a
    non-positive or non-finite value — raises
    :class:`~repro.robustness.errors.UsageError` with the one
    normalized message both the CLI (exit code 2) and the serving
    daemon (HTTP 400) report, so ``repro run --timeout banana`` and
    ``POST /query {"timeout": "banana"}`` diagnose identically.
    """
    if value is None:
        return None
    message = f"invalid {option} {value!r}: expected a positive number of seconds"
    if isinstance(value, bool):
        raise UsageError(message)
    try:
        seconds = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise UsageError(message) from None
    if not seconds > 0 or seconds != seconds or seconds == float("inf"):
        raise UsageError(message)
    return seconds


def parse_limit_value(value: object, *, option: str = "max-facts") -> int | None:
    """Normalize a caller-supplied count limit (or ``None``).

    The integer twin of :func:`parse_timeout_value`: accepts an int or
    an integer string, requires it positive, and raises
    :class:`~repro.robustness.errors.UsageError` with the shared
    CLI/daemon message otherwise.
    """
    if value is None:
        return None
    message = f"invalid {option} {value!r}: expected a positive integer"
    if isinstance(value, (bool, float)):
        raise UsageError(message)
    try:
        count = int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise UsageError(message) from None
    if count <= 0:
        raise UsageError(message)
    return count


@dataclass(frozen=True)
class Budget:
    """Declarative resource limits for one governed run.

    Every field defaults to ``None`` (unlimited).  ``timeout`` is
    wall-clock seconds from the moment the :class:`Governor` starts;
    ``max_iterations`` bounds the *total* semi-naive rounds across all
    SCCs; ``max_facts`` / ``max_rows_scanned`` bound the derived facts
    and join rows scanned; ``max_expansions`` bounds symbolic work —
    adornment enumeration steps and query-tree node expansions.
    """

    timeout: float | None = None
    max_iterations: int | None = None
    max_facts: int | None = None
    max_rows_scanned: int | None = None
    max_expansions: int | None = None

    @property
    def unlimited(self) -> bool:
        return (
            self.timeout is None
            and self.max_iterations is None
            and self.max_facts is None
            and self.max_rows_scanned is None
            and self.max_expansions is None
        )


class CancellationToken:
    """A cooperative cancellation flag, safe to set from another thread."""

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:
        return f"<CancellationToken {'cancelled' if self.cancelled else 'live'}>"


@dataclass(frozen=True)
class FallbackStep:
    """One degradation a durable session took, recorded for its reply.

    ``stage`` names the step that was abandoned (a checkpoint save, an
    incremental ingest, a checkpoint restore), ``fell_back_to`` what
    ran instead (in-memory, a recompute) and ``reason`` the cause.
    """

    stage: str
    fell_back_to: str
    reason: str

    def describe(self) -> str:
        return f"{self.stage} -> {self.fell_back_to} ({self.reason})"


def record_fallback(
    chain: list[FallbackStep], stage: str, fell_back_to: str, reason: str, tracer
) -> None:
    """Record one degradation: a ``chain`` step and a ``budget.fallback`` event."""
    chain.append(FallbackStep(stage=stage, fell_back_to=fell_back_to, reason=reason))
    if tracer.enabled:
        tracer.event(
            "budget.fallback", stage=stage, fell_back_to=fell_back_to, reason=reason
        )


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


class Governor:
    """The runtime enforcer of one :class:`Budget` (plus cancellation).

    The deadline is anchored when the governor is constructed.  Checks
    are cooperative and cheap: an inactive governor (no limits, no
    token) reduces every call to one attribute read, and the strided
    :meth:`tick` touches the clock only every ``stride`` calls.
    """

    __slots__ = (
        "budget",
        "token",
        "deadline",
        "started_at",
        "active",
        "expansions",
        "tripped",
        "_clock",
        "stride",
        "_ticks",
    )

    def __init__(
        self,
        budget: Budget | None = None,
        cancellation: CancellationToken | None = None,
        *,
        clock: Callable[[], float] = time.perf_counter,
        stride: int = 256,
    ):
        self.budget = budget if budget is not None else Budget()
        self.token = cancellation
        self._clock = clock
        self.stride = max(1, stride)
        self._ticks = 0
        self.started_at = clock()
        self.deadline = (
            None if self.budget.timeout is None else self.started_at + self.budget.timeout
        )
        self.active = cancellation is not None or not self.budget.unlimited
        self.expansions = 0
        self.tripped: BudgetExceededError | Cancelled | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def of(
        budget: "Budget | Governor | None",
        cancellation: CancellationToken | None = None,
    ) -> "Governor | None":
        """Normalize a ``budget=`` argument into a governor (or ``None``).

        Accepts a :class:`Budget` (a fresh governor is started now), an
        already-running :class:`Governor` (shared deadlines across
        phases), or ``None`` — which yields a governor only when a
        cancellation token was given.
        """
        if isinstance(budget, Governor):
            return budget
        if budget is None and cancellation is None:
            return None
        return Governor(budget, cancellation)

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return self._clock() - self.started_at

    def remaining(self) -> float | None:
        """Seconds until the deadline (``None`` without a timeout)."""
        if self.deadline is None:
            return None
        return self.deadline - self._clock()

    def _trip(self, cls, phase: str, limit: str, message: str) -> None:
        exc = cls(message, phase=phase, limit=limit)
        self.tripped = exc
        raise exc

    def _check_clock_and_token(self, phase: str) -> None:
        if self.token is not None and self.token.cancelled:
            self._trip(Cancelled, phase, "cancelled", f"{phase} was cancelled")
        if self.deadline is not None and self._clock() > self.deadline:
            self._trip(
                BudgetExceededError,
                phase,
                "timeout",
                f"{phase} exceeded the {self.budget.timeout}s deadline",
            )

    def check(self, phase: str, stats: "EvaluationStats | None" = None) -> None:
        """Full checkpoint: cancellation, deadline and stats limits.

        Called at round boundaries (per SCC, per semi-naive iteration,
        per rule execution) with the evaluation's live stats.
        """
        if not self.active:
            return
        self._check_clock_and_token(phase)
        budget = self.budget
        if stats is None:
            return
        if (
            budget.max_iterations is not None
            and stats.iterations > budget.max_iterations
        ):
            self._trip(
                BudgetExceededError,
                phase,
                "max_iterations",
                f"{phase} exceeded the {budget.max_iterations}-iteration budget",
            )
        self._check_counts(phase, stats.facts_derived, stats.rows_scanned)

    def _check_counts(self, phase: str, facts: int, rows_scanned: int) -> None:
        budget = self.budget
        if budget.max_facts is not None and facts > budget.max_facts:
            self._trip(
                BudgetExceededError,
                phase,
                "max_facts",
                f"{phase} derived more than {budget.max_facts} facts",
            )
        if budget.max_rows_scanned is not None and rows_scanned > budget.max_rows_scanned:
            self._trip(
                BudgetExceededError,
                phase,
                "max_rows_scanned",
                f"{phase} scanned more than {budget.max_rows_scanned} rows",
            )

    def tick(self, phase: str) -> None:
        """Strided checkpoint for tight loops: clock and token only.

        Touches the clock once per ``stride`` calls, so it is safe to
        call per emitted row or per symbolic combination.
        """
        if not self.active:
            return
        self._ticks += 1
        if self._ticks % self.stride:
            return
        self._check_clock_and_token(phase)

    def tick_scan(self, phase: str, stats: "EvaluationStats", scanned: int, fresh: int) -> int:
        """Checkpoint from inside one rule firing's join kernel.

        Called at the first bucket boundary after the rows it scanned
        cross a stride, with what it has not flushed to ``stats`` yet:
        ``scanned`` rows and ``fresh`` new head rows.  Clock, token,
        ``max_facts`` and ``max_rows_scanned`` bind here, so one
        explosive join overshoots by at most a stride and the bucket in
        hand.  Returns the ``scanned`` count at which it is due again.
        """
        self._check_clock_and_token(phase)
        self._check_counts(phase, stats.facts_derived + fresh, stats.rows_scanned + scanned)
        return scanned + self.stride

    def expand(self, phase: str) -> None:
        """Count one symbolic expansion and enforce ``max_expansions``."""
        if not self.active:
            return
        self.expansions += 1
        limit = self.budget.max_expansions
        if limit is not None and self.expansions > limit:
            self._trip(
                BudgetExceededError,
                phase,
                "max_expansions",
                f"{phase} exceeded the {limit}-expansion budget",
            )
        self.tick(phase)


def _tightest(server: float | None, request: float | None) -> float | None:
    if server is None:
        return request
    if request is None:
        return server
    return min(server, request)


class RequestGovernorFactory:
    """Mints one fresh :class:`Governor` per serving request.

    The daemon configures *server defaults* (its SLO ceiling); each
    request may carry its own ``timeout`` / ``max_facts`` /
    ``max_iterations``, already normalized by
    :func:`parse_timeout_value` / :func:`parse_limit_value`.  The
    effective budget is the **tighter** of the two per limit — a tenant
    can always ask for less than the server allows, never more — and
    the governor's deadline is anchored at the moment the request
    starts, so one slow request can never eat a neighbour's budget (the
    whole point of per-request governance, vs. the CLI's one shared
    governor per command).
    """

    def __init__(self, defaults: Budget | None = None):
        self.defaults = defaults if defaults is not None else Budget()
        self.minted = 0

    def for_request(
        self,
        *,
        timeout: float | None = None,
        max_facts: int | None = None,
        max_iterations: int | None = None,
        cancellation: CancellationToken | None = None,
    ) -> Governor | None:
        """A fresh governor for one request (``None`` when unbounded)."""
        budget = Budget(
            timeout=_tightest(self.defaults.timeout, timeout),
            max_iterations=_tightest(self.defaults.max_iterations, max_iterations),
            max_facts=_tightest(self.defaults.max_facts, max_facts),
            max_rows_scanned=self.defaults.max_rows_scanned,
            max_expansions=self.defaults.max_expansions,
        )
        if budget.unlimited and cancellation is None:
            return None
        self.minted += 1
        return Governor(budget, cancellation)
