"""Supervision policy for the sharded worker fleet.

The master supervises its workers with **deadline-based liveness
checks**: every barrier reply doubles as a heartbeat (dispatch and
merge both stamp per-worker liveness), and a worker that neither
replies nor dies within the straggler window is presumed stuck and
killed.  Recovery — respawn a warm replacement from the current master
state and re-dispatch the lost shard — runs under a bounded
:class:`~repro.robustness.budget.RetryPolicy`, the same
capped exponential backoff with seeded jitter as every durable write; when
the budget is exhausted the engine raises
:class:`~repro.parallel.engine.FleetExhausted`.

Shard re-dispatch is *safe* because shards are pure functions of
``(round, partition)``: the master's delta buffers hold the full
frontier, the replacement is warmed from the master's current IDB (a
superset of anything the dead worker knew), and re-running a task
produces byte-identical candidate rows — every counter in the
byte-identity invariant (digests, iterations, ``rule_firings``,
``rows_scanned``) is charged exactly once because a dead worker's
reply was, by definition, never merged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..robustness.budget import RetryPolicy

__all__ = ["SupervisionPolicy", "DEFAULT_SUPERVISION"]


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the master reacts to dead and stuck workers.

    ``retry`` bounds recovery for one evaluation run: each respawn
    consumes one backoff delay, so ``attempts=4`` allows three worker
    recoveries before :class:`~repro.parallel.engine.FleetExhausted`.

    ``straggler_grace`` is added to the governor's remaining deadline
    to form the per-barrier straggler window — a worker is given the
    same wall-clock slice it was dispatched with, plus this grace for
    shipping overhead, before the master presumes it stuck and kills
    it.  ``straggler_timeout`` is an absolute per-barrier cap that
    applies even without a governor (tests use it to detect a
    ``SIGSTOP``-ed worker deterministically); ``None`` disables it.
    Without either a deadline or ``straggler_timeout``, dead workers
    are still detected instantly (their pipe end closes) but a stuck,
    live worker blocks the barrier — stragglers need a clock.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    straggler_grace: float = 5.0
    straggler_timeout: float | None = None

    def straggler_limit(self, deadline: "float | None") -> "float | None":
        """The per-barrier wait cap given the dispatched deadline slice."""
        limit = None if deadline is None else deadline + self.straggler_grace
        if self.straggler_timeout is not None:
            limit = (
                self.straggler_timeout
                if limit is None
                else min(limit, self.straggler_timeout)
            )
        return limit


#: The engine default: the checkpoint store's retry curve, a generous
#: straggler grace, no absolute cap.
DEFAULT_SUPERVISION = SupervisionPolicy()
