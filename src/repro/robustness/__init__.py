"""Resource-governed execution: budgets, deadlines, cancellation, chaos.

The robustness layer makes every long-running phase of the system
bounded and cancellable, ending in a typed abort (see ``docs/robustness.md``):

* :mod:`repro.robustness.errors` — the :class:`ReproError` taxonomy;
  aborted executions carry the tripped phase and the partial fixpoint;
* :mod:`repro.robustness.budget` — :class:`Budget`,
  :class:`CancellationToken` and the :class:`Governor` checked at round
  and expansion boundaries;
* :mod:`repro.robustness.faults` — the deterministic fault-injection
  harness armed at trace-event sites.
"""

from .budget import (
    Budget,
    CancellationToken,
    FallbackStep,
    Governor,
    RequestGovernorFactory,
    parse_limit_value,
    parse_timeout_value,
)
from .errors import (
    BudgetExceededError,
    Cancelled,
    EvaluationAborted,
    InjectedFault,
    ReproError,
    UsageError,
)
from .faults import ChaosTracer, FaultInjector, chaos

__all__ = [
    "Budget",
    "CancellationToken",
    "FallbackStep",
    "Governor",
    "RequestGovernorFactory",
    "parse_timeout_value",
    "parse_limit_value",
    "ReproError",
    "UsageError",
    "EvaluationAborted",
    "BudgetExceededError",
    "Cancelled",
    "InjectedFault",
    "FaultInjector",
    "ChaosTracer",
    "chaos",
]
