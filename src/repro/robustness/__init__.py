"""Resource-governed execution: budgets, deadlines, typed aborts, chaos.

The robustness layer makes every long-running phase of the system
bounded, ending in a typed abort (see ``docs/robustness.md``):

* :mod:`repro.robustness.errors` — the :class:`ReproError` taxonomy;
  aborted executions carry the tripped phase and the partial fixpoint;
* :mod:`repro.robustness.budget` — :class:`Budget` (timeout, iterations,
  facts) and the :class:`Governor` checked at round and expansion
  boundaries;
* :mod:`repro.robustness.faults` — the deterministic fault-injection
  harness armed at trace-event sites.
"""

from .._lazy import lazy_exports
from .budget import (
    Budget,
    Governor,
    RequestGovernorFactory,
    parse_limit_value,
    parse_timeout_value,
)
from .errors import (
    BudgetExceededError,
    EvaluationAborted,
    InjectedFault,
    ReproError,
    UsageError,
)

# The fault-injection harness: tests and the smoke scripts arm it.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".faults": ("ChaosTracer", "FaultInjector", "chaos"),
})

__all__ = [
    "Budget",
    "Governor",
    "RequestGovernorFactory",
    "parse_timeout_value",
    "parse_limit_value",
    "ReproError",
    "UsageError",
    "EvaluationAborted",
    "BudgetExceededError",
    "InjectedFault",
    "FaultInjector",
    "ChaosTracer",
    "chaos",
]
