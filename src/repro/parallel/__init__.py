"""Multiprocess sharded semi-naive evaluation.

Measured only: no command, daemon route or :func:`~repro.evaluate`
keyword reaches this package.  :func:`evaluate_sharded` is called
directly — by ``perf/``, which prices it, and by the tests — and the
package goes when the benchmark stops pricing it.  Each semi-naive
delta is hash-partitioned by code row across ``N`` forked worker
processes, which run the generated join kernels over interner codes on
their shard and ship candidate head rows back; the master merges
frontiers at round boundaries.  Fixpoints, digests and the join work
counters are byte-identical to the sequential engines — see
``docs/parallel.md``.

Worker deaths, protocol breaks and stragglers are supervised: the
master respawns warm replacements and re-dispatches the lost shard
under a bounded retry budget (:class:`SupervisionPolicy`), raising
:class:`FleetExhausted` when the budget runs dry.
"""

from .engine import FleetExhausted, WorkerFailure, WorkerPool, evaluate_sharded
from .supervisor import DEFAULT_SUPERVISION, SupervisionPolicy

__all__ = [
    "DEFAULT_SUPERVISION",
    "FleetExhausted",
    "SupervisionPolicy",
    "WorkerFailure",
    "WorkerPool",
    "evaluate_sharded",
]
