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

The run is neither traced nor governed, and nothing is respawned: a
worker that dies or fails ends it with :class:`WorkerFailure`, or with
the worker's own :class:`~repro.robustness.errors.ReproError`.
"""

from .engine import WorkerFailure, WorkerPool, evaluate_sharded

__all__ = ["WorkerFailure", "WorkerPool", "evaluate_sharded"]
