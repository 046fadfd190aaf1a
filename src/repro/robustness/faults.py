"""Deterministic fault injection at the engine's trace-event sites.

The observability layer already threads a :class:`~repro.observability
.trace.Tracer` through every interesting boundary of the system: plan
compilation (``plan`` events), lazy index construction
(``index_build``), semi-naive rounds (``iteration``), SCCs, the
optimizer phases (``optimize.adornments``, ``optimize.query_tree``
spans), query-tree expansion (``querytree.expand``), the pipeline
stages, ...  Those sites are exactly where a production engine fails —
so the chaos harness arms failures *there*, with zero new hooks in the
hot path:

* :class:`FaultInjector` holds the armed faults: by site name and
  occurrence number (``arm``), or pseudo-randomly by seed and
  probability (``arm_random``) — both fully deterministic for a
  deterministic workload, because trace emission order is
  deterministic;
* :class:`ChaosTracer` is a :class:`~repro.observability.trace.Tracer`
  that consults the injector on every event emission and every **span
  entry** (site ``span:<name>``), raising
  :class:`~repro.robustness.errors.InjectedFault` when an armed
  occurrence is reached;
* :func:`chaos` installs a chaos tracer globally for a ``with`` block,
  mirroring :func:`~repro.observability.trace.tracing`.

Because :class:`InjectedFault` subclasses
:class:`~repro.robustness.errors.EvaluationAborted`, an injected fault
exercises the *same* partial-result path of the evaluation engine and
the *same* typed abort out of the optimizer that real budget trips
use — which is precisely what the chaos tests assert.

Disk I/O fails with an ``OSError`` instead: :class:`FlakyIO`, the base
of :class:`~repro.persist.store.FlakyStore` and
:class:`~repro.persist.journal.FlakyJournal`, translates.
"""

from __future__ import annotations

import errno
import random
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Sequence

from ..observability.trace import RingBufferSink, Sink, Tracer, set_tracer
from .errors import InjectedFault

__all__ = ["FaultInjector", "ChaosTracer", "chaos", "FlakyIO", "FAULT_FLAVORS"]

#: The ``OSError`` flavors :class:`FlakyIO` can inject, in cycling order.
FAULT_FLAVORS = ("transient", "torn", "enospc")


class FaultInjector:
    """Arms and fires deterministic faults at named trace sites.

    A *site* is a trace event name (``"plan"``, ``"index_build"``,
    ``"iteration"``, ``"querytree.expand"``, ...) or a span entry
    (``"span:evaluate"``, ``"span:scc"``, ``"span:optimize.adornments"``,
    ...).  Occurrences are counted per site starting at 1.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self._armed: dict[str, set[int]] = {}
        self._random_rate: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.fired: list[tuple[str, int]] = []

    # ------------------------------------------------------------------
    def arm(self, site: str, *, at: int = 1, times: int = 1) -> "FaultInjector":
        """Fault occurrences ``at .. at+times-1`` of ``site``; chainable."""
        if at < 1:
            raise ValueError(f"occurrence numbers start at 1, got {at}")
        self._armed.setdefault(site, set()).update(range(at, at + times))
        return self

    def arm_random(self, site: str, *, rate: float) -> "FaultInjector":
        """Fault each occurrence of ``site`` with probability ``rate``.

        Draws come from the injector's seeded generator, so the same
        seed over the same workload faults the same occurrences.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self._random_rate[site] = rate
        return self

    # ------------------------------------------------------------------
    def observe(self, site: str, attrs: Mapping[str, object]) -> None:
        """Count one occurrence of ``site``; raise if an armed fault fires."""
        count = self.counts.get(site, 0) + 1
        self.counts[site] = count
        hit = count in self._armed.get(site, ())
        rate = self._random_rate.get(site)
        if not hit and rate is not None:
            hit = self._rng.random() < rate
        if hit:
            self.fired.append((site, count))
            raise InjectedFault(
                f"injected fault at {site} (occurrence {count}, seed {self.seed})",
                site=site,
                occurrence=count,
            )

    def tracer(self, *sinks: Sink) -> "ChaosTracer":
        """A chaos tracer over ``sinks`` (a fresh ring buffer if none)."""
        return ChaosTracer(self, sinks if sinks else (RingBufferSink(),))


class ChaosTracer(Tracer):
    """A tracer that consults a :class:`FaultInjector` at every site.

    Faults are raised *before* the underlying emission (and before a
    span is pushed on the stack), so the tracer's own state stays
    consistent while the exception unwinds through the instrumented
    code — the ``with tracer.span(...)`` blocks above the fault close
    normally and still reach the sinks.
    """

    __slots__ = ("injector",)

    def __init__(self, injector: FaultInjector, sinks=()):  # noqa: D107
        super().__init__(sinks, enabled=True)
        self.injector = injector

    def event(self, name: str, **attrs: object) -> None:
        self.injector.observe(name, attrs)
        super().event(name, **attrs)

    def _open(self, span) -> None:
        self.injector.observe(f"span:{span.name}", span.attrs)
        super()._open(span)


class FlakyIO:
    """A durable object whose I/O fails on command.

    Wraps ``inner`` — every attribute not overridden in a subclass is
    ``inner``'s.  The :class:`FaultInjector` decides *when*
    (``arm("checkpoint.save", at=2)``, ``arm_random(...)``) exactly as
    it does for engine trace sites; ``flavors`` decide *how*, cycling
    per fired occurrence: ``"transient"`` — ``OSError(EIO)``, nothing
    written; ``"torn"`` — the site's ``tear`` hook first lands half of
    the bytes the operation would have written, then ``OSError(EIO)``;
    ``"enospc"`` — ``OSError(ENOSPC)``, nothing written.
    """

    def __init__(
        self,
        inner: object,
        injector: FaultInjector,
        *,
        flavors: Sequence[str] = ("transient",),
    ):
        for flavor in flavors:
            if flavor not in FAULT_FLAVORS:
                raise ValueError(
                    f"unknown fault flavor {flavor!r} (valid: {', '.join(FAULT_FLAVORS)})"
                )
        self.inner = inner
        self.injector = injector
        self.flavors = tuple(flavors)
        self._fired = 0

    def __getattr__(self, name: str):
        if name == "inner":  # not constructed yet: nothing to delegate to
            raise AttributeError(name)
        return getattr(self.inner, name)

    def _fault(self, site: str, tear: "Callable[[], object] | None" = None) -> None:
        """Count one occurrence of ``site``; raise ``OSError`` if it is armed."""
        try:
            self.injector.observe(site, {})
        except InjectedFault as exc:
            flavor = self.flavors[self._fired % len(self.flavors)]
            self._fired += 1
            if flavor == "enospc":
                raise OSError(
                    errno.ENOSPC, f"no space left on device (injected at {site})"
                ) from exc
            if flavor == "torn" and tear is not None:
                tear()
            raise OSError(errno.EIO, f"injected {flavor} I/O error at {site}") from exc


@contextmanager
def chaos(injector: FaultInjector, *sinks: Sink) -> Iterator[ChaosTracer]:
    """Install a chaos tracer globally for the duration of a block."""
    tracer = injector.tracer(*sinks)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
