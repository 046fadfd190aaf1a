"""The LRU artifact cache behind per-request pipeline specialization.

One entry is one finished :class:`~repro.magic.pipeline.PipelineReport`
— the pipeline compiled for the first goal of a shape, which answers
every later one with the goal's constants fed in as data
(:meth:`~repro.magic.pipeline.PipelineReport.evaluation`) — keyed by
:func:`~repro.magic.pipeline.artifact_key`
(program-shape digest, stage order, query predicate, adornment
pattern).  The daemon shares a single cache across tenants: the key's
digest component keeps tenants with different programs apart, while
tenants registered with the *same* program and constraints genuinely
share compiled reports.

Thread-safe: the daemon consults the cache from executor threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..magic.pipeline import PipelineReport

__all__ = ["ArtifactCache"]


class ArtifactCache:
    """A bounded LRU mapping of artifact keys to compiled reports."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, PipelineReport]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple) -> "PipelineReport | None":
        with self._lock:
            report = self._entries.get(key)
            if report is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return report

    def put(self, key: tuple, report: "PipelineReport") -> None:
        with self._lock:
            self._entries[key] = report
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """JSON-ready counters for ``/stats``."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
