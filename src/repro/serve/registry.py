"""Tenant state: programs resident in the daemon, with durable backing.

A :class:`Tenant` owns one registered workload — program, constraints,
the live EDB and a *materialized* fixpoint kept current across ingests
— plus the durable :class:`~repro.persist.session.Session` that
anchors it to a per-tenant checkpoint directory when the daemon runs
with ``--persist-dir``.

Registration is where recovery happens: the tenant materializes via
:meth:`~repro.persist.session.Session.recover`, which folds in the
tenant's newest base (an EDB the tenant had reached), replays the
suffix of its write-ahead ingest journal — the acknowledged ingests
since that base (bases follow journal lag, so there normally are some)
— and evaluates the result once.  A restarted daemon therefore answers
queries for its old tenants without losing a single acknowledged write
(asserted byte-for-byte by the serve and journal-kill scripts of CI's
``smoke`` job).  Both the journal and the bases live under the
tenant's directory when the daemon runs with ``--persist-dir``.

Concurrency follows the read/write split of the API: queries only read
tenant state and run concurrently; ``ingest`` (and re-registration)
mutate the database and extend the materialized fixpoint's relations
in place, so they take the tenant's write side.  :class:`ReadWriteLock` is a minimal asyncio
writer-preferring RW lock — all acquisition happens on the event loop;
only the CPU-bound pipeline work inside an acquired section is shipped
to executor threads.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING, Iterable

from ..datalog.database import Database
from ..persist.session import Session, SessionResult
from ..persist.store import CheckpointStore
from ..robustness.errors import UsageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from .wire import RegisterRequest

__all__ = ["ReadWriteLock", "Tenant", "TenantRegistry", "UnknownTenant"]


class UnknownTenant(UsageError):
    """A request named a tenant that was never registered (HTTP 404)."""


class ReadWriteLock:
    """A writer-preferring asyncio reader-writer lock."""

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writer = False
        self._waiting_writers = 0

    async def acquire_read(self) -> None:
        async with self._cond:
            while self._writer or self._waiting_writers:
                await self._cond.wait()
            self._readers += 1

    async def release_read(self) -> None:
        async with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    async def acquire_write(self) -> None:
        async with self._cond:
            self._waiting_writers += 1
            try:
                while self._writer or self._readers:
                    await self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer = True

    async def release_write(self) -> None:
        async with self._cond:
            self._writer = False
            self._cond.notify_all()

    def read_locked(self) -> "_Guard":
        return _Guard(self.acquire_read, self.release_read)

    def write_locked(self) -> "_Guard":
        return _Guard(self.acquire_write, self.release_write)


class _Guard:
    def __init__(self, acquire, release):
        self._acquire = acquire
        self._release = release

    async def __aenter__(self) -> None:
        await self._acquire()

    async def __aexit__(self, *exc: object) -> bool:
        await self._release()
        return False


class Tenant:
    """One registered workload, resident and (optionally) durable."""

    def __init__(
        self,
        name: str,
        request: "RegisterRequest",
        *,
        persist_dir: "Path | None" = None,
    ):
        self.name = name
        self.program = request.program
        self.constraints = request.constraints
        self.database = Database(request.facts)
        self.lock = ReadWriteLock()
        self.registered_at = time.time()
        self.queries = 0
        self.ingests = 0
        # Journal replay bookkeeping: records re-applied at the last
        # materialization (crash recovery), surfaced via /stats.
        self.replayed = 0
        store = None if persist_dir is None else CheckpointStore(persist_dir)
        self.session = Session(
            self.program, self.database, store=store, constraints=self.constraints
        )
        self.materialized: SessionResult | None = None
        self.mode: str | None = None

    # -- lifecycle (CPU-bound; call from an executor) -------------------
    def materialize(self) -> SessionResult:
        """Bring the full fixpoint resident, crash-consistently.

        :meth:`~repro.persist.session.Session.recover` folds in the
        newest base that binds to the workload and any journal suffix
        of acknowledged ingests the kill arrived before a base could
        cover, then evaluates once — a fresh evaluation when the persist
        dir is empty — so a SIGKILLed daemon comes back serving every
        ingest it ever acknowledged.
        """
        outcome = self.session.recover()
        self.materialized = outcome
        self.mode = outcome.mode
        self.replayed += outcome.replayed
        return outcome

    def ingest(self, facts: Iterable[object]) -> SessionResult:
        outcome = self.session.ingest(facts)
        self.materialized = outcome
        self.ingests += 1
        return outcome

    # -- diagnostics ----------------------------------------------------
    def info(self) -> dict:
        """JSON-ready tenant summary for ``/stats`` and GET."""
        edb_facts = sum(
            len(self.database.relation(pred)) for pred in self.database.predicates()
        )
        info: dict = {
            "query": self.program.query,
            "rules": len(self.program.rules),
            "constraints": len(self.constraints),
            "mode": self.mode,
            "edb_facts": edb_facts,
            "queries": self.queries,
            "ingests": self.ingests,
        }
        if self.materialized is not None:
            result = self.materialized.result
            info["idb_facts"] = sum(len(rel) for rel in result.idb.values())
            info["latest_round"] = result.stats.iterations
        if self.session.store is not None:
            # The base a restart would fold in: with journal lag it
            # predates the ingests counted below.
            info["checkpoint"] = self.session.base_summary()
        journal = self.session.journal_info()
        if journal is not None:
            # The fsynced records no base covers yet: what a kill right
            # now would replay on the next start, bounded by one base's
            # worth of journal bytes.
            info["journal"] = {
                "records": journal["records"],
                "last_seq": journal["last_seq"],
                "lag": journal["lag"],
                "replayed": self.replayed,
            }
        return info


class TenantRegistry:
    """The daemon's name → :class:`Tenant` map."""

    def __init__(self, persist_root: "Path | None" = None):
        self.persist_root = persist_root
        self._tenants: dict[str, Tenant] = {}
        self.lock = ReadWriteLock()

    def _tenant_dir(self, name: str) -> "Path | None":
        if self.persist_root is None:
            return None
        return self.persist_root / name

    def create(self, name: str, request: "RegisterRequest") -> Tenant:
        """Build (but do not yet install) a tenant for ``request``."""
        if not name or "/" in name:
            raise UsageError(f"invalid tenant name {name!r}")
        return Tenant(name, request, persist_dir=self._tenant_dir(name))

    def install(self, tenant: Tenant) -> None:
        self._tenants[tenant.name] = tenant

    def get(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenant(f"unknown program {name!r}: register it first")
        return tenant

    def names(self) -> list[str]:
        return sorted(self._tenants)

    def __len__(self) -> int:
        return len(self._tenants)
