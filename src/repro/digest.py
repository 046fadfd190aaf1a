"""The canonical workload and fixpoint digests, shared by every layer.

Every layer that asks "is this the same workload?" or "is this the same
fixpoint?" must agree byte-for-byte:

* the **persistence layer** binds checkpoints to the exact inputs they
  were computed from (:mod:`repro.persist.checkpoint`);
* the **tests and smoke scripts** gate every engine, storage, worker
  count and recovery path on an identical fixpoint digest.

This module is the single definition — all of them import it.

The workload digest is the program-shape digest bound to an **additive
multiset hash** of the EDB: the sum, modulo 2**256, of one SHA-256 per
``(predicate, row)``.  A sum does not care about order, so the digest
of a database is independent of insertion order, and adding rows costs
one hash and one addition per row (:func:`rows_hash`) instead of a pass
over the whole EDB — which is what lets a session carry the digest
across ingests and walk a journal's digest chain in O(rows).  The
digests guard against *mix-ups* (a checkpoint of another workload, a
journal of another tenant, a stale file), not against adversaries: an
additive hash is not collision resistant against someone who chooses
the rows.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .datalog.database import Database
    from .datalog.program import Program

__all__ = [
    "workload_digest",
    "program_digest",
    "fixpoint_digest",
    "rows_hash",
    "edb_hash",
    "bind_edb",
]

_MODULUS = 1 << 256


def rows_hash(rows: Iterable[tuple[str, tuple]], base: int = 0) -> int:
    """``base`` plus one SHA-256 per ``(predicate, row)``, mod 2**256.

    Rows are value tuples.  The caller passes each row of a database
    exactly once (relations are sets); the sum is then the same
    whatever the order.
    """
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    for predicate, row in rows:
        base += from_bytes(sha256(f"{predicate}{row!r}".encode()).digest(), "big")
    return base % _MODULUS


def edb_hash(database: "Database") -> int:
    """The multiset hash of every row of ``database``."""
    return rows_hash(
        (predicate, row)
        for predicate in database.predicates()
        for row in database.relation(predicate)
    )


def bind_edb(shape: str, edb: int) -> str:
    """The workload digest of program shape ``shape`` over an EDB hash."""
    return hashlib.sha256(f"{shape}{edb:064x}".encode()).hexdigest()


def workload_digest(
    program: "Program",
    database: "Database | None" = None,
    constraints: Sequence[object] = (),
) -> str:
    """SHA-256 binding an artifact to its exact inputs.

    Covers the rules in program order, the query predicate, the
    constraints (by ``repr``) and — when a database is given — every
    EDB row, through :func:`edb_hash`.  Any edit to the program, the
    constraints or the data changes the digest, which invalidates old
    checkpoints — including the intended case where
    :meth:`Session.ingest <repro.persist.session.Session.ingest>` adds
    facts and re-anchors the session on a new digest.

    With ``database=None`` the digest covers program + constraints
    only: the data-independent *program shape* digest.
    """
    digest = hashlib.sha256()
    for rule in program.rules:
        digest.update(repr(rule).encode())
        digest.update(b"\n")
    digest.update(f"query={program.query!r}\n".encode())
    for constraint in constraints:
        digest.update(repr(constraint).encode())
        digest.update(b"\n")
    shape = digest.hexdigest()
    if database is None:
        return shape
    return bind_edb(shape, edb_hash(database))


def program_digest(program: "Program", constraints: Sequence[object] = ()) -> str:
    """The data-independent program-shape digest (no EDB rows)."""
    return workload_digest(program, None, constraints)


def fixpoint_digest(results: Iterable[tuple[str, Mapping]]) -> str:
    """SHA-256 over labeled IDB fixpoints, order-independent per relation.

    Each item is ``(label, idb)`` where ``idb`` maps predicates to
    relations (anything with ``.rows()``), so a recovered fixpoint can be
    checked against a cold recompute and a served answer against the
    offline pipeline.
    """
    digest = hashlib.sha256()
    for unit_label, idb in results:
        digest.update(unit_label.encode())
        for predicate in sorted(idb):
            digest.update(predicate.encode())
            for row in sorted(idb[predicate].rows(), key=repr):
                digest.update(repr(row).encode())
    return digest.hexdigest()
