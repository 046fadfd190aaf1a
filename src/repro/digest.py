"""The canonical workload and fixpoint digests, shared by every layer.

Every layer that asks "is this the same workload?" or "is this the same
fixpoint?" must agree byte-for-byte:

* the **persistence layer** binds checkpoints to the exact inputs they
  were computed from (:mod:`repro.persist.checkpoint`);
* the **serving layer** keys its rewrite/adornment artifact cache by
  program shape (:mod:`repro.serve`);
* the **tests and smoke scripts** gate every engine, storage, worker
  count and recovery path on an identical fixpoint digest.

This module is the single definition — all of them import it, and
:meth:`repro.core.rewrite.OptimizationReport.cache_key` exposes the
same digest for cache keying.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .datalog.database import Database
    from .datalog.program import Program

__all__ = ["workload_digest", "program_digest", "fixpoint_digest"]


def workload_digest(
    program: "Program",
    database: "Database | None" = None,
    constraints: Sequence[object] = (),
) -> str:
    """SHA-256 binding an artifact to its exact inputs.

    Covers the rules in program order, the query predicate, the
    constraints (by ``repr``) and — when a database is given — every
    EDB row (predicates sorted, rows sorted by ``repr``).  Any edit to
    the program, the constraints or the data changes the digest, which
    invalidates old checkpoints — including the intended case where
    :meth:`Session.ingest <repro.persist.session.Session.ingest>` adds
    facts and re-anchors the session on a new digest.

    With ``database=None`` the digest covers program + constraints
    only: the *program shape* digest used to key rewrite/adornment
    artifacts, which are data-independent (see
    :func:`repro.magic.pipeline.specialize_pipeline`).
    """
    digest = hashlib.sha256()
    for rule in program.rules:
        digest.update(repr(rule).encode())
        digest.update(b"\n")
    digest.update(f"query={program.query!r}\n".encode())
    for constraint in constraints:
        digest.update(repr(constraint).encode())
        digest.update(b"\n")
    if database is not None:
        for predicate, entry in sorted(database.to_dict().items()):
            digest.update(predicate.encode())
            for row in entry["rows"]:  # already sorted by repr
                digest.update(repr(tuple(row)).encode())
    return digest.hexdigest()


def program_digest(program: "Program", constraints: Sequence[object] = ()) -> str:
    """The data-independent program-shape digest (no EDB rows)."""
    return workload_digest(program, None, constraints)


def fixpoint_digest(results: Iterable[tuple[str, Mapping]]) -> str:
    """SHA-256 over labeled IDB fixpoints, order-independent per relation.

    Each item is ``(label, idb)`` where ``idb`` maps predicates to
    relations (anything with ``.rows()``), so a resumed fixpoint can be
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
