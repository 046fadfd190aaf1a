"""Integrity constraints, dense-order reasoning and locality analysis."""

from .dense_order import OrderConstraintSet, UnsatisfiableError, UnsupportedModelError
from .dependencies import (
    disjointness_constraint,
    domain_constraint,
    functional_dependency,
    inclusion_dependency,
    key_constraint,
    multivalued_dependency,
)
from .integrity import (
    IntegrityConstraint,
    check_no_idb,
    database_satisfies,
    violations,
)
from .locality import (
    LocalAtom,
    all_fully_local,
    anchor_candidates,
    choose_anchor,
    is_fully_local,
    is_local,
    local_atoms,
    nonlocal_atoms,
)

__all__ = [
    "OrderConstraintSet",
    "UnsatisfiableError",
    "UnsupportedModelError",
    "disjointness_constraint",
    "domain_constraint",
    "functional_dependency",
    "inclusion_dependency",
    "key_constraint",
    "multivalued_dependency",
    "IntegrityConstraint",
    "check_no_idb",
    "database_satisfies",
    "violations",
    "LocalAtom",
    "all_fully_local",
    "anchor_candidates",
    "choose_anchor",
    "is_fully_local",
    "is_local",
    "local_atoms",
    "nonlocal_atoms",
]
