"""Integrity constraints, dense-order reasoning and locality analysis."""

from .._lazy import lazy_exports
from .dense_order import OrderConstraintSet, UnsatisfiableError, UnsupportedModelError
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

# Constructors for the classical dependencies: callers build constraints
# with them, the rewrite never calls them.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".dependencies": (
        "disjointness_constraint",
        "domain_constraint",
        "functional_dependency",
        "inclusion_dependency",
        "key_constraint",
        "multivalued_dependency",
    ),
})

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
