"""Conjunctive queries: homomorphisms, containment, minimization."""

from .._lazy import lazy_exports
from .homomorphism import (
    all_homomorphisms,
    extend_homomorphism,
    find_homomorphism,
    homomorphism_exists,
)

# Containment and minimization serve the decision procedures only; the
# rewrite needs nothing here but homomorphisms.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".conjunctive": ("ConjunctiveQuery", "FrozenBody", "UnionOfConjunctiveQueries"),
    ".containment": (
        "ContainmentTooLargeError",
        "cq_contained",
        "cq_contained_in_union",
        "cq_equivalent",
        "ucq_contained",
    ),
    ".minimize": ("is_minimal", "minimize_cq"),
})

__all__ = [
    "ConjunctiveQuery",
    "FrozenBody",
    "UnionOfConjunctiveQueries",
    "ContainmentTooLargeError",
    "cq_contained",
    "cq_contained_in_union",
    "cq_equivalent",
    "ucq_contained",
    "all_homomorphisms",
    "extend_homomorphism",
    "find_homomorphism",
    "homomorphism_exists",
    "is_minimal",
    "minimize_cq",
]
