"""The paper's core algorithms: residues, adornments, query tree, rewriting,
satisfiability, reachability, emptiness and containment."""

from .._lazy import lazy_exports
from .adornments import (
    AdornedRule,
    AdornmentResult,
    LocalAtomIndex,
    Triplet,
    compute_adornments,
)
from .local_atoms import (
    LocalAtomPlan,
    NonLocalConstraintError,
    prepare_local_atoms,
    quasi_local_report,
    split_rules_on_local_atoms,
)
from .order_propagation import (
    OrderPropagation,
    normalize_rule,
    propagate_order_constraints,
)
from .querytree import GoalNode, QueryTree, RuleNode, build_query_tree
from .residues import (
    Residue,
    constrain_program,
    constrain_rule,
    injectable_conditions,
    residues_for_rule,
    rule_violates,
)
from .rewrite import OptimizationReport, optimize

# The Section 5 decision procedures and the DOT renderers: no rewrite runs them.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".containment": (
        "containment_as_satisfiability",
        "program_contained_in_ucq",
        "satisfiability_as_noncontainment",
    ),
    ".emptiness": (
        "EmptinessTooLargeError",
        "is_empty_program",
        "rule_satisfiable_wrt",
        "unsatisfiable_initialization_rules",
    ),
    ".reachability": (
        "bounded_satisfiability",
        "is_query_reachable",
        "is_satisfiable",
        "reachability_program",
        "satisfiability_as_reachability",
    ),
    ".visualize": ("dependency_dot", "querytree_dot"),
})

__all__ = [
    "AdornedRule",
    "AdornmentResult",
    "LocalAtomIndex",
    "Triplet",
    "compute_adornments",
    "containment_as_satisfiability",
    "program_contained_in_ucq",
    "satisfiability_as_noncontainment",
    "EmptinessTooLargeError",
    "is_empty_program",
    "rule_satisfiable_wrt",
    "unsatisfiable_initialization_rules",
    "LocalAtomPlan",
    "NonLocalConstraintError",
    "prepare_local_atoms",
    "quasi_local_report",
    "split_rules_on_local_atoms",
    "OrderPropagation",
    "normalize_rule",
    "propagate_order_constraints",
    "GoalNode",
    "QueryTree",
    "RuleNode",
    "build_query_tree",
    "bounded_satisfiability",
    "is_query_reachable",
    "is_satisfiable",
    "reachability_program",
    "satisfiability_as_reachability",
    "Residue",
    "constrain_program",
    "constrain_rule",
    "injectable_conditions",
    "residues_for_rule",
    "rule_violates",
    "OptimizationReport",
    "optimize",
    "dependency_dot",
    "querytree_dot",
]
