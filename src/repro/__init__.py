"""Reproduction of Levy & Sagiv, "Semantic Query Optimization in Datalog
Programs" (PODS 1995).

The public API is re-exported here.  The headline entry point is
:func:`repro.optimize`, which rewrites a Datalog program so that it
*completely incorporates* a set of integrity constraints (Theorem 4.1 /
Theorem 4.2 of the paper); supporting decision procedures
(satisfiability, query reachability, emptiness, containment in a union
of conjunctive queries) live alongside it.
"""

__version__ = "1.0.0"

from ._lazy import lazy_exports
from .constraints import IntegrityConstraint
from .core import OptimizationReport, optimize
from .magic import (
    MagicProgram,
    PipelineReport,
    assert_equivalent,
    check_equivalence,
    magic_transform,
    run_pipeline,
)
from .robustness import (
    Budget,
    BudgetExceededError,
    EvaluationAborted,
    InjectedFault,
    ReproError,
)
from .datalog import (
    Atom,
    Constant,
    Database,
    Literal,
    OrderAtom,
    Program,
    Rule,
    Variable,
    evaluate,
    evaluate_query,
    parse_atom,
    parse_constraints,
    parse_facts,
    parse_program,
    parse_rule,
    parse_rules,
)

# Read through each subpackage's own table: the decision procedures,
# durable sessions and the fault injector load on first use.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".core": (
        "is_empty_program",
        "is_query_reachable",
        "is_satisfiable",
        "program_contained_in_ucq",
    ),
    ".persist": (
        "FlakyJournal",
        "IngestJournal",
        "RetryPolicy",
        "Session",
        "SessionResult",
    ),
    ".robustness": ("FaultInjector",),
})

__all__ = [
    "__version__",
    "IntegrityConstraint",
    "OptimizationReport",
    "is_empty_program",
    "is_query_reachable",
    "is_satisfiable",
    "optimize",
    "program_contained_in_ucq",
    "MagicProgram",
    "PipelineReport",
    "assert_equivalent",
    "check_equivalence",
    "magic_transform",
    "run_pipeline",
    "FlakyJournal",
    "IngestJournal",
    "RetryPolicy",
    "Session",
    "SessionResult",
    "Budget",
    "BudgetExceededError",
    "EvaluationAborted",
    "FaultInjector",
    "InjectedFault",
    "ReproError",
    "Atom",
    "Constant",
    "Database",
    "Literal",
    "OrderAtom",
    "Program",
    "Rule",
    "Variable",
    "evaluate",
    "evaluate_query",
    "parse_atom",
    "parse_constraints",
    "parse_facts",
    "parse_program",
    "parse_rule",
    "parse_rules",
]
