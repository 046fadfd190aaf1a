"""Datalog substrate: IR, parser, storage and bottom-up evaluation engine."""

from .._lazy import lazy_exports
from .atoms import Atom, BodyItem, Literal, OrderAtom
from .database import Database, Relation
from .evaluation import (
    EvaluationResult,
    EvaluationStats,
    evaluate,
    evaluate_query,
)
from .parser import (
    ParseError,
    parse_atom,
    parse_constraints,
    parse_facts,
    parse_program,
    parse_rule,
    parse_rules,
    parse_term,
)
from .program import Program, ProgramError
from .rules import Rule, UnsafeRuleError
from .terms import Constant, Substitution, Term, Variable, fresh_variables
from .unify import match_atom, unify_atoms, unify_terms

# Bag semantics and the pretty-printer: no evaluation runs them.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".bag": ("BagRelation", "RecursiveProgramError", "bag_equal", "evaluate_bag"),
    ".pretty": ("format_constraints", "format_program", "format_rule", "format_rules"),
})

__all__ = [
    "Atom",
    "BodyItem",
    "BagRelation",
    "RecursiveProgramError",
    "bag_equal",
    "evaluate_bag",
    "Literal",
    "OrderAtom",
    "Database",
    "Relation",
    "EvaluationResult",
    "EvaluationStats",
    "evaluate",
    "evaluate_query",
    "ParseError",
    "parse_atom",
    "parse_constraints",
    "parse_facts",
    "parse_program",
    "parse_rule",
    "parse_rules",
    "parse_term",
    "format_constraints",
    "format_program",
    "format_rule",
    "format_rules",
    "Program",
    "ProgramError",
    "Rule",
    "UnsafeRuleError",
    "Constant",
    "Substitution",
    "Term",
    "Variable",
    "fresh_variables",
    "match_atom",
    "unify_atoms",
    "unify_terms",
]
