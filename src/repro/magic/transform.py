"""The magic-sets transformation: demand predicates + guarded rules.

Given a program and a query atom with bound (constant) arguments,
:func:`magic_transform` produces a program that computes exactly the
answers to the query atom while deriving only facts *demanded* by it:

1. the program is adorned by binding patterns from the query atom
   (:mod:`repro.magic.adorn`), bindings passed left to right;
2. every adorned predicate ``p__α`` gets a *magic* predicate
   ``m_p__α`` over its bound positions; the query seeds it with one
   fact holding the query atom's constants;
3. each adorned rule ``p__α(t̄) :- B₁, …, Bₙ`` becomes a *guarded*
   rule ``p__α(t̄) :- m_p__α(t̄ᵇ), B₁, …, Bₙ`` — the head can only
   fire for demanded bindings;
4. for each IDB subgoal ``Bᵢ = q__β(s̄)``, a *magic rule*
   ``m_q__β(s̄ᵇ) :- m_p__α(t̄ᵇ), B₁, …, Bᵢ₋₁`` records the demand the
   prefix passes sideways into it.

Filters (order atoms, negated EDB literals) are kept in guarded rules
unconditionally — correctness lives there — and included in magic-rule
prefixes only when the prefix already binds their variables; dropping
an unevaluable filter merely over-approximates demand, which is sound.
Negation stays on EDB predicates only (magic and adorned predicates
never appear negated), so the transformed program remains in the same
stratified ``{not}``-class as its input.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.atoms import Atom, BodyItem, Literal, OrderAtom
from ..datalog.database import Database
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Constant
from ..observability.trace import get_tracer
from .adorn import AdornedProgram, adorn_program, bound_after, bound_args

__all__ = ["MAGIC_PREFIX", "MagicProgram", "magic_transform", "match_query_atom"]

#: Prefix of magic (demand) predicate names.
MAGIC_PREFIX = "m_"


def match_query_atom(row: tuple, query_atom: Atom) -> bool:
    """Whether a relation row matches the query atom's pattern.

    Constants must equal the row value; repeated variables must bind
    consistently across their positions.
    """
    binding: dict = {}
    for value, arg in zip(row, query_atom.args):
        if isinstance(arg, Constant):
            if arg.value != value:
                return False
        else:
            seen = binding.setdefault(arg, value)
            if seen != value:
                return False
    return True


@dataclass(frozen=True)
class MagicProgram:
    """The transformed program plus everything needed to interpret it."""

    program: Program
    query_atom: Atom
    adorned: AdornedProgram
    seed: Rule
    magic_names: dict[str, str]

    @property
    def answer_predicate(self) -> str:
        """The predicate of the transformed program holding the answers."""
        return self.adorned.adorned_query

    def answers(self, database: Database) -> frozenset:
        """Evaluate the magic program and return the query-atom answers."""
        from ..datalog.evaluation import evaluate

        rows = evaluate(self.program, database).query_rows()
        return frozenset(r for r in rows if match_query_atom(r, self.query_atom))

    def summary(self) -> str:
        patterns = self.adorned.patterns()
        lines = [
            f"query atom: {self.query_atom}",
            f"adorned predicates: {sum(len(v) for v in patterns.values())} "
            + "("
            + "; ".join(f"{p}: {', '.join(ads)}" for p, ads in patterns.items())
            + ")",
            f"rules: {len(self.program.rules)} "
            f"(from {len(self.adorned.program.rules)} adorned, "
            f"{len(self.magic_names)} magic predicates)",
            f"seed: {self.seed}",
        ]
        return "\n".join(lines)


def magic_transform(program: Program, query_atom: Atom) -> MagicProgram:
    """Apply the magic-sets transformation for ``query_atom``.

    On any database, the rows of :attr:`MagicProgram.answer_predicate`
    matching the query atom equal the original query predicate's rows
    matching it (see :func:`repro.magic.pipeline.check_equivalence`).
    """
    tracer = get_tracer()
    with tracer.span(
        "magic.transform", query=query_atom.predicate, rules=len(program.rules)
    ) as transform_span:
        adorned = adorn_program(program, query_atom)
        result = _build_magic(program, query_atom, adorned)
        if tracer.enabled:
            transform_span.set(
                adorned_rules=len(adorned.rules),
                magic_predicates=len(result.magic_names),
                transformed_rules=len(result.program.rules),
                seed=repr(result.seed.head),
            )
    return result


def _build_magic(
    program: Program, query_atom: Atom, adorned: AdornedProgram
) -> MagicProgram:
    """Assemble the magic program from an already-adorned program."""
    taken = set(adorned.program.idb_predicates) | set(adorned.program.edb_predicates)
    magic_names: dict[str, str] = {}
    for name in adorned.names.values():
        candidate = MAGIC_PREFIX + name
        while candidate in taken:
            candidate += "x"
        taken.add(candidate)
        magic_names[name] = candidate

    rules: list[Rule] = []
    seen: set[Rule] = set()

    def emit(rule: Rule) -> None:
        if rule not in seen:
            seen.add(rule)
            rules.append(rule)

    # The seed: the query atom's constants are the initial demand.
    seed = Rule(
        Atom(
            magic_names[adorned.adorned_query],
            bound_args(query_atom, adorned.query_adornment),
        ),
        (),
    )
    emit(seed)

    for ar in adorned.rules:
        head = ar.rule.head
        magic_head = Atom(
            magic_names[head.predicate], bound_args(head, ar.head_adornment)
        )
        subgoal_at = {index: (pred, ad) for index, pred, ad in ar.idb_subgoals}
        # Magic rules: one per IDB subgoal, over the safe prefix.
        prefix: list[BodyItem] = [Literal(magic_head)]
        current = frozenset(magic_head.variables())
        for index, item in enumerate(ar.rule.body):
            if index in subgoal_at:
                _, sub_adornment = subgoal_at[index]
                assert isinstance(item, Literal)
                emit(
                    Rule(
                        Atom(
                            magic_names[item.predicate],
                            bound_args(item.atom, sub_adornment),
                        ),
                        tuple(prefix),
                    )
                )
            if isinstance(item, Literal) and item.positive:
                prefix.append(item)
            elif isinstance(item, OrderAtom) and item.op == "=":
                # Binding equality: include when it can bind or filter.
                if bound_after(item, current) != current or item.variables() <= current:
                    prefix.append(item)
            elif item.variables() <= current:
                prefix.append(item)
            current = bound_after(item, current)
        # The guarded rule: demand gates every head derivation.
        emit(Rule(head, (Literal(magic_head),) + ar.rule.body))

    transformed = Program(tuple(rules), adorned.adorned_query, validate=False)
    return MagicProgram(
        program=transformed,
        query_atom=query_atom,
        adorned=adorned,
        seed=seed,
        magic_names=magic_names,
    )
