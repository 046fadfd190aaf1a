"""The tests' reference evaluator: ``perf/reference.py`` over repro's IR.

``perf/reference.py`` is the benchmark's oracle, a minimal semi-naive
evaluator with its own rule form, joins and filters that imports nothing
from ``repro``.  This adapter hands it a ``Program`` and a ``Database``
as that rule form, without its text parser (whose grammar has no 0-ary
atoms or quoted strings).  It reads only the fields of rules, literals,
order atoms and terms, and ``Database.facts()``: no repro evaluator,
parser, index or plan takes part, so a bug in any of them cannot sit on
both sides of a comparison.  ``naive=True`` runs the model's joins in
naive rounds, which share no delta bookkeeping with any semi-naive loop.
"""

import importlib.util
from pathlib import Path

from repro.datalog.atoms import Literal
from repro.datalog.terms import Variable

_SPEC = importlib.util.spec_from_file_location(
    "perf_reference", Path(__file__).resolve().parent.parent / "perf" / "reference.py"
)
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)


def _term(term):
    return reference.Var(term.name) if isinstance(term, Variable) else term.value


def _atom(atom):
    return atom.predicate, tuple(_term(arg) for arg in atom.args)


def _item(item):
    if isinstance(item, Literal):
        return ("pos" if item.positive else "neg",) + _atom(item.atom)
    return ("cmp", item.op, _term(item.left), _term(item.right))


class Model(reference.Fixpoint):
    """A ``reference.Fixpoint`` built from ``(head, body)`` tuples, not text."""

    def __init__(self, rules):
        self.idb = {head[0] for head, _ in rules}
        self.negated = {item[1] for _, body in rules for item in body if item[0] == "neg"}
        self.plans = {}
        for head, body in rules:
            positives = sum(item[0] == "pos" for item in body)
            if not positives:
                raise ValueError(f"reference: {head} needs a positive literal")
            for at in range(positives):
                plan = reference._Plan(head, body, at)
                self.plans.setdefault(plan.delta_pred, []).append(plan)
        self.rel, self.index, self._settled = {}, {}, False

    def add_naively(self, facts):
        """Insert ``facts`` and run rounds that fire every rule against
        the full relations, until a round derives nothing new."""
        for predicate, row in facts:
            self._insert(predicate, row)
        while True:
            derived = []
            for predicate, plans in self.plans.items():
                for plan in plans:
                    self._fire(plan, self.rows(predicate), derived)
            if not [fact for fact in derived if self._insert(*fact)]:
                return


def _model(program, database, naive=False):
    """The model's fixpoint of ``program`` over ``database``.  Body-less
    rules (a magic seed, say) are lifted to facts."""
    facts = [_atom(fact) for fact in database.facts()]
    rules = []
    for rule in program.rules:
        if rule.body:
            rules.append((_atom(rule.head), [_item(item) for item in rule.body]))
        else:
            facts.append(_atom(rule.head))
    model = Model(rules)
    if naive:
        model.add_naively(facts)
    else:
        model.add(facts)
    return model


def model_fixpoint(program, database, *, naive=False):
    """Every IDB relation of ``program`` over ``database``, as frozensets."""
    model = _model(program, database, naive)
    return {
        predicate: frozenset(model.rows(predicate))
        for predicate in {rule.head.predicate for rule in program.rules}
    }
