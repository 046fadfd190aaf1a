"""An independent, minimal semi-naive Datalog evaluator: the benchmark's oracle.

It shares no code with ``src/repro`` (own tokenizer, own rule form, own
joins) and always evaluates the *original* program, never a rewriting,
so an optimizer bug cannot cancel out against the checker.  Supported:
positive literals, order atoms (``< <= > >= = !=``) and negation on EDB
predicates - exactly what the benchmark's programs use.

Two entry points:

* :func:`answers` - rows of a goal over ``program + facts``;
* :class:`Fixpoint` - a resident fixpoint that absorbs further facts
  incrementally (the serve workload replays its ingests through it).

Bound goals are answered on the goal's *connected component* of the
data only: every rule the benchmark uses is connected and mentions no
constant outside order atoms, so a derivation of ``q(c, ..)`` can only
touch facts linked to ``c`` through shared constants.  This is a
property of the data, not a program transformation, and it keeps the
oracle cheap on the large decoy-laden inputs of ``point_load``.
"""

from __future__ import annotations

import hashlib
import operator
import re

_TOKEN = re.compile(
    r"\s+|%[^\n]*|(?P<op>:-|<=|>=|!=|[(),.<>=])|(?P<int>-?\d+)|(?P<name>[A-Za-z_]\w*)"
)
_COMPARE = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "=": operator.eq, "!=": operator.ne,
}


class Var(str):
    """A variable name (a distinct type so constants may be strings)."""


def _tokens(text: str) -> list:
    out, pos = [], 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"reference parser: bad input at {text[pos:pos + 20]!r}")
        pos = match.end()
        if match.group("op"):
            out.append(match.group("op"))
        elif match.group("int"):
            out.append(int(match.group("int")))
        elif match.group("name"):
            name = match.group("name")
            out.append(Var(name) if name[0].isupper() or name[0] == "_" else ("c", name))
    return out


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"reference parser: expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def term(self):
        tok = self.take()
        if isinstance(tok, tuple):
            return tok[1]
        if isinstance(tok, (int, Var)):
            return tok
        raise ValueError(f"reference parser: bad term {tok!r}")

    def atom(self):
        tok = self.take()
        if not isinstance(tok, tuple):
            raise ValueError(f"reference parser: bad predicate {tok!r}")
        args = []
        self.take("(")
        while True:
            args.append(self.term())
            if self.take() == ")":
                break
        return tok[1], tuple(args)

    def body_item(self):
        tok = self.peek()
        if tok == ("c", "not"):
            self.take()
            return ("neg",) + self.atom()
        nxt = self.toks[self.pos + 1] if self.pos + 1 < len(self.toks) else None
        if isinstance(tok, tuple) and nxt == "(":
            return ("pos",) + self.atom()
        left = self.term()
        op = self.take()
        if op not in _COMPARE:
            raise ValueError(f"reference parser: bad comparison {op!r}")
        return ("cmp", op, left, self.term())

    def statement(self):
        """``(head, body)``; a fact has an empty body."""
        head = self.atom()
        body = []
        if self.peek() == ":-":
            self.take()
            while True:
                body.append(self.body_item())
                if self.peek() != ",":
                    break
                self.take()
        self.take(".")
        return head, body


def parse_rules(text: str) -> list:
    reader = _Reader(text)
    out = []
    while reader.peek() is not None:
        out.append(reader.statement())
    return out


def parse_facts(text: str) -> list:
    """``[(predicate, row), ...]`` of a ground-facts text."""
    facts = []
    for (pred, args), body in parse_rules(text):
        if body or any(isinstance(a, Var) for a in args):
            raise ValueError(f"reference parser: {pred}{args} is not a ground fact")
        facts.append((pred, args))
    return facts


def parse_goal(text: str):
    reader = _Reader(text)
    goal = reader.atom()
    if reader.peek() is not None:
        raise ValueError(f"reference parser: trailing input after goal {text!r}")
    return goal


class _Plan:
    """One rule with one positive literal chosen to read the delta."""

    def __init__(self, head, body, delta_at: int):
        positives = [item for item in body if item[0] == "pos"]
        first = positives[delta_at]
        rest = positives[:delta_at] + positives[delta_at + 1:]
        bound = {a for a in first[2] if isinstance(a, Var)}
        self.delta_pred = first[1]
        self.delta_args = first[2]
        self.joins = []  # (pred, key positions, key terms, args)
        while rest:
            # Greedy: the literal sharing the most bound variables next.
            nxt = max(
                rest,
                key=lambda lit: sum(
                    1 for a in lit[2] if not isinstance(a, Var) or a in bound
                ),
            )
            rest.remove(nxt)
            positions = tuple(
                i for i, a in enumerate(nxt[2]) if not isinstance(a, Var) or a in bound
            )
            self.joins.append(
                (nxt[1], positions, tuple(nxt[2][i] for i in positions), nxt[2])
            )
            bound |= {a for a in nxt[2] if isinstance(a, Var)}
        self.filters = [item for item in body if item[0] != "pos"]
        self.head_pred, self.head_args = head
        missing = [a for a in self.head_args if isinstance(a, Var) and a not in bound]
        if missing:
            raise ValueError(f"reference: unsafe rule head variables {missing}")


_MISSING = object()


def _bind(args, row, env):
    """Extend ``env`` by matching ``args`` against ``row``; None on clash."""
    out = env
    for arg, value in zip(args, row):
        if isinstance(arg, Var):
            seen = out.get(arg, _MISSING)
            if seen is _MISSING:
                if out is env:
                    out = dict(env)
                out[arg] = value
            elif seen != value:
                return None
        elif arg != value:
            return None
    return out


def _value(term, env):
    return env[term] if isinstance(term, Var) else term


class Fixpoint:
    """The least model of ``program`` over the facts added so far."""

    def __init__(self, program_text: str):
        rules = parse_rules(program_text)
        self.idb = {head[0] for head, _ in rules}
        self.negated = {
            item[1] for _, body in rules for item in body if item[0] == "neg"
        }
        if self.negated & self.idb:
            raise ValueError("reference: negation is supported on EDB predicates only")
        self.plans: dict[str, list[_Plan]] = {}
        for head, body in rules:
            positives = [item for item in body if item[0] == "pos"]
            if not positives:
                raise ValueError("reference: every rule needs a positive literal")
            for at in range(len(positives)):
                plan = _Plan(head, body, at)
                self.plans.setdefault(plan.delta_pred, []).append(plan)
        self.rel: dict[str, set] = {}
        self.index: dict[tuple, dict] = {}
        self._settled = False

    def rows(self, predicate: str) -> set:
        return self.rel.get(predicate, set())

    def _lookup(self, pred: str, positions: tuple, key: tuple):
        idx = self.index.get((pred, positions))
        if idx is None:
            idx = {}
            for row in self.rel.get(pred, ()):
                idx.setdefault(tuple(row[i] for i in positions), []).append(row)
            self.index[(pred, positions)] = idx
        return idx.get(key, ())

    def _insert(self, pred: str, row: tuple) -> bool:
        rows = self.rel.setdefault(pred, set())
        if row in rows:
            return False
        rows.add(row)
        for (ipred, positions), idx in self.index.items():
            if ipred == pred:
                idx.setdefault(tuple(row[i] for i in positions), []).append(row)
        return True

    def _passes(self, plan: _Plan, env: dict) -> bool:
        for item in plan.filters:
            if item[0] == "cmp":
                if not _COMPARE[item[1]](_value(item[2], env), _value(item[3], env)):
                    return False
            else:
                row = tuple(_value(a, env) for a in item[2])
                if row in self.rel.get(item[1], ()):
                    return False
        return True

    def _fire(self, plan: _Plan, delta_rows, out: list) -> None:
        envs = []
        for row in delta_rows:
            env = _bind(plan.delta_args, row, {})
            if env is not None:
                envs.append(env)
        for pred, positions, key_terms, args in plan.joins:
            if not envs:
                return
            grown = []
            for env in envs:
                key = tuple(_value(t, env) for t in key_terms)
                for row in self._lookup(pred, positions, key):
                    nxt = _bind(args, row, env)
                    if nxt is not None:
                        grown.append(nxt)
            envs = grown
        head_pred, head_args = plan.head_pred, plan.head_args
        for env in envs:
            if self._passes(plan, env):
                out.append((head_pred, tuple(_value(a, env) for a in head_args)))

    def add(self, facts) -> None:
        """Insert ``(predicate, row)`` facts and run to the new fixpoint."""
        delta: dict[str, list] = {}
        for pred, row in facts:
            if self._insert(pred, tuple(row)):
                if pred in self.negated and self._settled:
                    # Facts derived through ``not pred(..)`` would have to
                    # be retracted; the benchmark never does this.
                    raise ValueError(f"reference: cannot grow negated predicate {pred}")
                delta.setdefault(pred, []).append(tuple(row))
        while delta:
            derived: list = []
            for pred, rows in delta.items():
                for plan in self.plans.get(pred, ()):
                    self._fire(plan, rows, derived)
            delta = {}
            for pred, row in derived:
                if self._insert(pred, row):
                    delta.setdefault(pred, []).append(row)
        self._settled = True

    def answers(self, goal) -> set:
        """Rows of the goal's predicate matching its constants."""
        pred, args = goal
        out = set()
        for row in self.rel.get(pred, ()):
            if _bind(args, row, {}) is not None:
                out.add(row)
        return out


def _component(facts, constants) -> list:
    """The facts linked to ``constants`` through shared constants."""
    parent: dict = {}

    def find(x):
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for _, row in facts:
        first = find(row[0])
        for value in row[1:]:
            parent[find(value)] = first
            first = find(first)
    roots = {find(c) for c in constants}
    return [fact for fact in facts if find(fact[1][0]) in roots]


def answers(program_text: str, facts_text: str, goal_text: str) -> set:
    """Answer rows of ``goal_text`` over the original program and facts."""
    goal = parse_goal(goal_text)
    facts = parse_facts(facts_text)
    constants = [a for a in goal[1] if not isinstance(a, Var)]
    if constants:
        facts = _component(facts, constants)
    fixpoint = Fixpoint(program_text)
    fixpoint.add(facts)
    return fixpoint.answers(goal)


def digest(rows) -> str:
    """Order-independent digest of a set of answer rows.

    Rows are tuples (or JSON lists) of ints and strings; the canonical
    form is their sorted ``repr``, so engine answers, oracle answers and
    decoded HTTP bodies all hash alike.
    """
    canonical = sorted(repr(tuple(row)) for row in rows)
    return hashlib.sha256("\n".join(canonical).encode()).hexdigest()[:16]
