"""A parser for the textual Datalog syntax used throughout the project.

Grammar (informally)::

    program     := (statement)*
    statement   := rule | constraint | fact
    rule        := atom ":-" body "."
    constraint  := ":-" body "."
    fact        := atom "."
    body        := bodyitem ("," bodyitem)*
    bodyitem    := "not" atom | atom | term OP term
    atom        := IDENT "(" term ("," term)* ")"
    term        := VARIABLE | NUMBER | STRING | IDENT
    OP          := "<" | "<=" | ">" | ">=" | "=" | "!=" | "<>"

Variables begin with an uppercase letter or ``_``; lowercase identifiers
are symbolic constants; numbers may be integers or floats; ``%`` starts
a comment running to end of line.

The module exposes :func:`parse_program`, :func:`parse_rules`,
:func:`parse_rule`, :func:`parse_atom`, :func:`parse_constraints` and
:func:`parse_facts`; the latter returns a
:class:`~repro.datalog.database.FactRows` — an immutable sequence of
ground atoms that holds value rows and builds an atom only when one is
read — which :class:`repro.datalog.database.Database` loads as rows.

Programs, constraints and goals go through the tokenizer and the
recursive-descent :class:`_Parser`.  A facts text is far larger and far
more regular — ``(ws fact)* ws`` with ``fact := pred "(" const ("," const)*
")" "."`` — so :func:`parse_facts` reads it in bulk: one ``split`` on
``_FACT_RE`` (built from the tokenizer's own lexical pieces) takes every
leading well-formed fact, and each predicate's rows are cut out of its
joined argument texts.  No token list, :class:`Rule`, :class:`Atom` or
:class:`Constant` is built for a well-formed fact.  Where the regex
stops short of the end of the text, the parser proper takes over from
that offset: it skips a trailing gap, or raises the error for the first
malformed statement, positions counted from the start of the text.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import compress, count, repeat
from typing import Iterator, NamedTuple

from .atoms import Atom, BodyItem, Literal, OrderAtom
from .database import FactRows
from .program import Program
from .rules import Rule
from .terms import Constant, Term, Variable
from ..robustness.errors import ReproError

__all__ = [
    "ParseError",
    "parse_program",
    "parse_rules",
    "parse_rule",
    "parse_atom",
    "parse_term",
    "parse_constraints",
    "parse_facts",
    "parse_program_and_facts",
]


class ParseError(ReproError, ValueError):
    """Raised on any syntax error, with position information."""


# The lexical pieces, shared by the tokenizer and the ground-fact scanner
# so the two cannot drift apart.
_COMMENT = r"%[^\n]*"
_NUMBER = r"-?\d+(?:\.\d+)?"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_STRING = r"\"[^\"]*\"|'[^']*'"

_TOKEN_RE = re.compile(
    rf"""
    (?P<WS>\s+|{_COMMENT})
  | (?P<ARROW>:-)
  | (?P<OP><=|>=|!=|<>|<|>|=)
  | (?P<NUMBER>{_NUMBER})
  | (?P<IDENT>{_IDENT})
  | (?P<STRING>{_STRING})
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<DOT>\.)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(source: str, start: int = 0) -> list[_Token]:
    """The tokens of ``source[start:]``, positions absolute in ``source``."""
    tokens: list[_Token] = []
    pos = start
    for match in _TOKEN_RE.finditer(source, start):
        if match.start() != pos:
            break
        kind = match.lastgroup
        if kind != "WS":
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    if pos < len(source):
        raise ParseError(f"unexpected character {source[pos]!r} at position {pos}")
    tokens.append(_Token("EOF", "", len(source)))
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, source: str, start: int = 0):
        self._tokens = _tokenize(source, start)
        self._index = 0

    # -- token plumbing -------------------------------------------------
    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _next(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise ParseError(f"expected {kind} but found {token.text!r} at position {token.pos}")
        return token

    def at_end(self) -> bool:
        return self._peek().kind == "EOF"

    # -- grammar --------------------------------------------------------
    def term(self) -> Term:
        token = self._next()
        if token.kind == "NUMBER":
            value = float(token.text) if "." in token.text else int(token.text)
            return Constant(value)
        if token.kind == "STRING":
            return Constant(token.text[1:-1])
        if token.kind == "IDENT":
            if token.text[0].isupper() or token.text[0] == "_":
                return Variable(token.text)
            return Constant(token.text)
        raise ParseError(f"expected a term but found {token.text!r} at position {token.pos}")

    def atom(self) -> Atom:
        name = self._expect("IDENT")
        if name.text[0].isupper():
            raise ParseError(f"predicate names must be lowercase: {name.text!r} at position {name.pos}")
        self._expect("LPAREN")
        args: list[Term] = []
        if self._peek().kind != "RPAREN":
            args.append(self.term())
            while self._peek().kind == "COMMA":
                self._next()
                args.append(self.term())
        self._expect("RPAREN")
        return Atom(name.text, tuple(args))

    def body_item(self) -> BodyItem:
        token = self._peek()
        if token.kind == "IDENT" and token.text == "not":
            self._next()
            return Literal(self.atom(), positive=False)
        # Could be an atom (ident followed by lparen) or an order atom.
        if token.kind == "IDENT" and self._tokens[self._index + 1].kind == "LPAREN":
            return Literal(self.atom(), positive=True)
        left = self.term()
        op_token = self._expect("OP")
        op = "!=" if op_token.text == "<>" else op_token.text
        right = self.term()
        return OrderAtom(left, op, right)

    def body(self) -> tuple[BodyItem, ...]:
        items = [self.body_item()]
        while self._peek().kind == "COMMA":
            self._next()
            items.append(self.body_item())
        return tuple(items)

    def statement(self) -> Rule:
        """One statement; constraints are returned as rules with head ``__false__()``."""
        if self._peek().kind == "ARROW":
            self._next()
            body = self.body()
            self._expect("DOT")
            return Rule(Atom("__false__", ()), body)
        head = self.atom()
        if self._peek().kind == "DOT":
            self._next()
            return Rule(head, ())
        self._expect("ARROW")
        body = self.body()
        self._expect("DOT")
        return Rule(head, body)

    def statements(self) -> Iterator[Rule]:
        while not self.at_end():
            yield self.statement()


def parse_rules(source: str) -> list[Rule]:
    """Parse a sequence of rules/facts (constraints are rejected here)."""
    rules = list(_Parser(source).statements())
    for rule in rules:
        if rule.head.predicate == "__false__":
            raise ParseError("integrity constraint found where a rule was expected; use parse_constraints")
    return rules


def parse_rule(source: str) -> Rule:
    """Parse exactly one rule."""
    rules = parse_rules(source)
    if len(rules) != 1:
        raise ParseError(f"expected exactly one rule, found {len(rules)}")
    return rules[0]


def parse_atom(source: str) -> Atom:
    """Parse a single atom such as ``p(X, a, 3)``."""
    parser = _Parser(source)
    atom = parser.atom()
    if not parser.at_end():
        raise ParseError("trailing input after atom")
    return atom


def parse_term(source: str) -> Term:
    """Parse a single term."""
    parser = _Parser(source)
    term = parser.term()
    if not parser.at_end():
        raise ParseError("trailing input after term")
    return term


def parse_program(source: str, query: str | None = None) -> Program:
    """Parse a full program (rules only) into a :class:`Program`."""
    return Program(parse_rules(source), query)


def parse_constraints(source: str):
    """Parse ``:- body.`` statements into :class:`IntegrityConstraint` objects."""
    from ..constraints.integrity import IntegrityConstraint

    constraints = []
    for rule in _Parser(source).statements():
        if rule.head.predicate != "__false__":
            raise ParseError(f"expected an integrity constraint (:- body.) but found rule {rule}")
        constraints.append(IntegrityConstraint(rule.body))
    return constraints


def parse_program_and_facts(
    source: str, query: str | None = None
) -> tuple[Program, list[Atom]]:
    """Parse a mixed program file into ``(Program, inline facts)``.

    A ground, body-less statement counts as an inline EDB fact when no
    other statement derives its predicate with a proper rule; everything
    else stays in the program.  This lets one ``.dl`` file carry both
    the rules and a small demo database (``repro profile examples/x.dl``).
    """
    statements = parse_rules(source)
    rule_predicates = {
        rule.head.predicate for rule in statements if rule.body
    }
    rules: list[Rule] = []
    facts: list[Atom] = []
    for rule in statements:
        if (
            not rule.body
            and rule.head.is_ground()
            and rule.head.predicate not in rule_predicates
        ):
            facts.append(rule.head)
        else:
            rules.append(rule)
    return Program(rules, query), facts


# -- ground facts ---------------------------------------------------------
#
# A facts text is ``(ws fact)* ws`` with ``fact := pred ( const , ... ) .``;
# ``_FACT_RE`` *is* that grammar, spelled with the tokenizer's own lexical
# pieces.  ``_GAP`` is what the tokenizer drops between two tokens; a
# comment must run to its line end, so backtracking can never cut one
# short and resurrect the text behind the ``%``.  The groups are the whole
# fact (``split`` reports no offsets; the lengths of these add up to one),
# its predicate and its argument text.
_GAP = rf"\s*(?:{_COMMENT}(?:\n|\Z)\s*)*"
_GROUND = rf"(?:{_NUMBER}|[a-z][A-Za-z0-9_]*|{_STRING})"
_FACT_RE = re.compile(
    rf"({_GAP}([a-z_][A-Za-z0-9_]*){_GAP}\("
    rf"({_GAP}(?:{_GROUND}{_GAP}(?:,{_GAP}{_GROUND}{_GAP})*)?)"
    rf"\){_GAP}\.)"
)
#: Splits the argument text ``_FACT_RE`` has already validated; comments
#: come out as tokens too (a ``%`` inside a string never starts one).
_ARGUMENT_RE = re.compile(rf"{_NUMBER}|{_IDENT}|{_STRING}|{_COMMENT}")


class _Values(dict):
    """Argument text -> the value it denotes, converted on first sight."""

    def __missing__(self, text: str) -> object:
        if text[0] in "\"'":
            value: object = text[1:-1]
        elif text[0].isalpha():
            value = text
        else:
            value = float(text) if "." in text else int(text)
        self[text] = value
        return value


def _parse_facts_from(source: str, start: int = 0) -> list[Atom]:
    """The recursive-descent facts parser over ``source[start:]``.

    The reference :func:`parse_facts` is tested against, and the one
    place a malformed facts text gets its error phrased.
    """
    facts = []
    for rule in _Parser(source, start).statements():
        if rule.body or rule.head.predicate == "__false__":
            raise ParseError(f"expected a ground fact but found {rule}")
        if not rule.head.is_ground():
            raise ParseError(f"fact {rule.head} is not ground")
        facts.append(rule.head)
    return facts


def parse_facts(source: str) -> FactRows:
    """Parse ground facts (``p(a, 1).`` lines) into a :class:`FactRows`.

    The result reads as an immutable sequence of ground atoms in source
    order (``len``, indexing, iteration, ``==`` with a list of atoms),
    but holds value rows: an :class:`Atom` exists only once somebody
    asks for one, and ``Database(parse_facts(text))`` never does.

    One ``_FACT_RE.split`` takes every leading well-formed fact; each
    predicate's argument texts are then tokenised, converted and cut
    into rows together.  The parser proper only runs over whatever the
    regex did not take — trailing blanks, or the first malformed
    statement, whose error it raises with positions absolute in
    ``source``.
    """
    # [gap, fact, predicate, arguments, gap, fact, ...]: the facts before
    # the first gap that holds anything are the ones a match loop would
    # have taken one after the other.
    parts = _FACT_RE.split(source)
    gaps = parts[::4]
    taken = next(compress(count(), gaps), len(gaps) - 1)
    end = sum(map(len, parts[1 : 4 * taken : 4]))
    rest = _parse_facts_from(source, end) if end < len(source) else []
    order = parts[2 : 4 * taken : 4]
    texts: dict[str, list[str]] = defaultdict(list)
    for predicate, text in zip(order, parts[3 : 4 * taken : 4]):
        texts[predicate].append(text)
    del parts, gaps  # a copy of the text, not to be held while rows are cut

    tokens = _ARGUMENT_RE.findall
    value_of = _Values().__getitem__
    groups: dict[str, list[tuple]] = {}
    for predicate, group in texts.items():
        joined = ",".join(group)
        commas = set(map(str.count, group, repeat(",")))
        if (
            len(commas) == 1
            and not ('"' in joined or "'" in joined or "%" in joined)
            and (commas != {0} or all(map(str.strip, group)))
        ):
            # Nothing but tokens, blanks and the commas between tokens,
            # as many in every fact: cells are cut at the commas, rows
            # every ``arity`` cells.
            arity = commas.pop() + 1
            cells = map(str.strip, joined.split(","))
            rows = list(zip(*[map(value_of, cells)] * arity))
        else:
            # A string or a comment may hold a comma, or the group is
            # ragged or has facts of no argument: fact by fact.
            rows = [
                tuple(map(value_of, [t for t in tokens(text) if t[0] != "%"]))
                for text in group
            ]
        groups[predicate] = rows
    facts = FactRows(order, groups)
    return FactRows.of(facts, rest) if rest else facts
