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
")" "."`` — so :func:`parse_facts` reads it in bulk.  One ``split`` on
``_FACT_RE`` cuts the text into facts by their *structure* (gaps,
predicate, one argument text, ``)`` and ``.``); the argument grammar is
checked afterwards, once per predicate group on the group's joined
argument text, by the same pass that converts it by column kind —
integers through ``int``, symbols as they stand, other mixes through a
text -> value table, groups with strings or comments fact by fact.  No
token list, :class:`Rule`, :class:`Atom` or :class:`Constant` is built
for a well-formed fact.  The bulk path takes the facts the split finds
one after the other from the start of the text, up to the first stretch
it cannot read as a fact (in a good text, every fact).  The parser
proper reads from the end of the last fact taken — the trailing gap of a
good text — and reads the *whole* text when a group of the facts taken
fails its check: the bulk path may decline a valid text, never accept
one the parser rejects, so a malformed text gets the parser's error for
its first bad statement, positions counted from the start of the text.
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
# A facts text is ``(ws fact)* ws`` with ``fact := pred ( const , ... ) .``.
# ``_FACT_RE`` matches a fact's *structure* only: the gaps, the predicate,
# one argument text, ``)`` and ``.``.  ``_GAP`` is what the tokenizer drops
# between two tokens; a comment must run to its line end, so backtracking
# can never cut one short and resurrect the text behind the ``%``.  An
# argument text runs to the first ``)`` outside a string or a comment and
# is captured unchecked: its grammar is checked once per predicate group,
# on the group's joined text, by ``_rows_of``.  The groups are the whole
# fact (``split`` reports no offsets; the lengths of these add up to one),
# its predicate and its argument text.  A run of blanks, of name
# characters or of plain argument text can end in one place only, so its
# quantifier is possessive (``*+``, Python 3.11): a failed match does not
# retry it shorter.
_GAP = rf"\s*+(?:{_COMMENT}(?:\n|\Z)\s*+)*+"
_PLAIN = r"[^\"'%()]*+"
_FACT_RE = re.compile(
    rf"({_GAP}([a-z_][A-Za-z0-9_]*+){_GAP}\("
    rf"({_PLAIN}(?:(?:{_STRING}|{_COMMENT}\n){_PLAIN})*+)"
    rf"\){_GAP}\.)"
)
#: The lowercase ``_IDENT`` that is a constant, not a variable.
_SYMBOL = r"[a-z][A-Za-z0-9_]*+"
_GROUND = rf"(?:{_NUMBER}|{_SYMBOL}|{_STRING})"
# The group checks below are patterns, not compiled: ``re`` compiles
# each on first use (and caches it), so a process that only ever reads
# integers does not pay for them at import.
#: A fact's argument text as the parser proper reads it; and a group's
#: argument texts joined by ``)(``, which can sit inside one of them only
#: within a string or a comment, where the grammar reads it whole.
_ARGUMENTS = rf"{_GAP}(?:{_GROUND}{_GAP}(?:,{_GAP}{_GROUND}{_GAP})*+)?+"
_ARGUMENT_LISTS = rf"{_ARGUMENTS}(?:\)\({_ARGUMENTS})*+"
#: A group's joined argument text, cells between commas: symbols only,
#: or numbers and symbols in any mix.
_SYMBOLS = rf"\s*+{_SYMBOL}\s*+(?:,\s*+{_SYMBOL}\s*+)*+"
_CELLS = rf"\s*+(?:{_NUMBER}|{_SYMBOL})\s*+(?:,\s*+(?:{_NUMBER}|{_SYMBOL})\s*+)*+"
#: Splits an argument text ``_ARGUMENT_LISTS`` has accepted; comments come
#: out as tokens too (a ``%`` inside a string never starts one).
_ARGUMENT_RE = re.compile(rf"{_NUMBER}|{_IDENT}|{_STRING}|{_COMMENT}")


class _Values(dict):
    """Argument text -> the value it denotes, converted on first sight.

    An integer is also kept keyed by itself, so that the integers of
    every group, converted here or by ``int`` in bulk, are one object
    per value (a symbol's text is its value already).
    """

    def __missing__(self, text: str) -> object:
        if text[0] in "\"'":
            value: object = text[1:-1]
        elif text[0].isalpha():
            value = text
        elif "." in text:
            value = float(text)
        else:
            number = int(text)
            value = self.setdefault(number, number)
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


def _rows_of(group: list[str], values: _Values) -> list[tuple] | None:
    """The rows of one predicate's argument texts, or ``None`` where the
    bulk path turns the group down and leaves it to the parser proper.

    A group of one arity, with neither a string nor a comment, is checked
    and converted as one joined text of cells, its kind chosen by what the
    text holds: integers through ``int``, symbols as they stand, anything
    else (floats, mixed columns) through the ``values`` table.  A string
    or a comment may hold a comma, or the group is ragged or has facts of
    no argument: fact by fact.  Integers and symbols go through
    ``values`` too, keyed by themselves, so that a value read twice in
    one text is one object whichever group reads it: the fixpoint's dict
    and set probes compare by identity before they compare by value.
    """
    joined = ",".join(group)
    commas = set(map(str.count, group, repeat(",")))
    if (
        len(commas) == 1
        and not ('"' in joined or "'" in joined or "%" in joined)
        and (commas != {0} or all(map(str.strip, group)))
    ):
        arity = commas.pop() + 1
        cells = joined.split(",")
        if "+" not in joined and "_" not in joined:
            # Beyond the grammar's ``\s*-?\d+\s*``, ``int`` reads only a
            # ``+`` sign and ``_`` between digits: with neither in the
            # text, it refuses every cell that is not an integer.
            try:
                ints = list(map(int, cells))
            except ValueError:
                pass
            else:
                return list(zip(*[map(values.setdefault, ints, ints)] * arity))
        if re.fullmatch(_SYMBOLS, joined):
            column = map(values.setdefault, map(str.strip, cells), map(str.strip, cells))
        elif re.fullmatch(_CELLS, joined):
            column = map(values.__getitem__, map(str.strip, cells))
        else:
            return None
        return list(zip(*[column] * arity))
    if not re.fullmatch(_ARGUMENT_LISTS, ")(".join(group)):
        return None
    tokens = _ARGUMENT_RE.findall
    return [
        tuple(map(values.__getitem__, [t for t in tokens(text) if t[0] != "%"]))
        for text in group
    ]


def _scan_facts(source: str) -> FactRows | None:
    """:func:`parse_facts` in bulk, or ``None`` where a group of the facts
    it took fails its check."""
    # [gap, fact, predicate, arguments, gap, fact, ...]: the facts before
    # the first gap that holds anything are the ones a match loop would
    # have taken one after the other.
    parts = _FACT_RE.split(source)
    gaps = parts[::4]
    taken = next(compress(count(), gaps), len(gaps) - 1)
    end = sum(map(len, parts[1 : 4 * taken : 4]))
    order = parts[2 : 4 * taken : 4]
    texts: dict[str, list[str]] = defaultdict(list)
    for predicate, text in zip(order, parts[3 : 4 * taken : 4]):
        texts[predicate].append(text)
    del parts, gaps  # a copy of the text, not to be held while rows are cut

    values = _Values()
    groups: dict[str, list[tuple]] = {}
    for predicate, group in texts.items():
        rows = _rows_of(group, values)
        if rows is None:
            return None
        groups[predicate] = rows
    facts = FactRows(order, groups)
    rest = _parse_facts_from(source, end) if end < len(source) else []
    return FactRows.of(facts, rest) if rest else facts


def parse_facts(source: str) -> FactRows:
    """Parse ground facts (``p(a, 1).`` lines) into a :class:`FactRows`.

    The result reads as an immutable sequence of ground atoms in source
    order (``len``, indexing, iteration, ``==`` with a list of atoms),
    but holds value rows: an :class:`Atom` exists only once somebody
    asks for one, and ``Database(parse_facts(text))`` never does.

    One ``_FACT_RE.split`` cuts the text into facts; each predicate's
    argument texts are then checked, converted and cut into rows
    together.  The parser proper runs over what follows the last fact
    the split took (the trailing gap of a good text), and over the whole
    text where a group of those facts fails its check — so a malformed
    text gets the parser's error for its first bad statement, positions
    counted from the start of ``source``.
    """
    facts = _scan_facts(source)
    return FactRows.of(_parse_facts_from(source)) if facts is None else facts
