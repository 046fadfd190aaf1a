"""The ground-fact scanner against the recursive-descent parser.

``parse_facts`` cuts a text into facts with one ``_FACT_RE.split``,
checks and converts each predicate's joined argument texts by column
kind (integers, symbols, any other mix, fact by fact where a string or
a comment may hold a comma) and hands what follows the last fact it
took — or, where a group fails its check, the whole text — to the
parser proper.
The two must accept the same texts, denote the same atoms
(value *types* included, source order kept) and — on malformed input —
raise the parser's error with positions absolute in the text.  What
comes back holds rows, not atoms: it must still read as the list of
atoms did, and load into a ``Database`` without building one.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datalog import parser
from repro.datalog.atoms import Atom
from repro.datalog.database import ArityMismatch, Database, FactRows
from repro.datalog.parser import ParseError, _parse_facts_from, parse_facts
from repro.datalog.terms import Constant

GOOD_1000 = "".join(f"e({i}, {i + 1}).\n" for i in range(1000))
GOOD_500 = "".join(f"e({i}, {i + 1}).\n" for i in range(500))

#: Malformed facts texts and the message the pre-scanner ``parse_facts``
#: raised for each (recorded at commit 8ec76a5; the column-kind cases
#: from ``_parse_facts_from`` at commit 170ee48).
PINNED_ERRORS = {
    "e(a,,b).": "expected a term but found ',' at position 4",
    "e(a, b)\ne(b, c).": "expected ARROW but found 'e' at position 8",
    "e(a, b). e(b, c)": "expected ARROW but found '' at position 16",
    "e(a, b).\ne(a, X).": "fact e(a, X) is not ground",
    "e(_x).": "fact e(_x) is not ground",
    "e(a, b).\np(X) :- e(X, Y).": "expected a ground fact but found p(X) :- e(X, Y).",
    "e(a, b).\n:- e(X, X).": "expected a ground fact but found __false__() :- e(X, X).",
    "e(a, b). Edge(a, b).": "predicate names must be lowercase: 'Edge' at position 9",
    "e(a, b).\ne(a; b).": "unexpected character ';' at position 12",
    # The tokenizer sees the whole remainder before the parser sees any of it.
    "e(a,,b). $": "unexpected character '$' at position 9",
    'e(a, b). e("abc, d).': "unexpected character '\"' at position 11",
    # A comment runs to the end of its line, whatever follows the ``%``.
    "e(a % x ,b).\n": "expected RPAREN but found '' at position 13",
    "e(a, b). e(a,": "expected a term but found '' at position 13",
    "e(1a).": "expected RPAREN but found 'a' at position 3",
    "e(1.).": "expected RPAREN but found '.' at position 3",
    "e(a)..": "expected IDENT but found '.' at position 5",
    GOOD_1000 + "e(1000, ).\n": "expected a term but found ')' at position 12791",
    GOOD_1000 + "e(1000, Next).\n": "fact e(1000, Next) is not ground",
    # Cells ``int`` would read but the grammar does not, or neither does.
    "e(1, 2). e(+1, 3).": "unexpected character '+' at position 11",
    "e(1, 2). e(1_0, 3).": "expected RPAREN but found '_0' at position 12",
    "e(1, 2). e(--1, 3).": "unexpected character '-' at position 11",
    "e(1, 2). e(1, ). e(3": "expected a term but found ')' at position 14",
    "e(a, b). e(c, é).": "unexpected character 'é' at position 14",
    "f(a, b). f(b,  c\x1c).\x1c f(C, d).": "fact f(C, d) is not ground",
    "e(1.5). e(1.). e(2.5).": "expected RPAREN but found '.' at position 11",
    "e(1, 2). e(1, 2) e(3, 4).": "expected ARROW but found 'e' at position 17",
    # A comment inside an argument list runs to its line end, ``)`` or not.
    "e(a % ends its line\n, b). e(c % does not, d).": "expected RPAREN but found '' at position 45",
    # A bad argument inside the bulk-scanned prefix, then a malformed tail:
    # the first error in the text wins, as the tokenizer and parser see it.
    "e(1, 2). e(1 2). e(3, 4). e(5,": "expected RPAREN but found '2' at position 13",
    "e(1, 2). e(1 2). e(3, 4). $": "unexpected character '$' at position 26",
    "e(a, b). e(c d, e). f(": "expected RPAREN but found 'd' at position 13",
    "e(1.5, a). e(2.5, 1a). e(": "expected RPAREN but found 'a' at position 19",
    'e("a, (b) % c", 1). e("x", 1 2). e(': "expected RPAREN but found '2' at position 29",
    GOOD_500 + "e(500, 0x1).\n" + GOOD_500 + "e(1000,":
        "expected RPAREN but found 'x1' at position 6290",
    GOOD_1000 + "e(1000, 1001 1002).\ne(": "expected RPAREN but found '1002' at position 12796",
}


@pytest.mark.parametrize(
    "text, message", PINNED_ERRORS.items(), ids=[m for m in PINNED_ERRORS.values()]
)
def test_malformed_facts_keep_their_messages(text, message):
    with pytest.raises(ParseError) as caught:
        parse_facts(text)
    assert str(caught.value) == message
    with pytest.raises(ParseError) as reference:
        _parse_facts_from(text)
    assert str(reference.value) == message


def _fallback_offsets(text):
    """``parse_facts(text)`` and the offsets it handed the parser proper."""
    with mock.patch.object(
        parser, "_parse_facts_from", wraps=parser._parse_facts_from
    ) as fallback:
        facts = parse_facts(text)
    return facts, [(call.args[1:] or (0,))[0] for call in fallback.call_args_list]


def _converted(text):
    """The cells ``parse_facts(text)`` put through its text -> value table."""
    with mock.patch.object(
        parser._Values, "__missing__", autospec=True, side_effect=parser._Values.__missing__
    ) as missing:
        parse_facts(text)
    return [call.args[1] for call in missing.call_args_list]


#: 1 000 well-formed facts of each constant kind, and whether its cells go
#: through the text -> value table (integers and symbols need none).
GOOD_KINDS = {
    "integer": (GOOD_1000, False),
    "signed integer": ("".join(f"e({-i}, 0{i}, ٣{i}).\n" for i in range(1000)), False),
    "symbolic": ("".join(f"e(n{i}, m_{i % 7}).\n" for i in range(1000)), False),
    "float": ("".join(f"e({i}.5, -0.{i}).\n" for i in range(1000)), True),
    "mixed": ("".join(f"e(n{i}, {i}, {i}.25).\n" for i in range(1000)), True),
    "quoted string": ("".join(f"e({i}, \"n, ({i}) %\", 'q').\n" for i in range(1000)), True),
    "comment-bearing": (
        "".join(f"e({i}, % the {i}th, (of 1000)\n x).\n" for i in range(1000)), True
    ),
}


#: Good texts whose trailing comment holds something shaped like a fact,
#: which the split finds inside the comment; and where the fallback starts.
FACT_IN_COMMENT = {
    "e(1).%_().\n": 5,
    GOOD_1000 + "% e(1000, 1001).\n": len(GOOD_1000) - 1,
}


def test_scanner_takes_every_well_formed_fact():
    """The fallback only ever sees the trailing gap of a good text, whatever
    its column kinds: a check too strict for one would show here, not only
    as a slower parse."""
    for kind, (good, uses_table) in GOOD_KINDS.items():
        text = good + "  % done\n"
        facts, (end,) = _fallback_offsets(text)
        assert len(facts) == 1000, kind
        assert text[end:] == "\n  % done\n", kind
        assert _typed(facts) == _typed(_parse_facts_from(text)), kind
        # ... and nothing at all of a text that ends with its last fact.
        assert _fallback_offsets(good.rstrip()) == (facts, []), kind
        assert bool(_converted(good)) == uses_table, kind
    # A fact-shaped comment after the last fact costs no fact its bulk cut.
    for text, end in FACT_IN_COMMENT.items():
        facts, offsets = _fallback_offsets(text)
        assert offsets == [end] and text[end:].lstrip().startswith("%")
        assert _typed(facts) == _typed(_parse_facts_from(text))


def test_int_reads_no_cell_the_grammar_does_not():
    """The integer kind leans on ``int`` to refuse a bad cell: beside ASCII,
    every character ``int`` strips or reads as a digit must mean the same
    to both parsers (``int`` refuses ``\\x1c``-``\\x1f``, which ``\\s``
    matches: that group goes to the value table instead)."""
    chars = [chr(c) for c in range(0x110000) if chr(c).isspace() or chr(c).isdecimal()]
    for char in [chr(c) for c in range(128)] + chars:
        for text in (f"e(1{char}, {char}2). e(3, 4).", f"e({char}-{char}5{char})."):
            assert _outcome(parse_facts, text) == _outcome(_parse_facts_from, text), repr(char)


# -- generated fact text --------------------------------------------------

comments = st.text("abXY ,().%\"'_1", max_size=8).map(lambda body: f"%{body}\n")
#: U+2003, U+00A0 and U+001C are blanks (``\s``) to the tokenizer; ``int``
#: strips the first two, not the third.
whitespace = st.sampled_from([" ", "\t", "\n", "\r\n", "  ", "\u2003", "\xa0", "\x1c"])
blanks = st.lists(whitespace, max_size=2).map("".join)
gaps = st.lists(st.one_of(whitespace, comments), max_size=2).map("".join)
string_bodies = st.text("ab ,).%(X_1\n", max_size=6)
integers = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0", "007", "-007", "٣", "-٣٣", "0٣", "1٣"]),
)
symbols = st.sampled_from(["a", "b", "tok", "newYork", "x_1", "not", "a1B"])
floats = st.sampled_from(["1.5", "-2.25", "0.0", "10.00", "007.50", "٣.٣", "1.0"])
plain_arguments = st.one_of(integers, floats, symbols)
arguments = st.one_of(
    plain_arguments,
    string_bodies.map(lambda body: f'"{body}"'),
    string_bodies.map(lambda body: f"'{body}'"),
)
predicates = st.sampled_from(["e", "edge", "_p", "_", "long_pred2", "not", "pQ"])


@st.composite
def fact_texts(draw, predicate=predicates, arity=st.integers(0, 4), argument=arguments, gap=gaps):
    """A well-formed fact, with a gap wherever the tokenizer allows one.
    ``argument`` is one strategy, or a list of them, one per column."""
    parts = [draw(predicate), "("]
    for index in range(draw(arity)):
        column = argument[index] if isinstance(argument, list) else argument
        parts += ([","] if index else []) + [draw(column)]
    parts += [")", "."]
    return "".join(draw(gap) + part for part in parts)


#: A relation's columns hold one of these kinds throughout, one kind per
#: column, any mix of plain tokens, or strings and comments too.
column_kinds = {"ints": integers, "symbols": symbols, "floats": floats}


@st.composite
def relation_texts(draw):
    """Several facts of one predicate: mostly one arity and mostly plain
    tokens between blanks (what the bulk cut takes whole), now and then
    a ragged row, a string or a comment inside the argument list."""
    predicate = st.just(draw(predicates))
    arity = draw(st.integers(0, 3))
    kind = draw(st.sampled_from([*column_kinds, "columns", "plain", "any"]))
    if kind == "columns":
        argument = [column_kinds[draw(st.sampled_from(sorted(column_kinds)))]
                    for _ in range(arity)]
    else:
        argument = {**column_kinds, "plain": plain_arguments, "any": arguments}[kind]
    gap = gaps if kind == "any" else blanks
    facts = draw(st.lists(fact_texts(predicate, st.just(arity), argument, gap),
                          min_size=1, max_size=5))
    if draw(st.integers(0, 4)) == 0:
        facts.insert(
            draw(st.integers(0, len(facts))),
            draw(fact_texts(predicate, st.integers(0, 4), arguments, gaps)),
        )
    return facts


@st.composite
def edb_texts(draw):
    """The facts of a few relations, interleaved."""
    facts = [f for relation in draw(st.lists(relation_texts(), max_size=4)) for f in relation]
    return "".join(draw(st.permutations(facts)))


#: Statements the scanner must leave to the parser (which rejects them).
malformed = st.sampled_from(
    ["e(a, X).", "E(a).", "e(a,,b).", "e(a) e(b).", "p(X) :- e(X).", ":- e(a).",
     "e(a; b).", 'e("a).', "e(1.).", "e(-a).", "e(a", "e a.", "e(a % ,b).", "."]
)
#: Spliced into a good text at any offset; some of it leaves the text good.
garbage = st.sampled_from(
    ["X", "$", "(", ")", ".", ",", '"', "'", "%", " ", "\n", "1a", "e(", ":-", "e(a, X)."]
)


@st.composite
def spliced_texts(draw):
    text = draw(edb_texts())
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(garbage) + text[at:]


#: Arguments the grammar refuses, some of which ``int`` or ``float`` reads.
bad_arguments = st.sampled_from(
    ["+1", "1_0", "--1", "1 2", "1-", "-", "1.", ".5", "1e5", "0x1", "a b", "é", "X", "_x", ""]
)


@st.composite
def bad_prefix_texts(draw):
    """Good facts with one bad argument among them, then a malformed tail:
    the scanner takes the prefix in bulk, and must still report its error
    before the tail's."""
    relations = draw(st.lists(relation_texts(), min_size=1, max_size=3))
    bad = f"{draw(predicates)}({draw(bad_arguments)}, {draw(plain_arguments)})."
    flat = [fact for relation in relations for fact in relation]
    flat.insert(draw(st.integers(0, len(flat))), bad)
    return " ".join(flat) + " " + draw(st.one_of(malformed, garbage))


def _typed(atoms):
    return [(a.predicate, [(type(t.value), t.value) for t in a.args]) for a in atoms]


def _outcome(parse, text):
    try:
        return _typed(parse(text))
    except ParseError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(st.lists(fact_texts(), max_size=6), gaps, st.sampled_from(["", "\n", "% eof", "%"]))
@example(["e(1)."], "%_().\n", "")
def test_scanner_agrees_with_parser_on_well_formed_text(facts, gap, tail):
    text = "".join(facts) + gap + tail
    expected = _parse_facts_from(text)
    assert len(expected) == len(facts)
    scanned, offsets = _fallback_offsets(text)
    assert _typed(scanned) == _typed(expected)
    # The regex alone covers it: nothing but a gap is left to the parser.
    assert [_parse_facts_from(text, end) for end in offsets] == [[]] * len(offsets)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.lists(st.one_of(fact_texts(), malformed), max_size=6), gaps).map(
        lambda drawn: "".join(drawn[0]) + drawn[1]),
    edb_texts(),
    spliced_texts(),
    bad_prefix_texts(),
))
def test_scanner_agrees_with_parser_on_any_text(text):
    assert _outcome(parse_facts, text) == _outcome(_parse_facts_from, text)


def _loaded(facts, storage):
    """What ``Database(facts)`` holds, codes and all, or how it refused."""
    try:
        database = Database(facts, storage=storage)
    except ArityMismatch as error:
        return (error.expected, error.got, error.predicate)
    relations = {p: database.relation(p) for p in sorted(database.predicates())}
    if storage == "columnar":
        return database.interner.to_list(), [
            (p, r.arity, r.all_rows()) for p, r in relations.items()
        ]
    return [(p, r.arity, r.rows()) for p, r in relations.items()]


@settings(max_examples=200, deadline=None)
@given(edb_texts())
@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_rows_load_as_their_atoms_would(storage, text):
    facts = parse_facts(text)
    assert _loaded(facts, storage) == _loaded(list(facts), storage)


@pytest.mark.parametrize("text", ["", " ", "\n", "% only a comment", "%\r\n\r\n"])
def test_empty_inputs(text):
    assert parse_facts(text) == []


def test_value_types_and_zero_arity():
    facts = parse_facts("p(). q(1, 1.0, -1, '1', \"1.0\", one).")
    assert _typed(facts) == [
        ("p", []),
        ("q", [(int, 1), (float, 1.0), (int, -1), (str, "1"), (str, "1.0"), (str, "one")]),
    ]
    # ``1`` / ``1.0`` / ``"1"`` in groups of one kind, of one kind per
    # column, and of mixed columns.
    facts = parse_facts(
        "i(1, -07). i(٣, 2).  f(1.0, 2.5). f(0.0, ٣.5).  s(\"1\", 'a'). s('1.0', \"b\").  "
        "y(one, x_1). y(two, b).  c(a, 1, 1.0). c(b, 2, 2.0).  m(1, a). m(1.0, 1)."
    )
    assert _typed(facts) == [
        ("i", [(int, 1), (int, -7)]), ("i", [(int, 3), (int, 2)]),
        ("f", [(float, 1.0), (float, 2.5)]), ("f", [(float, 0.0), (float, 3.5)]),
        ("s", [(str, "1"), (str, "a")]), ("s", [(str, "1.0"), (str, "b")]),
        ("y", [(str, "one"), (str, "x_1")]), ("y", [(str, "two"), (str, "b")]),
        ("c", [(str, "a"), (int, 1), (float, 1.0)]), ("c", [(str, "b"), (int, 2), (float, 2.0)]),
        ("m", [(int, 1), (str, "a")]), ("m", [(float, 1.0), (int, 1)]),
    ]


def test_a_value_read_twice_is_one_object():
    """Whichever group reads it and however the group is converted: the
    fixpoint's dict and set probes compare by identity first."""
    rows = {
        predicate: rows[0]
        for predicate, rows in parse_facts(
            "i(1000, 7). y(tok). m(1000, tok, 2.5). n(2.5, 's'). s('s', 1000)."
        ).grouped().items()
    }
    assert rows["i"][0] is rows["m"][0] is rows["s"][1]
    assert rows["y"][0] is rows["m"][1]
    assert rows["m"][2] is rows["n"][0] and rows["n"][1] is rows["s"][0]


# -- rows in, no atoms ----------------------------------------------------


@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_loading_parsed_text_builds_no_atom(built, storage):
    database = Database(parse_facts(GOOD_1000), storage=storage)
    assert built == {Atom: [], Constant: []}
    assert database.size() == 1000 and database.contains("e", (999, 1000))


def test_reads_like_the_list_of_atoms_it_stands_for(built):
    text = "e(1, 2). f(a). e(2, 3).\n g(). f('b c')."
    facts = parse_facts(text)
    atoms = _parse_facts_from(text)
    for instances in built.values():
        instances.clear()

    assert isinstance(facts, FactRows) and len(facts) == 5
    assert built == {Atom: [], Constant: []}
    assert facts[2] == atoms[2] and facts[-1] == atoms[-1]
    # One atom per fact read, and only then.
    assert built[Atom] == [atoms[2], atoms[-1]] and len(built[Constant]) == 3
    assert facts[1:4] == atoms[1:4] and facts[::-2] == atoms[::-2]
    assert isinstance(facts[1:4], list)
    with pytest.raises(IndexError):
        facts[5]
    assert list(facts) == atoms and list(reversed(facts)) == atoms[::-1]
    assert facts == atoms and facts == tuple(atoms) and facts == parse_facts(text)
    assert atoms == facts and not facts != atoms
    assert facts != atoms[:-1] and facts != atoms[::-1] and facts != "e(1, 2)."
    assert atoms[3] in facts and Atom("e", (Constant(3), Constant(2))) not in facts
    assert facts.index(atoms[4]) == 4 and facts.count(atoms[0]) == 1
    assert repr(facts) == repr(atoms) and bool(facts) and not parse_facts("")
    for mutate in (lambda: facts.append(atoms[0]), lambda: facts.__setitem__(0, atoms[0])):
        with pytest.raises((AttributeError, TypeError)):
            mutate()
