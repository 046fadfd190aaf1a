"""The ground-fact scanner against the recursive-descent parser.

``parse_facts`` takes every leading well-formed fact with one
``_FACT_RE.split``, cuts each predicate's rows out of its joined
argument texts and hands whatever the regex did not take to the parser
proper.  The two must accept the same texts, denote the same atoms
(value *types* included, source order kept) and — on malformed input —
raise the parser's error with positions absolute in the text.  What
comes back holds rows, not atoms: it must still read as the list of
atoms did, and load into a ``Database`` without building one.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import parser
from repro.datalog.atoms import Atom
from repro.datalog.database import ArityMismatch, Database, FactRows
from repro.datalog.parser import ParseError, _parse_facts_from, parse_facts
from repro.datalog.terms import Constant

GOOD_1000 = "".join(f"e({i}, {i + 1}).\n" for i in range(1000))

#: Malformed facts texts and the message the pre-scanner ``parse_facts``
#: raised for each (recorded at commit 8ec76a5).
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
    return facts, [call.args[1] for call in fallback.call_args_list]


def test_scanner_takes_every_well_formed_fact():
    """The fallback only ever sees the trailing gap of a good text."""
    text = GOOD_1000 + "  % done\n"
    facts, (end,) = _fallback_offsets(text)
    assert len(facts) == 1000
    assert text[end:] == "\n  % done\n"
    assert facts == _parse_facts_from(text)
    # ... and nothing at all of a text that ends with its last fact.
    assert _fallback_offsets(GOOD_1000.rstrip()) == (facts, [])


# -- generated fact text --------------------------------------------------

comments = st.text("abXY ,().%\"'_1", max_size=8).map(lambda body: f"%{body}\n")
blanks = st.lists(st.sampled_from([" ", "\t", "\n", "\r\n", "  "]), max_size=2).map("".join)
gaps = st.lists(
    st.one_of(st.sampled_from([" ", "\t", "\n", "\r\n", "  "]), comments), max_size=2
).map("".join)
string_bodies = st.text("ab ,).%(X_1\n", max_size=6)
plain_arguments = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0", "007", "1.5", "-2.25", "0.0", "10.00"]),
    st.sampled_from(["a", "b", "tok", "newYork", "x_1", "not", "a1B"]),
)
arguments = st.one_of(
    plain_arguments,
    string_bodies.map(lambda body: f'"{body}"'),
    string_bodies.map(lambda body: f"'{body}'"),
)
predicates = st.sampled_from(["e", "edge", "_p", "_", "long_pred2", "not", "pQ"])


@st.composite
def fact_texts(draw, predicate=predicates, arity=st.integers(0, 4), argument=arguments, gap=gaps):
    """A well-formed fact, with a gap wherever the tokenizer allows one."""
    parts = [draw(predicate), "("]
    for index in range(draw(arity)):
        parts += ([","] if index else []) + [draw(argument)]
    parts += [")", "."]
    return "".join(draw(gap) + part for part in parts)


@st.composite
def relation_texts(draw):
    """Several facts of one predicate: mostly one arity and mostly plain
    tokens between blanks (what the bulk cut takes whole), now and then
    a ragged row, a string or a comment inside the argument list."""
    predicate = st.just(draw(predicates))
    arity = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["ints", "plain", "any"]))
    argument = {"ints": st.integers(-99, 99).map(str), "plain": plain_arguments,
                "any": arguments}[kind]
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


def _typed(atoms):
    return [(a.predicate, [(type(t.value), t.value) for t in a.args]) for a in atoms]


def _outcome(parse, text):
    try:
        return _typed(parse(text))
    except ParseError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(st.lists(fact_texts(), max_size=6), gaps, st.sampled_from(["", "\n", "% eof", "%"]))
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
