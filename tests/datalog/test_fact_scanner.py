"""The ground-fact scanner against the recursive-descent parser.

``parse_facts`` reads facts with one regex match each and hands
whatever the regex did not take to the parser proper.  The two must
accept the same texts, build the same atoms (value *types* included)
and — on malformed input — raise the parser's error with positions
absolute in the text.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.parser import ParseError, _parse_facts_from, _scan_facts, parse_facts

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


def test_scanner_takes_every_well_formed_fact():
    """The fallback only ever sees the trailing gap of a good text."""
    text = GOOD_1000 + "  % done\n"
    facts, end = _scan_facts(text)
    assert len(facts) == 1000
    assert text[end:] == "\n  % done\n"
    assert parse_facts(text) == facts


# -- generated fact text --------------------------------------------------

comments = st.text("abXY ,().%\"'_1", max_size=8).map(lambda body: f"%{body}\n")
gaps = st.lists(
    st.one_of(st.sampled_from([" ", "\t", "\n", "\r\n", "  "]), comments), max_size=2
).map("".join)
string_bodies = st.text("ab ,).%(X_1\n", max_size=6)
arguments = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0", "007", "1.5", "-2.25", "0.0", "10.00"]),
    st.sampled_from(["a", "b", "tok", "newYork", "x_1", "not", "a1B"]),
    string_bodies.map(lambda body: f'"{body}"'),
    string_bodies.map(lambda body: f"'{body}'"),
)
predicates = st.sampled_from(["e", "edge", "_p", "_", "long_pred2", "not", "pQ"])


@st.composite
def fact_texts(draw):
    """A well-formed fact, with a gap wherever the tokenizer allows one."""
    parts = [draw(predicates), "("]
    for index, argument in enumerate(draw(st.lists(arguments, max_size=4))):
        parts += ([","] if index else []) + [argument]
    parts += [")", "."]
    return "".join(draw(gaps) + part for part in parts)


#: Statements the scanner must leave to the parser (which rejects them).
malformed = st.sampled_from(
    ["e(a, X).", "E(a).", "e(a,,b).", "e(a) e(b).", "p(X) :- e(X).", ":- e(a).",
     "e(a; b).", 'e("a).', "e(1.).", "e(-a).", "e(a", "e a.", "e(a % ,b).", "."]
)


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
    assert _typed(parse_facts(text)) == _typed(expected)
    # The regex alone covers it: nothing but a gap is left to the parser.
    scanned, end = _scan_facts(text)
    assert _typed(scanned) == _typed(expected)
    assert _parse_facts_from(text, end) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(fact_texts(), malformed), max_size=6), gaps)
def test_scanner_agrees_with_parser_on_any_text(statements, tail):
    text = "".join(statements) + tail
    assert _outcome(parse_facts, text) == _outcome(_parse_facts_from, text)


@pytest.mark.parametrize("text", ["", " ", "\n", "% only a comment", "%\r\n\r\n"])
def test_empty_inputs(text):
    assert parse_facts(text) == []


def test_value_types_and_zero_arity():
    facts = parse_facts("p(). q(1, 1.0, -1, '1', \"1.0\", one).")
    assert _typed(facts) == [
        ("p", []),
        ("q", [(int, 1), (float, 1.0), (int, -1), (str, "1"), (str, "1.0"), (str, "one")]),
    ]
