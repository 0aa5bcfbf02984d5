"""Property test of the document grammar.

Documents are built from header, edge, comment and stray-character lines:
mostly well-formed, so that many parse, with malformed pieces mixed in;
a third family keeps the layout of the fixtures and of every generator,
with a fault in a few edge lines.
Whatever the document, `parse_document` either returns a source or raises
one of the two errors the CLI maps to an exit code (2 and 3), and it
returns the same source, or the same error and message, as the line
parser kept in `tests/reference_parse.py`.
"""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skbounds.cli
from skbounds import CapExceededError, InputFormatError, WeightedHypergraph
from skbounds.cli import parse_document
from skbounds.hypergraph import vertices_of
from skbounds.rational import format_rational

from conftest import FIXTURE_DIR, clustered_source, cycle_plus_edges, random_hypergraph
from reference_parse import reference_parse

LONG_ZEROS = "0" * 5000

# Space and tab are the grammar's whitespace; the others must be rejected.
blanks = st.one_of(
    st.just(" "),
    st.just(" "),
    st.text(alphabet=" \t", min_size=1, max_size=2),
    st.sampled_from(("", "\x0b", "\x0c", "\xa0", "\u3000")),
)
# Decimal tokens, some zero-padded, some out of any terminal's range.
numbers = st.builds(
    lambda zeros, n: "0" * zeros + str(n),
    st.sampled_from((0, 0, 0, 1, 30)),
    st.one_of(st.integers(1, 6), st.integers(0, 25)),
)
weights = st.one_of(
    numbers,
    st.builds("{}/{}".format, numbers, numbers),
    st.builds("{}.{}".format, numbers, numbers),
    st.builds("-{}".format, numbers),
    st.text(alphabet="0123456789./-+e\u0663", min_size=1, max_size=8),
)
comments = st.builds("#{}".format, st.text(max_size=10))
strays = st.text(alphabet="m=edg:#\r \ufeff\x00 1\u0664", max_size=8)


def header(count, pad):
    return st.builds("m{}={}{}{}".format, pad, pad, count, pad)


def edge(vertex, pad):
    return st.builds(
        lambda vs, sep, w, end: "edge" + "".join(sep + v for v in vs) + end + ":" + end + w,
        st.lists(vertex, max_size=4),
        pad,
        weights,
        pad,
    )


digits = st.integers(1, 9).map(str)
good_weights = st.one_of(
    digits, st.builds("{}/{}".format, digits, digits), st.builds("{}.{}".format, digits, digits)
)


@st.composite
def documents(draw):
    m = draw(st.integers(2, 6))
    good_edge = st.builds(
        lambda vs, w: "edge " + " ".join(map(str, vs)) + " : " + w,
        st.lists(st.integers(1, m), min_size=1, max_size=3, unique=True),
        good_weights,
    )
    lines = [draw(st.one_of(header(st.just(str(m)), st.just(" ")), header(numbers, blanks)))]
    noise = st.one_of(comments, strays, edge(numbers, blanks), header(numbers, blanks))
    lines += draw(st.lists(st.one_of(good_edge, good_edge, good_edge, noise), max_size=5))
    return draw(st.sampled_from(("\n", "\n", "\r\n", "\r"))).join(lines)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(documents())
@example(f"m = {LONG_ZEROS}2\nedge 1 2 : 1\n")
@example(f"m = 1{LONG_ZEROS}\nedge 1 2 : 1\n")
@example(f"m = 3\nedge {LONG_ZEROS}1 2 : 1\n")
@example(f"m = 3\nedge 1{LONG_ZEROS} 2 : 1\n")
@example(f"m = 3\nedge 1 2 : 1{LONG_ZEROS}\n")
def test_parse_returns_a_source_or_a_documented_error(text):
    try:
        hg = parse_document(text)
    except (InputFormatError, CapExceededError):
        return
    assert isinstance(hg, WeightedHypergraph)


# Mutations of one edge line, each a fault the reference parser names or a
# form it accepts: a repeated vertex (also "1" against "01"), a vertex out
# of range, a token of 5 or more digits, a zero, negative or huge weight, a
# trailing comment, and the line twice (its weights merge).
MUTATIONS = ("none", "none", "repeat", "range", "long", "weight", "comment", "twice")
odd_weights = st.sampled_from(
    ("0", "0/3", "0.0", "-1", "-2/3", "+4", "007", "9" * 40, "1" + "0" * 4400, "3/0", "1e3")
)


@st.composite
def mutated_documents(draw):
    m = draw(st.integers(2, 8))
    lines = [draw(st.sampled_from((f"m = {m}", f"m={m}", f"m =\t0{m}")))]
    for _ in range(draw(st.integers(1, 6))):
        tokens = [str(v) for v in draw(st.lists(st.integers(1, m), min_size=1, max_size=4, unique=True))]
        weight = draw(good_weights)
        mutation = draw(st.sampled_from(MUTATIONS))
        if mutation == "repeat":
            tokens.append(draw(st.sampled_from(("", "0", "00"))) + draw(st.sampled_from(tokens)))
        elif mutation == "range":
            tokens[draw(st.integers(0, len(tokens) - 1))] = str(draw(st.sampled_from((0, m + 1, 21, 99))))
        elif mutation == "long":
            tokens[-1] = draw(st.sampled_from(("0000", "00000", "12345"))) + tokens[-1]
        elif mutation == "weight":
            weight = draw(odd_weights)
        line = "edge " + " ".join(draw(st.permutations(tokens))) + " : " + weight
        if mutation == "comment":
            line += " # " + draw(st.text(alphabet="ab 1:#", max_size=6))
        lines += [line, line] if mutation == "twice" else [line]
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines) + draw(st.sampled_from(("", "\n")))


def _outcome(parse, text):
    """The source `parse` returns, or the type and message of the documented error it raises."""
    try:
        return parse(text)
    except (InputFormatError, CapExceededError) as exc:
        return type(exc), str(exc)


@st.composite
def canonical_documents(draw):
    """Documents in the fixtures' layout, LF-ended, some with one edge line off it."""
    m = draw(st.sampled_from((*range(2, 10), *range(2, 10), 1, 20, 21)))
    comment = st.one_of(st.just(""), comments)
    literal = st.one_of(
        st.integers(1, 99).map(str), st.builds("{}/{}".format, st.integers(1, 99), st.integers(1, 99))
    )
    lines = draw(st.lists(comment, max_size=2)) + [f"m = {m}"]
    for _ in range(draw(st.integers(0, 5))):
        vertices = draw(st.lists(st.integers(1, m), min_size=1, max_size=4, unique=True))
        weight = draw(literal)
        fault = draw(st.sampled_from(("none",) * 12 + ("above", "repeat", "weight")))
        if fault == "above":
            vertices.append(m + 1)
        elif fault == "repeat":
            vertices.append(vertices[0])
        elif fault == "weight":
            weight = draw(st.sampled_from(("0", "+3", "1.5", "3/0", "02")))
        lines.append(f"edge {' '.join(map(str, vertices))} : {weight}")
        lines += draw(st.lists(comment, max_size=1))
    return "\n".join(lines) + "\n"


# Documents one step off the fixtures' layout: a zero-padded vertex, a
# signed, zero-denominator, zero and decimal weight, a tab, CRLF, a trailing
# comment, no final newline, a vertex above m, m above the cap, a repeated
# vertex, a header with no edge line, a 4,301-digit literal, an edge line
# before the header and a second header.
OFF_LAYOUT = (
    "m = 3\nedge 01 2 : 1\n",
    "m = 3\nedge 1 2 : +3\n",
    "m = 3\nedge 1 2 : 3/0\n",
    "m = 3\nedge 1 2 : 0\n",
    "m = 3\nedge 1 2 : 1.5\n",
    "m = 3\nedge 1\t2 : 1\n",
    "m = 3\r\nedge 1 2 : 1\r\n",
    "m = 3\nedge 1 2 : 1 # c\n",
    "m = 3\nedge 1 2 : 1\nedge 2 3 : 1",
    "m = 3\nedge 1 4 : 1\n",
    "m = 21\nedge 1 2 : 1\n",
    "m = 3\nedge 1 2 1 : 1\n",
    "m = 3\n",
    f"m = 3\nedge 1 2 : {'7' * 4301}\n",
    "edge 1 2 : 1\nm = 3\n",
    "m = 3\nedge 1 2 : 1\nm = 3\n",
)
# The corners of the line pattern: a CR not right before the LF belongs to
# the literal, and spoils a header or a blank line but not a comment; a CR
# right before the LF is no literal; a vertical tab is no blank; a comment
# right after the literal; a tab-separated edge line after a padded header;
# and a zero-padded header and vertex.
CORNERS = (
    "m = 3\nedge 1 2 : 1\r\r\n",
    "m = 3\nedge 1 2 : 1\r#c\n",
    "m = 3\nedge 1 2 : 1\r \n",
    "m = 3\nedge 1 2 : 1\rx\n",
    "m = 3\nedge 1 2 : \r\n",
    "m = 3\r\r\nedge 1 2 : 1\n",
    "m = 3\nedge 1 2 : 1\nm = 3\r\r\n",
    "m = 3\n  \r\r\nedge 1 2 : 1\n",
    "m = 3\n#c\r\r\nedge 1 2 : 1\n",
    "m = 3\n\x0b\nedge 1 2 : 1\n",
    "m = 3\nedge 1 2 :1#x",
    "\tm=3 #h\r\nedge\t1\t2\t:\t1\n",
    "m = 03\nedge 001 2 : 1\n",
)


def _examples(texts):
    def add(test):
        for text in texts:
            test = example(text)(test)
        return test

    return add


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.one_of(documents(), mutated_documents(), canonical_documents()))
@_examples(OFF_LAYOUT + CORNERS)
@example("m = 3\nedge 1 01 : 1\n")
@example("m = 3\nedge 00001 2 : 1\nedge 2 1 : 1/2\n")
@example("m = 3\r\nedge 1 2 : 1 # c\r\nedge 2 1 : 2\r\n")
@example(f"m = 3\nedge 1 2 : 1{LONG_ZEROS}\n")
def test_parse_matches_the_reference_line_parser(text):
    # The mask built while reading the tokens gives the same source, and
    # every fault the same error and message, as the token-by-token checks.
    assert _outcome(parse_document, text) == _outcome(reference_parse, text)


def _render(hg: WeightedHypergraph) -> str:
    """The document perfbench's generators write: the header, then one edge line per mask in order."""
    lines = [f"m = {hg.m}"]
    for e in sorted(hg.weights):
        lines.append(f"edge {' '.join(map(str, vertices_of(e)))} : {format_rational(hg.weights[e])}")
    return "\n".join(lines) + "\n"


def test_every_fixture_and_generated_document_takes_the_regex_pass(monkeypatch):
    # Each document parses to the reference's source, and `parse_rational`
    # runs once per edge line, so a traced run still sees one
    # `rational.parse` span per literal.
    literals, parse = [], skbounds.cli.parse_rational

    def counting(literal):
        literals.append(literal)
        return parse(literal)

    monkeypatch.setattr(skbounds.cli, "parse_rational", counting)  # the reference has its own
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURE_DIR.glob("*.hg"))]
    rng = random.Random("regex-pass")
    texts += [_render(make(rng, m)) for make in (cycle_plus_edges, random_hypergraph) for m in range(4, 11)]
    texts.append(_render(clustered_source(rng, 12)))
    for text in texts:
        literals.clear()
        assert parse_document(text) == reference_parse(text)
        assert len(literals) == sum(line.startswith("edge ") for line in text.splitlines())


# Each line fails after a scan in linear time: 200,000 vertex tokens and
# no colon, a literal of 200,000 "1\r" pairs, and 600,000 blanks before an
# x, at the start of a line and after a vertex.
@pytest.mark.parametrize(
    "text, message",
    [
        ("m = 3\nedge" + " 1" * 200_000 + "\n", "unrecognized line"),
        ("m = 3\nedge 1 2 : " + "1\r" * 200_000 + "\n", "not a rational literal"),
        ("m = 3\n" + " " * 600_000 + "x\n", "unrecognized line: 'x'"),
        ("m = 3\nedge 1" + " " * 600_000 + "x\n", "unrecognized line: 'edge 1 "),
    ],
    ids=["tokens", "cr-pairs", "blanks", "blanks-in-edge"],
)
def test_a_long_line_fails_fast(text, message):
    start = time.perf_counter()
    with pytest.raises(InputFormatError, match=f"^line 2: {message}"):
        parse_document(text)
    assert time.perf_counter() - start < 1.0
