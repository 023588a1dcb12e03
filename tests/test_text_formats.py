"""Property tests of both text formats and of cli.run on arbitrary input.

The round trips check format -> parse on generated facet sequences (with
component gaps) and graphs.  The byte fuzz feeds raw bytes, token soup
built from the formats' own vocabulary, and valid texts with one slice
replaced, to every graph-reading command: a
call must never raise, and it either succeeds or reports exactly one
"error <code> " line on stderr with a nonzero exit code.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals.cli import EXIT_MISMATCH, EXIT_OK, RunConfig, run
from edgeideals.closed import IntervalFacets, format_facet_text, parse_facet_text
from edgeideals.graphs import from_edge_list, parse_edge_list

from conftest import FILLER, LINE_BREAKS, SPACES, format_edge_list


@st.composite
def facet_sequences(draw, max_n=64):
    n = draw(st.integers(1, max_n))
    a, b = 1, draw(st.integers(1, n))
    facets = [(a, b)]
    while b < n:
        a = draw(st.integers(a + 1, b + 1))  # a = b + 1 starts a new component
        b = draw(st.integers(max(b + 1, a), n))
        facets.append((a, b))
    return IntervalFacets(n, tuple(facets))


@st.composite
def graphs(draw, max_n=64):
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    return from_edge_list(n, draw(st.lists(pairs, max_size=60)))


@given(facet_sequences())
@settings(max_examples=300, deadline=None)
def test_facet_text_round_trip(F):
    assert parse_facet_text(format_facet_text(F)) == F


@st.composite
def padded_facet_texts(draw):
    """A facet sequence and its text with comments, blank lines, mixed
    in-line whitespace and any line break str.splitlines honours."""
    F = draw(facet_sequences(12))
    rows = [["closed", str(F.n), str(F.r)]] + [[str(a), str(b)] for a, b in F.facets]
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(FILLER), max_size=2))
        pad = st.sampled_from(("",) + SPACES)
        lines.append(draw(pad) + draw(st.sampled_from(SPACES)).join(row) + draw(pad))
    lines += draw(st.lists(st.sampled_from(FILLER), max_size=2))
    breaks = st.sampled_from(LINE_BREAKS + ("\u2028",))
    return F, "".join(line + draw(breaks) for line in lines)


@given(padded_facet_texts())
@settings(max_examples=300, deadline=None)
def test_facet_text_skips_comments_blank_lines_and_any_line_break(case):
    F, text = case
    assert parse_facet_text(text) == parse_facet_text(format_facet_text(F)) == F


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_edge_list_round_trip(G):
    assert parse_edge_list(format_edge_list(G)) == G


TOKENS = ["closed", "#", "0", "1", "2", "3", "4", "7", "12", "-1", "65", "100000",
          "1.5", "x", "é", "\x00"]
SEPARATORS = [" ", "\t", "\n", "\r\n", "\n\n"]
token_soup = st.lists(
    st.tuples(st.sampled_from(TOKENS), st.sampled_from(SEPARATORS)), max_size=30
).map(lambda parts: "".join(t + s for t, s in parts).encode())



@st.composite
def spliced_texts(draw):
    text = draw(st.one_of(facet_sequences(12).map(format_facet_text),
                          graphs(12).map(format_edge_list)))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 4)))
    return (text[:i] + draw(st.sampled_from(TOKENS + SEPARATORS + [""])) + text[j:]).encode()


COMMANDS = ["recognize", "facets", "cutsets", "classify", "oracle", "verify"]


@given(st.sampled_from(COMMANDS), st.booleans(), st.one_of(st.binary(max_size=200), token_soup, spliced_texts()))
@settings(max_examples=600, deadline=None)
def test_arbitrary_bytes_never_raise(command, facet_text, data):
    # the variable cap keeps oracle and verify to n <= 4
    config = RunConfig(command, facet_text=facet_text and command == "facets", max_vars=8)
    code, out, err = run(config, data)
    if code == EXIT_OK:
        assert err == b""
    else:
        assert err.startswith(f"error {code} ".encode())
        assert err.count(b"\n") == 1 and err.endswith(b"\n")
        assert out == b"" or code == EXIT_MISMATCH
