import random
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edgeideals.graphs as graphs_mod
from edgeideals.errors import GraphInputError
from edgeideals.graphs import (
    Graph,
    bits,
    clique_degree,
    components,
    from_edge_list,
    mask_of,
    minimal_transversals,
    parse_edge_list,
    permute_masks,
    union_of,
    union_table,
    vertices_of,
)

from conftest import (
    FILLER,
    LINE_BREAKS,
    SPACES,
    all_graphs,
    complete_graph,
    components_ref,
    format_edge_list,
    has_edge,
    maximal_cliques,
    num_edges,
    parse_edge_list_ref,
    path_graph,
    permute_masks_ref,
    random_graphs,
)
from edgeideals.closed import build_graph
from edgeideals.enumerators import enumerate_closed_connected


def test_triangle_construction():
    G = from_edge_list(3, [(1, 2), (2, 3), (1, 3)])
    assert num_edges(G) == 3
    assert has_edge(G, 1, 3) and has_edge(G, 3, 1)


def test_dedup_and_validation():
    G = from_edge_list(3, [(1, 2), (2, 1), (1, 2)])
    assert num_edges(G) == 1
    with pytest.raises(GraphInputError):
        from_edge_list(3, [(1, 4)])
    with pytest.raises(GraphInputError):
        from_edge_list(3, [(2, 2)])
    with pytest.raises(GraphInputError):
        from_edge_list(0, [])


def test_graph_refuses_an_adjacency_of_the_wrong_length():
    with pytest.raises(GraphInputError, match=r"n \+ 1 = 4"):
        Graph(3, (0,))
    with pytest.raises(GraphInputError, match=r"n \+ 1 = 2"):
        Graph(1, (0, 0, 0))
    assert Graph(0, (0,)).edges() == ()
    assert Graph(2, (0, 0b10, 0b01)).edges() == ((1, 2),)


def test_graph_refuses_a_nonzero_unused_entry():
    # entry 0 stands for no vertex, so a bit there is a malformed adjacency
    with pytest.raises(GraphInputError, match="entry 0 is unused"):
        Graph(2, (0b1, 0b10, 0b01))


def test_graph_refuses_a_neighbour_above_n():
    # bit 2 is vertex 3 of a 2-vertex graph: edges() reported (1, 3) and
    # recognition indexed past the adjacency
    with pytest.raises(GraphInputError, match=r"neighbour outside 1\.\.2"):
        Graph(2, (0, 0b100, 0))
    with pytest.raises(GraphInputError, match=r"neighbour outside 1\.\.2"):
        Graph(2, (0, -1, 0b01))


def test_graph_refuses_a_loop():
    # a loop at 1 made vertex 1 its own neighbour, so it lay in no maximal
    # clique and clique_degree read 0
    with pytest.raises(GraphInputError, match="loop at vertex 1"):
        Graph(2, (0, 0b11, 0b01))


def test_graph_refuses_a_vertex_count_that_is_not_an_int():
    # a float count would pass the range check and fail later, in edges()
    # or in the adjacency list's length
    with pytest.raises(TypeError, match="vertex count must be an int, got 2.0"):
        Graph(2.0, (0, 2, 1))
    with pytest.raises(TypeError, match="vertex count must be an int, got 2.5"):
        from_edge_list(2.5, [])


def test_seven_vertex_example_edges(seven_graph):
    # union of the interval cliques [1,3],[2,5],[3,6],[5,7]
    assert num_edges(seven_graph) == 13
    assert has_edge(seven_graph, 2, 5) and not has_edge(seven_graph, 1, 4)


def test_empty_edge_set():
    G = from_edge_list(2, [])
    assert num_edges(G) == 0


def components_without(G, W):
    """Component masks of G minus W, by the table-based `components`."""
    within = G.full_mask & ~mask_of(W)
    return list(components(union_table(G.adj[1:]), within))


def test_connected_components_examples(seven_graph):
    assert components_without(complete_graph(3), ()) == [0b111]
    assert components_without(seven_graph, {3, 4, 5}) == [mask_of((1, 2)), mask_of((6, 7))]
    assert components_without(from_edge_list(4, []), ()) == [0b0001, 0b0010, 0b0100, 0b1000]
    assert components_without(Graph(0, (0,)), ()) == []


def _random_graph(n, rng, p):
    return from_edge_list(n, [(i, j) for i in range(1, n + 1)
                              for j in range(i + 1, n + 1) if rng.random() < p])


def test_components_form_partition():
    # the reference components, which the component tests compare with:
    # every graph with n <= 5, and sparse and dense graphs with n = 33 and
    # 64, under a few deletions each
    rng = random.Random(7)
    graphs = [G for n in range(1, 6) for G in all_graphs(n)]
    graphs += [_random_graph(n, rng, p) for n in (33, 64) for p in (0.02, 0.05, 0.3)]
    for G in graphs:
        deletions = [set(), {2} & set(range(1, G.n + 1)), {1, 3} & set(range(1, G.n + 1))]
        if G.n > 5:
            deletions.append(set(rng.sample(range(1, G.n + 1), G.n // 2)))
        for W in deletions:
            masks = [mask_of(part) for part in components_ref(G, W)]
            union = 0
            for m in masks:
                assert not union & m
                union |= m
            assert union == G.full_mask & ~mask_of(W)
            # no edges between parts
            for i, p in enumerate(masks):
                for q in masks[i + 1:]:
                    assert not any(G.adj[v] & q for v in vertices_of(p))


def test_clique_degree_examples(seven_graph):
    assert clique_degree(path_graph(3), 2) == 2
    assert clique_degree(complete_graph(4), 1) == 1
    assert clique_degree(seven_graph, 3) == 3  # lives in [1,3],[2,5],[3,6]


def test_clique_degree_matches_maximal_cliques_exhaustive():
    # every labeled graph with n <= 5, C4, C5 and K_{2,3} among them: the
    # transversal count on N(v) against brute-force maximal cliques of G
    graphs = [G for n in range(1, 6) for G in all_graphs(n)]
    assert len(graphs) == 1099
    for G in graphs:
        cliques = maximal_cliques(G)
        for v in range(1, G.n + 1):
            assert clique_degree(G, v) == sum(1 for c in cliques if v in c), (G.edges(), v)


def _minimal_transversals_ref(family):
    """Minimal hitting sets by brute force over the subsets of the union."""
    universe = union_of(family)
    hits = [t for t in range(universe + 1) if t & ~universe == 0 and all(t & s for s in family)]
    return sorted(t for t in hits if not any(t & ~(1 << b) in hits for b in bits(t)))


@settings(max_examples=300, deadline=None)
@example([])              # the empty family: one transversal, 0
@example([0])             # holds the empty set: none
@example([0b101, 0])
@example([0b11, 0b11, 0b110])   # a duplicate
@example([0b111, 0b10, 0b1110])  # nested sets
@example([0b11, 0b1100, 0b110000])
@given(st.lists(st.integers(0, 63), max_size=7))
def test_minimal_transversals_match_brute_force(family):
    # sorted lists, so a repeated transversal would show too
    assert sorted(minimal_transversals(family)) == _minimal_transversals_ref(family)


def test_maximal_cliques_match_facets():
    # brute-force clique enumeration agrees with the facet intervals
    for F in enumerate_closed_connected(6):
        G = build_graph(F)
        cliques = set(maximal_cliques(G))
        intervals = {tuple(range(a, b + 1)) for a, b in F.facets}
        assert cliques == intervals
        for v in range(1, 7):
            assert clique_degree(G, v) == sum(1 for a, b in F.facets if a <= v <= b)


def test_edge_list_roundtrip(seven_graph):
    text = format_edge_list(seven_graph)
    G = parse_edge_list(text)
    assert G.adj == seven_graph.adj

    parsed = parse_edge_list("# comment\n3\n1 2\n\n2 3\n")
    assert parsed.edges() == ((1, 2), (2, 3))
    with pytest.raises(GraphInputError):
        parse_edge_list("")
    with pytest.raises(GraphInputError):
        parse_edge_list("3\n1 2 3\n")


def test_component_refinement_under_larger_deletions():
    # enlarging W only splits or removes components, never merges them
    for F in enumerate_closed_connected(5):
        G = build_graph(F)
        small = components_without(G, {2})
        large = components_without(G, {2, 4})
        assert [vertices_of(m) for m in large] == list(components_ref(G, {2, 4}))
        for part in large:
            assert any(part & p == part for p in small)


def test_edge_list_error_messages():
    cases = {
        "3\n1 x\n": "line 2: expected integers, got '1 x'",
        "# head\n\n 3 \n\t1  2 y  \n": "line 4: expected integers, got '1  2 y'",
        "x\n": "line 1: expected integers, got 'x'",
        "3\n1 #2\n": "line 2: expected integers, got '1 #2'",
        "3 4\n": "line 1: expected a single vertex count",
        "  #3\n3\n1 2\n2 3 1\n": "line 4: expected 'u v'",
        "3\n1\n": "line 2: expected 'u v'",
        "": "empty edge-list input",
        "# only\n\n \t\n": "empty edge-list input",
        # syntax errors by line come first, then n, then the first bad edge
        "3\n1 4\n1 x\n": "line 3: expected integers, got '1 x'",
        "65\n1 2 3\n": "line 2: expected 'u v'",
        "0\n1 x\n": "line 2: expected integers, got '1 x'",
        "3\n2 2\n": "loop at vertex 2",
        "3\n2 2\n1 4\n": "loop at vertex 2",
        "3\n1 4\n2 2\n": "edge {1,4} has an endpoint outside 1..3",
        "3\n0 1\n": "edge {0,1} has an endpoint outside 1..3",
        "0\n": "vertex count 0 outside 1..64",
        "65\n1 2\n": "vertex count 65 outside 1..64",
        "3\n1\x0b2\n": "line 2: expected 'u v'",  # VT breaks the line
    }
    for text, message in cases.items():
        with pytest.raises(GraphInputError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message, text
    # comment marker on the first token only, whitespace of any kind
    G = parse_edge_list("#x\n 3\r\n\t# 1 3\n1\t2 \n")
    assert G.n == 3 and G.edges() == ((1, 2),)



JUNK = ("x", "#2", "1.5", "-1", "0", "65", "+3", "\u0663", "1_0", "0x1", "")


@st.composite
def edge_list_texts(draw):
    """Edge-list text with comments, blank lines and mixed whitespace; with
    `broken`, some rows get a junk token, lose or gain a field, or a loop."""
    n = draw(st.integers(1, 64))
    edges = [e for e in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                                      max_size=40)) if e[0] != e[1]]
    if edges:  # duplicates, some of them reversed
        edges += [(v, u) if flip else (u, v) for (u, v), flip in
                  draw(st.lists(st.tuples(st.sampled_from(edges), st.booleans()), max_size=8))]
    rows = [[str(n)]] + [[str(u), str(v)] for u, v in edges]
    if draw(st.booleans()):  # broken
        for _ in range(draw(st.integers(1, 3))):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            kind = draw(st.sampled_from(("junk", "drop", "add", "loop") if row else ("add",)))
            if kind == "junk":
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(JUNK))
            elif kind == "drop":
                row.pop()
            elif kind == "add":
                row.append(str(draw(st.integers(-1, 66))))
            else:
                rows.append([row[0], row[0]])
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(FILLER), max_size=2))
        pad = st.sampled_from(("",) + SPACES)
        lines.append(draw(pad) + draw(st.sampled_from(SPACES)).join(row) + draw(pad))
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + br for line, br in zip(lines, breaks))[: None if draw(st.booleans()) else -1]


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except GraphInputError as exc:
        return str(exc)


K64_TEXT = "64\n" + "".join(f"{u} {v}\n" for u in range(1, 65) for v in range(u + 1, 65))


@given(edge_list_texts())
@example("3\r\n1\xa02\x0b\n# c\x852\u20033\r\n2 1\n")
# the edges of the one-split path for canonical text: a header alone, with
# and without its line break; no final line break; a trailing blank line;
# CR LF; an in-line separator that is whitespace but no line break; tokens
# int() reads but the lookup does not; the ";" that stands for a line
# break; a header out of range; the largest input
@example("3")
@example("3\n")
@example("3\n1 2")
@example("3\n1 2\n\n")
@example("3\r\n1 2\r\n")
@example("3\n1\x1f2\n")
@example("3\n007 2\n")
@example("3\n1 2 ;\n")
@example("65\n1 2\n")
@example(K64_TEXT)
@example("2\n\u0661 \u0662\n")  # int() reads any Unicode decimal digits
@example("9" * 5000 + "\n")  # past int()'s digit limit
@settings(max_examples=400, deadline=None)
def test_parse_edge_list_matches_line_scan(text):
    # valid text gives the same graph, invalid text the same message
    got = _parse_outcome(parse_edge_list, text)
    assert got == _parse_outcome(parse_edge_list_ref, text)
    assert isinstance(got, (Graph, str))

@given(st.integers(1, 64), st.randoms(use_true_random=False))
@example(64, random.Random(0))
@example(5, random.Random(1))
@example(7, random.Random(2))
@settings(max_examples=300, deadline=None)
def test_permute_masks_matches_bitwise_reference(n, rng):
    # injective targets anywhere in one word
    target = [None] + rng.sample(range(64), n)
    masks = [rng.getrandbits(n) for _ in range(8)] + [0, (1 << n) - 1]
    assert permute_masks(masks, target) == permute_masks_ref(masks, target)
    # many-to-one targets: bits sent to the same place merge
    target = [None] + [rng.randrange(max(1, n // 3)) for _ in range(n)]
    assert permute_masks(masks, target) == permute_masks_ref(masks, target)


def test_permute_masks_full_word_and_ragged_tail():
    for n in (1, 2, 3, 4, 5, 6, 7, 9, 63, 64):
        full = (1 << n) - 1
        reverse = [None] + [n - v for v in range(1, n + 1)]
        assert permute_masks([full, 1, 1 << (n - 1)], reverse) == [full, 1 << (n - 1), 1]
        shift = [None] + [64 - n + v - 1 for v in range(1, n + 1)]  # to the top of the word
        assert permute_masks([full], shift) == [full << (64 - n)]


def neighbourhood_ref(G, m):
    out = 0
    for b in bits(m):
        out |= G.adj[b + 1]
    return out


def test_union_table_matches_reference():
    # every graph with n <= 4, and a G(15, 0.3) whose top blocks are filled
    # in several slices
    rng = random.Random(15)
    graphs = [G for n in range(1, 5) for G in all_graphs(n)]
    graphs.append(_random_graph(15, rng, 0.3))
    for G in graphs:
        nb = union_table(G.adj[1:])
        assert nb.typecode == "I" and len(nb) == 1 << G.n
        for m in range(1 << G.n):
            assert nb[m] == neighbourhood_ref(G, m), (G.edges(), m)
    assert union_table([]) == array("I", [0])


class Allocated(Exception):
    pass


def test_union_table_refuses_before_allocating(monkeypatch):
    # a mask at or above bit len(masks), or more masks than a 32-bit word
    # has bits, would make the fill carry into the next entry
    def refuse(*args):
        raise Allocated

    monkeypatch.setattr(graphs_mod, "array", refuse)
    for masks in ([0] * 33, [0b100, 0b001], [1 << 32] + [0] * 31, [-1]):
        with pytest.raises(ValueError):
            union_table(masks)
    with pytest.raises(Allocated):  # 32 masks within bits 0..31 pass the guard
        union_table([1 << 31] + [0] * 31)


# a graph and a vertex mask inside it
graphs_and_masks = random_graphs().flatmap(
    lambda G: st.tuples(st.just(G), st.integers(0, G.full_mask)))


@settings(max_examples=200, deadline=None)
@example((path_graph(5), 0))
@example((path_graph(5), 0b11011))
@example((from_edge_list(6, []), 0b101101))  # isolated vertices only
@example((from_edge_list(7, [(1, 2), (2, 3), (5, 6)]), 0b1111111))
@given(graphs_and_masks)
def test_components_match_reference(case):
    G, within = case
    got = tuple(vertices_of(cc) for cc in components(union_table(G.adj[1:]), within))
    removed = [v for v in range(1, G.n + 1) if not within >> (v - 1) & 1]
    assert got == components_ref(G, removed)
