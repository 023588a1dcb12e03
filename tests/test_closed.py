import random
from itertools import groupby, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgeideals.closed import (
    Block,
    ClosedLabeling,
    IntervalFacets,
    _closed_order_facets,
    _lbfs,
    _third_sweep,
    _verify_roundtrip,
    build_graph,
    connected_cutsets,
    decompose_blocks,
    format_facet_text,
    interval_facets,
    is_indecomposable,
    parse_facet_text,
    recognize_closed,
)
from edgeideals.errors import GraphInputError, NotClosedError
from edgeideals.graphs import Graph, from_edge_list, permute_masks, twin_quotient
from edgeideals.enumerators import enumerate_closed_connected, random_closed

from conftest import (
    NINE_SCM,
    SEVEN_NOT_SCM,
    all_graphs,
    blocks_ref,
    brute_force_is_closed,
    build_graph_ref,
    claw,
    closed_order_facets_ref,
    complete_graph,
    components_ref,
    disconnected_facets,
    flatten_pieces,
    has_edge,
    interval_facets_ref,
    lbfs_ref,
    num_edges,
    path_graph,
    recognize_closed_ref,
    recognize_component_ref,
    relabel,
    reverse_facets,
)


def test_interval_facets_invariants():
    with pytest.raises(ValueError):
        IntervalFacets(3, ((1, 2),))  # does not end at n
    with pytest.raises(ValueError):
        IntervalFacets(4, ((1, 2), (2, 2)))  # b not strictly increasing
    with pytest.raises(ValueError):
        IntervalFacets(5, ((1, 2), (4, 5)))  # vertex 3 uncovered
    F = IntervalFacets(5, ((1, 2), (3, 5)))
    assert not F.is_connected
    assert [(b.start, b.facets.facets) for b in decompose_blocks(F)] == [(1, ((1, 2),)), (3, ((1, 3),))]


def test_interval_facets_refuse_what_is_not_an_int():
    # an endpoint is not rounded, a string is not parsed, and a float n is
    # refused here rather than later by build_graph
    for n, facets in [(3, ((1.9, 3),)), (3, (("1", "3"),)), (3.0, ((1, 3),))]:
        with pytest.raises(TypeError, match="must be ints"):
            IntervalFacets(n, facets)
    assert IntervalFacets(3, [[1, 2], [2, 3]]).facets == ((1, 2), (2, 3))


def test_recognize_complete_and_showcase(seven_graph):
    lab, F = recognize_closed(complete_graph(5))
    assert F.facets == ((1, 5),)

    lab, F = recognize_closed(seven_graph)
    assert F.facets == SEVEN_NOT_SCM.facets
    assert lab.perm[1:] == (1, 2, 3, 4, 5, 6, 7)  # already canonically labeled


def test_recognize_claw_absent():
    assert not brute_force_is_closed(claw())
    assert recognize_closed(claw()) is None


def test_recognition_matches_bruteforce_small():
    # every labeled graph on up to 5 vertices
    for n in (1, 2, 3, 4):
        for G in all_graphs(n):
            assert (recognize_closed(G) is not None) == brute_force_is_closed(G)
    count_closed = 0
    for G in all_graphs(5):
        present = recognize_closed(G) is not None
        assert present == brute_force_is_closed(G)
        count_closed += present
    assert count_closed > 0


def test_recognition_matches_bruteforce_sampled():
    rng = random.Random(7)
    for n in (6, 7):
        for _ in range(120):
            m = rng.randint(0, n * (n - 1) // 2)
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            G = from_edge_list(n, rng.sample(pairs, m))
            assert (recognize_closed(G) is not None) == brute_force_is_closed(G)


def test_recognition_labeling_invariance():
    rng = random.Random(3)
    for F in enumerate_closed_connected(6):
        G = build_graph(F)
        p = list(range(1, 7))
        rng.shuffle(p)
        H = relabel(G, {v: p[v - 1] for v in range(1, 7)})
        recG = recognize_closed(G)
        recH = recognize_closed(H)
        assert recG[1].facets == recH[1].facets


def test_recognition_returns_lexmin_orientation():
    for F in enumerate_closed_connected(6):
        G = build_graph(F)
        _, got = recognize_closed(G)
        expect = min(F.flattened(), reverse_facets(F).flattened())
        assert got.flattened() == expect


def test_recognize_disconnected_layout():
    # one K3 and one isolated vertex
    G = from_edge_list(4, [(2, 3), (2, 4), (3, 4)])
    lab, F = recognize_closed(G)
    assert F.facets == ((1, 1), (2, 4))
    assert not F.is_connected
    assert len(decompose_blocks(F)) == 2


def test_interval_facets_examples(nine_graph):
    assert interval_facets(path_graph(3)).facets == ((1, 2), (2, 3))
    assert interval_facets(complete_graph(4)).facets == ((1, 4),)
    assert interval_facets(nine_graph).facets == NINE_SCM.facets


def test_interval_facets_witness():
    G = from_edge_list(3, [(1, 3)])  # 2 between 1 and 3 but not adjacent
    with pytest.raises(NotClosedError) as exc:
        interval_facets(G)
    assert exc.value.witness is not None
    present, missing = exc.value.witness
    assert has_edge(G, *present) and not has_edge(G, *missing)


def test_connected_cutsets_examples():
    assert connected_cutsets(SEVEN_NOT_SCM) == ((2, 3), (3, 5), (5, 6))
    assert connected_cutsets(IntervalFacets(3, ((1, 2), (2, 3)))) == ((2, 2),)
    assert connected_cutsets(IntervalFacets(4, ((1, 3), (2, 4)))) == ((2, 3),)
    with pytest.raises(ValueError):
        connected_cutsets(IntervalFacets(4, ((1, 2), (3, 4))))


def test_decompose_blocks_examples():
    two = decompose_blocks(IntervalFacets(3, ((1, 2), (2, 3))))
    assert [b.facets.facets for b in two] == [((1, 2),), ((1, 2),)]
    assert [b.start for b in two] == [1, 2]

    one = decompose_blocks(SEVEN_NOT_SCM)
    assert len(one) == 1 and one[0].facets == SEVEN_NOT_SCM

    mixed = decompose_blocks(IntervalFacets(7, ((1, 3), (3, 5), (4, 7))))
    assert [b.facets.facets for b in mixed] == [((1, 3),), ((1, 3), (2, 5))]
    assert [b.start for b in mixed] == [1, 3]


def test_blocks_reconstruct_parent():
    for F in enumerate_closed_connected(7):
        blocks = decompose_blocks(F)
        rebuilt = []
        for blk in blocks:
            rebuilt.extend(
                (a + blk.start - 1, b + blk.start - 1) for a, b in blk.facets.facets
            )
        assert tuple(rebuilt) == F.facets
        for blk in blocks:
            inner = connected_cutsets(blk.facets) if blk.facets.r >= 2 else ()
            assert all(hi - lo + 1 >= 2 for lo, hi in inner)


def test_roundtrip_rebuild():
    for F in enumerate_closed_connected(7):
        G = build_graph(F)
        lab, got = recognize_closed(G)  # raises internally if roundtrip breaks
        assert num_edges(build_graph(got)) == num_edges(G)


def test_facet_text_roundtrip():
    text = format_facet_text(SEVEN_NOT_SCM)
    assert text.splitlines()[0] == "closed 7 4"
    assert parse_facet_text(text) == SEVEN_NOT_SCM
    with pytest.raises(GraphInputError):
        parse_facet_text("closed 3 2\n1 2\n")
    with pytest.raises(GraphInputError):
        parse_facet_text("3\n1 2\n")


def test_facet_text_bounds_n_before_building():
    # n is checked in the parser, before any work on the facets
    F = parse_facet_text("closed 64 1\n1 64\n")
    assert num_edges(build_graph(F)) == 64 * 63 // 2
    for n in (65, 100000):
        with pytest.raises(GraphInputError, match=f"^vertex count {n} outside 1..64$"):
            parse_facet_text(f"closed {n} 1\n1 {n}\n")


def test_facet_text_row_field_count():
    for row in ("1", "1 2 3"):
        with pytest.raises(GraphInputError, match="expected 'a b'"):
            parse_facet_text(f"closed 3 1\n{row}\n")
    with pytest.raises(GraphInputError, match="non-integer field"):
        parse_facet_text("closed 3 1\n1 x\n")


def test_degenerate_inputs():
    lab, F = recognize_closed(from_edge_list(1, []))
    assert F.facets == ((1, 1),)
    lab, F = recognize_closed(from_edge_list(3, []))
    assert F.facets == ((1, 1), (2, 2), (3, 3))


def test_recognition_scrambled_positives_larger():
    # closed graphs under random relabelings must always be recognized
    rng = random.Random(19)
    for n in (7, 8):
        chains = list(enumerate_closed_connected(n))
        for F in rng.sample(chains, 60):
            G = build_graph(F)
            p = list(range(1, n + 1))
            rng.shuffle(p)
            H = relabel(G, {v: p[v - 1] for v in range(1, n + 1)})
            rec = recognize_closed(H)
            assert rec is not None, F.facets
            expect = min(F.flattened(), reverse_facets(F).flattened())
            assert rec[1].flattened() == expect


def test_recognition_near_miss_perturbations():
    # closed graphs with one edge flipped are the hard recognition cases
    rng = random.Random(23)
    for F in enumerate_closed_connected(6):
        G = build_graph(F)
        for _ in range(4):
            u = rng.randint(1, 6)
            v = rng.randint(1, 6)
            if u == v:
                continue
            edges = set(G.edges())
            e = (min(u, v), max(u, v))
            edges.symmetric_difference_update({e})
            H = from_edge_list(6, edges)
            assert (recognize_closed(H) is not None) == brute_force_is_closed(H)


# -- the LexBFS sweeps against the explicit-label reference ---------------------


def _shuffled(G, rng):
    p = list(range(1, G.n + 1))
    rng.shuffle(p)
    return relabel(G, {v: p[v - 1] for v in range(1, G.n + 1)})


def _random_graph(n, rng):
    p = rng.random()
    return from_edge_list(n, [(i, j) for i in range(1, n + 1)
                              for j in range(i + 1, n + 1) if rng.random() < p])


def _closed_graph(n, rng):
    return _shuffled(build_graph(random_closed(n, rng.getrandbits(64), rng.random())), rng)


def _blow_up(base, rng, cap=64):
    # every vertex of base blown up into a clique of true twins, at most cap
    # vertices in all; labels not shuffled
    k = base.n
    sizes = [rng.randint(1, cap // k) for _ in range(k)]
    start = [1]
    for t in sizes:
        start.append(start[-1] + t)
    blob = lambda v: range(start[v - 1], start[v])
    edges = [(x, y) for v in range(1, k + 1) for x in blob(v) for y in blob(v) if x < y]
    edges += [(x, y) for u, v in base.edges() for x in blob(u) for y in blob(v)]
    return from_edge_list(start[-1] - 1, edges)


def _twin_heavy(rng, cap=64):
    # a small closed graph with every vertex blown up into a clique of twins
    k = rng.randint(1, 8)
    base = build_graph(random_closed(k, rng.getrandbits(64), rng.random()))
    return _shuffled(_blow_up(base, rng, cap), rng)


def _pieces(rng):
    # a disjoint union of arbitrary and closed pieces, with labels interleaved
    edges, n = [], 0
    for _ in range(rng.randint(2, 4)):
        size = rng.randint(1, 16)
        piece = _closed_graph(size, rng) if rng.random() < 0.5 else _random_graph(size, rng)
        edges += [(u + n, v + n) for u, v in piece.edges()]
        n += size
    return _shuffled(from_edge_list(n, edges), rng)


@st.composite
def sweep_graphs(draw):
    # one draw seeds the example, not one per vertex pair or swap
    rng = random.Random(draw(st.randoms(use_true_random=False)).getrandbits(64))
    kind = draw(st.sampled_from(("arbitrary", "pieces", "twins", "closed")))
    if kind == "arbitrary":
        return _random_graph(draw(st.integers(1, 64)), rng)
    if kind == "pieces":
        return _pieces(rng)
    if kind == "twins":
        return _twin_heavy(rng)
    return _closed_graph(draw(st.integers(1, 64)), rng)


@given(sweep_graphs())
@settings(max_examples=250, deadline=None)
def test_lbfs_sweeps_match_reference(G):
    # the three sweeps over all of G: each lists every component as one
    # run, the run is the sweep of that component alone (after the previous
    # sweep restricted to it), and the runs come in ascending, descending
    # and again ascending order of smallest vertex
    adj = dict(enumerate(G.adj))
    comps = components_ref(G)
    where = {v: k for k, comp in enumerate(comps) for v in comp}
    prev = None
    for step in (1, -1, 1):
        got = _lbfs(G.adj, prev)
        assert got == lbfs_ref(adj, list(range(1, G.n + 1)), prev)
        runs = [k for k, _ in groupby(where[v] for v in got)]
        assert runs == list(range(len(comps)))[::step]
        for comp in comps:
            inside = set(comp)
            alone = None if prev is None else [v for v in prev if v in inside]
            assert [v for v in got if v in inside] == lbfs_ref(adj, list(comp), alone)
        prev = got


def test_lbfs_tie_breaks():
    # the edgeless graph is all ties: smallest vertex first, then latest in prev
    G = from_edge_list(5, [])
    assert _lbfs(G.adj, None) == [1, 2, 3, 4, 5]
    assert _lbfs(G.adj, [2, 5, 1, 4, 3]) == [3, 4, 1, 5, 2]
    # on the path 1-2-3 the neighbour of the start comes before the non-neighbour
    P = path_graph(3)
    assert _lbfs(P.adj, None) == [1, 2, 3]
    assert _lbfs(P.adj, [1, 2, 3]) == [3, 2, 1]


def _near_miss(n, rng):
    # a shuffled closed graph with one pair flipped
    G = _closed_graph(n, rng)
    if n < 2:
        return G
    u, v = rng.sample(range(1, n + 1), 2)
    return from_edge_list(n, set(G.edges()) ^ {(min(u, v), max(u, v))})


def _twin_copies(rng):
    # a disjoint union of identical twin-heavy pieces: equal component keys
    copies = rng.randint(2, 4)
    piece = _twin_heavy(rng, 64 // copies)
    edges = [(u + i * piece.n, v + i * piece.n) for i in range(copies) for u, v in piece.edges()]
    return _shuffled(from_edge_list(copies * piece.n, edges), rng)


def _twin_near_miss(rng):
    # a near miss that is not closed, blown up: twins in a graph that is not closed
    base = _near_miss(rng.randint(4, 8), rng)
    while recognize_closed_ref(base) is not None:
        base = _near_miss(base.n, rng)
    return _shuffled(_blow_up(base, rng), rng)


def _twin_free(n, rng):
    # a path or a cycle on at least 4 vertices: no true twins, so q = n
    n = max(n, 4)
    edges = [(v, v + 1) for v in range(1, n)] + [(1, n)] * (rng.random() < 0.5)
    return _shuffled(from_edge_list(n, edges), rng)


@st.composite
def recognition_graphs(draw):
    rng = random.Random(draw(st.randoms(use_true_random=False)).getrandbits(64))
    kind = draw(st.sampled_from(
        ("closed", "twins", "near_miss", "gnp", "twin_near_miss", "twin_copies", "twin_free")))
    if kind == "twins":
        return _twin_heavy(rng)
    if kind == "twin_near_miss":
        return _twin_near_miss(rng)
    if kind == "twin_copies":
        return _twin_copies(rng)
    n = draw(st.integers(1, 64))
    return {"closed": _closed_graph, "near_miss": _near_miss, "gnp": _random_graph,
            "twin_free": _twin_free}[kind](n, rng)


def twin_quotient_ref(G):
    """Reference true-twin quotient: classes by closed neighbourhood in order
    of lowest vertex, and an edge between two classes where their lowest
    vertices are adjacent."""
    closed = [G.adj[v] | 1 << (v - 1) for v in range(1, G.n + 1)]
    lows = [v for v in range(1, G.n + 1) if closed[v - 1] not in closed[: v - 1]]
    classes = [sum(1 << (u - 1) for u in range(1, G.n + 1) if closed[u - 1] == closed[v - 1])
               for v in lows]
    qadj = [sum(1 << j for j, w in enumerate(lows) if w != v and has_edge(G, v, w)) for v in lows]
    return (0, *qadj), classes


@given(recognition_graphs())
@settings(max_examples=250, deadline=None)
def test_quotient_third_sweep_is_the_third_sweep_of_g(G):
    # recognition sweeps the true-twin quotient Q (G itself when it has no
    # twins) and lists each class of Q's third order in ascending label; on
    # every closed G that is the third sweep of G itself
    qadj, classes = twin_quotient(G)
    assert (qadj, classes) == twin_quotient_ref(G)
    assert (qadj is G.adj) == (len(classes) == G.n)
    adj = dict(enumerate(G.adj))
    pi = None
    for _ in range(3):
        pi = lbfs_ref(adj, list(range(1, G.n + 1)), pi)
    if closed_order_facets_ref(G.adj, pi) is not None:  # G is closed
        assert _third_sweep(G) == pi


@given(recognition_graphs())
@settings(max_examples=250, deadline=None)
def test_recognize_component_matches_reference(G):
    # the one closed order of G, split at the gaps of its facet list, gives
    # the labeling and facets of recognizing each component alone with the
    # reference sweeps and closedness test, and None where that does
    assert recognize_closed(G) == recognize_closed_ref(G)


@given(recognition_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=250, deadline=None)
def test_closed_order_facets_matches_reference(G, rng):
    # orders of G and of each component alone: recognition's third sweep and
    # its reversal, closed on every closed component, and arbitrary
    # shuffles, which are mostly not closed
    shuffle = random.Random(rng.getrandbits(64))  # one draw, not one per swap
    pi = None
    for _ in range(3):
        pi = _lbfs(G.adj, pi)
    orders = [shuffle.sample(range(1, G.n + 1), G.n), pi, pi[::-1]]
    for comp in components_ref(G):
        inside = set(comp)
        run = [v for v in pi if v in inside]
        orders += [shuffle.sample(comp, len(comp)), run, run[::-1]]
    for o in orders:
        assert _closed_order_facets(G.adj, o) == closed_order_facets_ref(G.adj, o)


def test_recognition_relabels_twice_per_graph(monkeypatch):
    # one relabeling of G's closed neighbourhoods into the true-twin
    # quotient Q, skipped when G has no twins (q = n), then the two LBFS+
    # sweeps relabel into the previous order, once each over the q classes
    # whatever the number of components; the closedness test and the
    # certificate work with prefix masks in G's vertex space
    import edgeideals.closed as closed_mod
    import edgeideals.graphs as graphs_mod

    calls = []

    def counting(masks, target):
        calls.append(len(target))
        return permute_masks(masks, target)

    monkeypatch.setattr(closed_mod, "permute_masks", counting)
    monkeypatch.setattr(graphs_mod, "permute_masks", counting)
    rng = random.Random(5)
    cases = [_shuffled(path_graph(12), rng), _shuffled(complete_graph(7), rng)]
    for sizes in ((1,), (9,), (64,), (3, 1, 5), (16, 16, 16, 16), (1,) * 10):
        edges, n = [], 0
        for size in sizes:  # a disjoint union of connected closed graphs
            edges += [(u + n, v + n) for u, v in _closed_graph(size, rng).edges()]
            n += size
        cases.append(_shuffled(from_edge_list(n, edges), rng))
    seen = set()
    for G in cases:
        n = G.n
        q = len({G.adj[v] | 1 << (v - 1) for v in range(1, n + 1)})
        calls.clear()
        assert recognize_closed(G) is not None
        assert calls == [n + 1] * (q < n) + [q + 1, q + 1]
        seen.add(q < n)
    assert seen == {False, True}


# -- relabeling and certification ----------------------------------------------


def test_closed_labeling_apply_matches_edge_relabel():
    rng = random.Random(41)
    for n in (1, 2, 3, 4, 5, 17, 63, 64):
        G = _random_graph(n, rng)
        p = list(range(1, n + 1))
        rng.shuffle(p)
        assert ClosedLabeling((0, *p)).apply(G) == relabel(G, {v: p[v - 1] for v in range(1, n + 1)})


def test_roundtrip_check_rejects_wrong_facets_or_labeling():
    G = path_graph(4)
    lab, F = recognize_closed(G)
    _verify_roundtrip(G, lab, F)
    for facets in (((1, 2), (2, 4)), ((1, 2), (3, 4)), ((1, 4),), ((1, 1), (2, 3), (3, 4))):
        with pytest.raises(AssertionError, match="round-trip"):
            _verify_roundtrip(G, lab, IntervalFacets(4, facets))
    # a wrong bijection, then labelings that are no bijection of 1..4
    for perm in ((0, 2, 1, 3, 4), (0, 1, 2, 2, 4), (0, 0, 1, 2, 3), (0, 1, 2, 3)):
        with pytest.raises(AssertionError, match="round-trip"):
            _verify_roundtrip(G, ClosedLabeling(perm), F)


def test_recognition_refuses_an_asymmetric_adjacency():
    # vertex 1 lists 2, which does not list 1: the round trip fails, and
    # the symmetry scan before its AssertionError names the input's fault
    with pytest.raises(GraphInputError, match="not symmetric: 2 is a neighbour of 1"):
        recognize_closed(Graph(3, (0, 0b010, 0, 0)))


def test_interval_facets_refuses_an_asymmetric_adjacency():
    # vertex 3 lists 1 and 2, which do not list 3: the identity order is
    # not closed, yet every row is a run, so there is no witness to name
    with pytest.raises(GraphInputError, match="not symmetric: 1 is a neighbour of 3"):
        interval_facets(Graph(3, (0, 0, 0, 0b011)))
    # vertex 1 lists 2, which does not list 1: the identity order passes,
    # with the facets ((1, 2), (3, 3)) of a different, symmetric graph
    with pytest.raises(GraphInputError, match="not symmetric: 2 is a neighbour of 1"):
        interval_facets(Graph(3, (0, 0b010, 0, 0)))


@given(recognition_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_recognition_fails_on_any_asymmetric_adjacency_with_graph_input_error(G, rng):
    # one half of an edge added or dropped: whichever way recognition fails
    # (no closed order, the round trip), it raises GraphInputError; it
    # cannot succeed, since the round trip rebuilds every closed
    # neighbourhood from symmetric facets
    assume(G.n >= 2)
    u, v = rng.sample(range(1, G.n + 1), 2)
    adj = list(G.adj)
    adj[u] ^= 1 << (v - 1)
    with pytest.raises(GraphInputError, match="not symmetric"):
        recognize_closed(Graph(G.n, tuple(adj)))


def _induced(G, W):
    """Subgraph induced on the vertices outside W, renumbered 1.. in order."""
    pos = {v: i for i, v in enumerate((v for v in range(1, G.n + 1) if v not in W), 1)}
    return from_edge_list(len(pos), [(pos[u], pos[v]) for u, v in G.edges()
                                     if u in pos and v in pos])


def test_recognition_of_induced_subgraphs():
    # closedness is hereditary, and the labeling carries each induced
    # subgraph onto the graph of its facets
    lab, F = recognize_closed(_induced(path_graph(5), {1}))
    assert lab.perm[1:] == (1, 2, 3, 4) and F.facets == ((1, 2), (2, 3), (3, 4))
    rng = random.Random(29)
    for n in (6, 7):
        for F in enumerate_closed_connected(n):
            G = _shuffled(build_graph(F), rng)
            H = _induced(G, set(rng.sample(range(1, n + 1), rng.randint(1, n - 1))))
            lab, FH = recognize_closed(H)
            assert lab.apply(H) == build_graph(FH)


def test_closed_labeling_apply_refuses_non_bijections():
    G = from_edge_list(3, [(1, 2)])
    for perm in ((0, 1, 1, 2), (0, 1, 5, 2), (0, 1, 2), (0, 0, 1, 2), (0, 1, 2, 3, 4)):
        with pytest.raises(ValueError, match="not a bijection"):
            ClosedLabeling(perm).apply(G)


# -- the facet-list walks against the reference code ---------------------------


@given(disconnected_facets())
@settings(max_examples=300, deadline=None)
def test_build_graph_matches_reference(F):
    assert build_graph(F) == build_graph_ref(F)
    for blk in blocks_ref(F):
        assert build_graph(blk.facets) == build_graph_ref(blk.facets)


@given(disconnected_facets())
@settings(max_examples=300, deadline=None)
def test_decompose_blocks_matches_reference(F):
    # across the gaps between components and at single shared vertices
    blocks = decompose_blocks(F)
    assert blocks == blocks_ref(F)
    assert all(is_indecomposable(blk.facets) for blk in blocks)
    assert is_indecomposable(F) == (len(blocks) == 1)
    for blk in blocks:
        assert decompose_blocks(blk.facets) == (Block(1, blk.facets),)


@given(disconnected_facets(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_component_order_matches_reference(F, rng):
    # equal components keep their order; a component whose flattened tuple
    # is a proper prefix of another's goes after it
    G = _shuffled(build_graph(F), rng)
    lab, got = recognize_closed(G)
    assert (lab, got) == recognize_closed_ref(G)
    pieces = [recognize_component_ref(G, comp) for comp in components_ref(G)]
    # no other order of the components gives a smaller flattened tuple
    assert got.flattened() == min(map(flatten_pieces, permutations(pieces)))


@given(disconnected_facets(), recognition_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=250, deadline=None)
def test_interval_facets_matches_reference(F, H, rng):
    # graphs of facet lists in their own labeling, the same with one pair
    # flipped, and shuffled graphs, which are mostly not closed as labeled
    G = build_graph(F)
    u, v = rng.sample(range(1, G.n + 1), 2)
    near = from_edge_list(G.n, set(G.edges()) ^ {(min(u, v), max(u, v))})
    for X in (G, near, H):
        try:
            want = interval_facets_ref(X)
        except NotClosedError as exc:
            with pytest.raises(NotClosedError) as got:
                interval_facets(X)
            assert str(got.value) == str(exc) and got.value.witness == exc.witness
        else:
            assert interval_facets(X) == want
