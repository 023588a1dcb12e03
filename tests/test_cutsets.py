from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeideals.closed import IntervalFacets, build_graph
from edgeideals.cutsets import (
    CutSetRecord,
    cutsets_bruteforce,
    cutsets_structural,
    is_unmixed,
    krull_dimension,
)
from edgeideals.enumerators import enumerate_closed_connected, random_closed
from edgeideals.errors import ResourceCapError
from edgeideals.graphs import Graph, from_edge_list, mask_of, simplicial_mask

from conftest import (
    SEVEN_NOT_SCM,
    all_graphs,
    complete_graph,
    components_ref,
    cutset_mask,
    has_edge,
    path_graph,
    random_graphs,
)


def as_map(records):
    return {r.W: (r.c, r.dim) for r in records}


def test_bruteforce_path4():
    recs = cutsets_bruteforce(path_graph(4))
    assert set(as_map(recs)) == {(), (2,), (3,)}  # {2,3} fails minimality
    assert as_map(recs)[(2,)] == (2, 4 - 1 + 2)


def test_bruteforce_two_clique():
    # facets [1,b],[a,n]: cut sets are {} and [a,b]
    F = IntervalFacets(5, ((1, 4), (2, 5)))
    recs = cutsets_bruteforce(build_graph(F))
    assert set(as_map(recs)) == {(), (2, 3, 4)}


def test_bruteforce_complete():
    assert set(as_map(cutsets_bruteforce(complete_graph(5)))) == {()}


def test_bruteforce_cap():
    with pytest.raises(ResourceCapError):
        cutsets_bruteforce(from_edge_list(21, [(1, 2)]))


def test_bruteforce_parts_are_components(seven_graph):
    recs = cutsets_bruteforce(seven_graph)
    for r in recs:
        assert len(r.parts) == r.c
        assert r.dim == 7 - len(r.W) + r.c
        covered = sorted(v for p in r.parts for v in p)
        assert covered == sorted(set(range(1, 8)) - set(r.W))


def test_structural_seven_example():
    recs = cutsets_structural(SEVEN_NOT_SCM)
    assert set(as_map(recs)) == {(), (2, 3), (3, 4, 5), (5, 6), (2, 3, 5, 6)}
    assert as_map(recs)[(2, 3, 5, 6)] == (3, 7 - 4 + 3)


def test_structural_path4():
    recs = cutsets_structural(IntervalFacets(4, ((1, 2), (2, 3), (3, 4))))
    assert set(as_map(recs)) == {(), (2,), (3,)}  # union {2},{3} rejected: 2+1 !< 3


def test_structural_two_cliques():
    F = IntervalFacets(6, ((1, 4), (3, 6)))
    recs = cutsets_structural(F)
    assert set(as_map(recs)) == {(), (3, 4)}


def test_structural_matches_bruteforce_exhaustive():
    for n in range(1, 7):
        for F in enumerate_closed_connected(n):
            got = as_map(cutsets_structural(F))
            ref = as_map(cutsets_bruteforce(build_graph(F)))
            assert got == ref, F.facets


def test_structural_matches_bruteforce_sampled_large():
    for n in (8, 10, 12):
        for seed in range(12):
            F = random_closed(n, seed, density_bias=0.4)
            got = as_map(cutsets_structural(F))
            ref = as_map(cutsets_bruteforce(build_graph(F)))
            assert got == ref, F.facets


def test_structural_parts_match_bruteforce():
    for F in enumerate_closed_connected(6):
        sp = {r.W: r.parts for r in cutsets_structural(F)}
        bp = {r.W: r.parts for r in cutsets_bruteforce(build_graph(F))}
        assert sp == bp


def test_singleton_dim_dichotomy():
    # dim = n + 1 exactly when every picked connected cut set is a singleton
    for F in enumerate_closed_connected(6):
        for r in cutsets_structural(F):
            if not r.W:
                continue
            assert r.dim <= F.n + 1
            picked_all_singletons = r.c - 1 == len(r.W)
            assert (r.dim == F.n + 1) == picked_all_singletons


def test_krull_dimension_examples(seven_graph):
    assert krull_dimension(cutsets_bruteforce(seven_graph), 7) == 8
    assert krull_dimension(cutsets_bruteforce(complete_graph(4)), 4) == 5
    two_edges = from_edge_list(4, [(1, 2), (3, 4)])
    assert krull_dimension(cutsets_bruteforce(two_edges), 4) == 6


def test_is_unmixed_examples(seven_graph):
    assert is_unmixed(cutsets_bruteforce(path_graph(4)))
    assert not is_unmixed(cutsets_bruteforce(seven_graph))
    assert is_unmixed(cutsets_bruteforce(complete_graph(6)))


def test_record_sorting_is_canonical(seven_graph):
    recs = cutsets_bruteforce(seven_graph)
    assert list(recs) == sorted(recs, key=CutSetRecord.sort_key)


# Literal references for the exhaustive sweep: the components of every G - W
# are counted from scratch by components_ref.

def cutsets_ref(G):
    """{W: (c, dim, parts)} by the removal test, read off the definition."""
    memo = {}

    def parts_of(W):
        if W not in memo:
            memo[W] = components_ref(G, W)
        return memo[W]

    out = {}
    for k in range(G.n + 1):
        for W in combinations(range(1, G.n + 1), k):
            c = len(parts_of(W))
            drops = [len(parts_of(tuple(u for u in W if u != v))) < c for v in W]
            if all(drops):
                out[W] = (c, G.n - k + c, parts_of(W))
    return out


def cycle_graph(n):
    return from_edge_list(n, [(i, i % n + 1) for i in range(1, n + 1)])


def test_simplicial_mask_matches_definition():
    # v is simplicial when every two of its neighbours are adjacent
    for n in range(1, 6):
        for G in all_graphs(n):
            want = []
            for v in range(1, n + 1):
                nbrs = [u for u in range(1, n + 1) if has_edge(G, u, v)]
                if all(has_edge(G, a, b) for a, b in combinations(nbrs, 2)):
                    want.append(v)
            assert simplicial_mask(G) == mask_of(want), G.edges()
    assert simplicial_mask(Graph(0, (0,))) == 0


@settings(max_examples=150, deadline=None)
@example(cycle_graph(4))
@example(cycle_graph(5))
@example(cycle_graph(6))
@example(cycle_graph(7))
@example(from_edge_list(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]))  # K_{3,3}
@example(from_edge_list(10, [(1, 2), (2, 3), (5, 6), (6, 7), (5, 7), (9, 10)]))
@example(from_edge_list(10, []))
@example(Graph(0, (0,)))  # n = 0
@given(random_graphs())
def test_bruteforce_matches_removal_test_reference(G):
    recs = cutsets_bruteforce(G)
    assert {r.W: (r.c, r.dim, r.parts) for r in recs} == cutsets_ref(G)
    assert not any(cutset_mask(r) & simplicial_mask(G) for r in recs if r.W)


def test_bruteforce_matches_removal_test_reference_exhaustive():
    # every graph with n <= 5, closed or not
    for n in range(1, 6):
        for G in all_graphs(n):
            got = {r.W: (r.c, r.dim, r.parts) for r in cutsets_bruteforce(G)}
            assert got == cutsets_ref(G), G.edges()



@st.composite
def twin_blowups(draw):
    """A random graph on n <= 10 vertices with each vertex turned into 1-3
    true twins: the twins of a vertex form a clique, joined completely to the
    twins of each neighbour.  At most 12 vertices in all, so that cutsets_ref
    stays fast, and the labels are shuffled, so a class is not a run."""
    base = draw(random_graphs())
    spare = 12 - base.n
    sizes = []
    for _ in range(base.n):
        extra = draw(st.integers(0, min(2, spare)))
        spare -= extra
        sizes.append(1 + extra)
    labels = iter(draw(st.permutations(range(1, sum(sizes) + 1))))
    blowup = [[next(labels) for _ in range(k)] for k in sizes]
    edges = [e for twins in blowup for e in combinations(twins, 2)]
    edges += [(x, y) for u, v in base.edges() for x in blowup[u - 1] for y in blowup[v - 1]]
    return from_edge_list(sum(sizes), edges)


@settings(max_examples=80, deadline=None)
@example(build_graph(IntervalFacets(5, ((1, 4), (2, 5)))))  # twins {2, 3, 4}
# C_4 with every vertex doubled; the twin classes {r, r + 4} interleave
@example(from_edge_list(8, [(a, b) for a, b in combinations(range(1, 9), 2) if (b - a) % 4 != 2]))
@given(twin_blowups())
def test_bruteforce_on_twin_blowups(G):
    recs = cutsets_bruteforce(G)
    assert {r.W: (r.c, r.dim, r.parts) for r in recs} == cutsets_ref(G)
    twins = {}  # closed neighbourhood -> the vertices that have it
    for v in range(1, G.n + 1):
        closed = frozenset(u for u in range(1, G.n + 1) if u == v or has_edge(G, u, v))
        twins.setdefault(closed, set()).add(v)
    for r in recs:
        for cls in twins.values():
            assert not cls & set(r.W) or cls <= set(r.W), (r.W, cls)
