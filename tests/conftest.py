"""Shared fixtures: showcase graphs and small brute-force oracles."""

from itertools import combinations, permutations

import pytest

from edgeideals.closed import IntervalFacets, build_graph
from edgeideals.complexes import (
    SimplicialComplex,
    induced_subcomplex,
    link,
    pure_skeleton,
    reduced_homology,
)
from edgeideals.graphs import Graph, from_edge_list


# The four showcase facet sequences exercised throughout the suite.
SEVEN_NOT_SCM = IntervalFacets(7, ((1, 3), (2, 5), (3, 6), (5, 7)))
NINE_SCM = IntervalFacets(9, ((1, 3), (2, 6), (3, 7), (4, 8), (5, 9)))
SEVEN_NOT_ALMOST = IntervalFacets(7, ((1, 4), (3, 6), (5, 7)))
SEVEN_ALMOST = IntervalFacets(7, ((1, 4), (3, 5), (4, 7)))


@pytest.fixture
def seven_graph() -> Graph:
    return build_graph(SEVEN_NOT_SCM)


@pytest.fixture
def nine_graph() -> Graph:
    return build_graph(NINE_SCM)


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(1, n)])


def claw() -> Graph:
    return from_edge_list(4, [(1, 2), (1, 3), (1, 4)])


def relabel(G: Graph, perm: dict[int, int]) -> Graph:
    return from_edge_list(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


def is_closed_labeling_ref(G: Graph) -> bool:
    """Reference check: every closed neighbourhood is a consecutive run."""
    for v in range(1, G.n + 1):
        m = G.adj[v] | (1 << (v - 1))
        lo = (m & -m).bit_length() - 1
        hi = m.bit_length() - 1
        if m != (((1 << (hi + 1)) - 1) >> lo) << lo:
            return False
    return True


def brute_force_is_closed(G: Graph) -> bool:
    """Exhaustive oracle over all n! labelings; usable up to n = 8."""
    verts = list(range(1, G.n + 1))
    for p in permutations(verts):
        perm = {v: p[v - 1] for v in verts}
        if is_closed_labeling_ref(relabel(G, perm)):
            return True
    return False


def all_graphs(n: int):
    """Every labeled simple graph on [n] (2^C(n,2) of them)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for code in range(1 << len(pairs)):
        yield from_edge_list(n, [pairs[k] for k in range(len(pairs)) if (code >> k) & 1])


def is_cm_reisner_ref(C: SimplicialComplex) -> bool:
    """Reference Reisner check, read literally off the definition.

    C is pure of dimension d, and for every face sigma (the empty face
    included) the reduced homology of link(sigma) vanishes below d - |sigma|.
    Every face is enumerated and every link is built explicitly.
    """
    if C.is_void:
        return True
    d = C.dim
    if any(len(f) != d + 1 for f in C.facets):
        return False
    faces = {frozenset(s) for f in C.facets for k in range(len(f) + 1)
             for s in combinations(sorted(f), k)}
    for sigma in faces:
        nz = reduced_homology(link(C, sigma)).nonzero()
        if any(j < d - len(sigma) for j in nz):
            return False
    return True


def is_scm_duval_ref(C: SimplicialComplex) -> bool:
    """Reference Duval check: every pure i-skeleton, built explicitly, is CM."""
    return all(is_cm_reisner_ref(pure_skeleton(C, i)) for i in range(C.dim + 1))


def depth_hochster_ref(C: SimplicialComplex) -> int:
    """Reference depth: Hochster's sweep over every vertex subset of the support.

    pd is the best |sigma| - 1 - d over subsets sigma and degrees d with
    nonzero reduced homology of the induced subcomplex on sigma, each
    restriction taken whole (no join factorisation); universe vertices in no
    facet add one each.  Sizes run downwards and the scan stops once no
    smaller subset can beat the best found.
    """
    support = sorted(set().union(*C.facets))
    best_pd = 0  # sigma = {} has degree -1 homology
    for size in range(len(support), 0, -1):
        if best_pd >= size - 1:
            break
        for sigma in combinations(support, size):
            nz = reduced_homology(induced_subcomplex(C, sigma)).nonzero()
            if nz:
                best_pd = max(best_pd, size - 1 - min(nz))
    ghosts = C.n_vertices - len(support)
    return C.n_vertices - (best_pd + ghosts)
