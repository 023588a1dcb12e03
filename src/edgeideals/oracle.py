"""Stanley-Reisner verification oracle for closed-graph edge ideals.

Under a closed labeling the quadratic generators x_i y_j - x_j y_i (i < j
an edge) are a Groebner basis for the lexicographic order with
x_1 > ... > x_n > y_1 > ... > y_n, so the initial ideal is the squarefree
quadratic monomial ideal (x_i y_j : {i,j} an edge, i < j).  This module
builds its Stanley-Reisner complex on 2n vertices and computes dimension,
depth, Cohen-Macaulayness (Reisner), sequential CM-ness and the derived
almost/approximately-CM verdicts, all by exact rational homology.

Sequential CM-ness is computed twice, once per distinct facet size s on
the subcomplex generated by the facets with at least s vertices (it only
changes there).  Duval's criterion, in link form, asks that no face link
has reduced homology below degree s - 1 - |face|, i.e. link depth >=
s - 1; Goodarzi's filtration criterion asks for depth >= s.  Each reads
one memoised integer per subcomplex.  The oracle raises unless depth ==
1 + min(link depth, dim) (Smith 1990) on every such subcomplex, and each
has dim >= s - 1, so whenever a report exists scm == scm_goodarzi: their
agreement restates the Smith check.  What is independent is how each
integer is computed: the link depth from face links, the depth from the
Hochster sweep over restrictions to unions of minimal nonfaces, which
never looks at links.  On the whole complex the Smith check likewise
makes Reisner's verdict agree with depth == dim (Auslander-Buchsbaum).

One oracle call walks the truncations once: the complex lists them
(`SimplicialComplex.truncations`) and canonicalizes each once
(`canonical_key`), and the Smith check, Reisner, Duval and Goodarzi all
ask with those objects and keys, so each question after the first about
a truncation is a memo lookup with no canonical form computed again.

The oracle certifies invariants of the initial ideal.  Depth, dimension,
CM-ness and almost-CM-ness carry over to the binomial ideal by the transfer
theorem for squarefree initial degenerations (Conca-Varbaro 2020).
Sequential CM-ness does not: the initial ideal of ((1,3),(2,4),(4,6),(5,7))
is SCM under the closed labeling, not under v -> (5,4,7,2,1,3,6)[v-1].  So
scm is the verdict under the closed labeling, which `verify` checks against
the paper's criterion.  Reports are tagged "squarefree-degeneration", and
everything is characteristic 0 only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closed import IntervalFacets, build_graph, recognize_closed
from .complexes import (
    DEFAULT_FACE_CAP,
    DEFAULT_VAR_CAP,
    SimplicialComplex,
    check_var_cap,
    depth_hochster,
    is_cm_reisner,
    is_scm_duval,
    link_depth,
)
from .errors import NotClosedError
from .graphs import Graph, minimal_transversals, union_of


@dataclass(frozen=True)
class OracleReport:
    """Homological verdicts for S/in(J_G) in 2n variables.

    scm is Duval's criterion in link form; scm_goodarzi is the filtration
    criterion through the Hochster depth sweep, recorded separately.  The
    Smith check that every report passes forces scm == scm_goodarzi; only
    how each is computed, from links or from restrictions, is independent.
    almost_cm is depth >= dim - 1 and approx_cm is almost_cm together with
    scm.
    """

    dim_quotient: int
    depth: int
    cm: bool
    scm: bool
    scm_goodarzi: bool
    almost_cm: bool
    approx_cm: bool

    def __post_init__(self):
        # explicit raises, so that the invariants also hold under python -O
        if self.depth > self.dim_quotient:
            raise AssertionError(f"depth {self.depth} exceeds dimension {self.dim_quotient}")
        if self.cm != (self.depth == self.dim_quotient):
            raise AssertionError("cm must mean depth == dim")
        if self.almost_cm != (self.depth >= self.dim_quotient - 1):
            raise AssertionError("almost_cm must mean depth >= dim - 1")
        if self.approx_cm != (self.almost_cm and self.scm):
            raise AssertionError("approx_cm must mean almost_cm and scm")


def initial_ideal_generators(F: IntervalFacets) -> frozenset[tuple[int, int]]:
    """Pairs (i, j), i < j, one per edge; (i, j) encodes the monomial x_i y_j."""
    return frozenset(build_graph(F).edges())


def stanley_reisner_complex(gens, n: int) -> SimplicialComplex:
    """Complex on 2n vertices whose non-faces are generated by the pairs.

    Vertex i is x_i and vertex n + j is y_j; faces are the subsets
    containing no pair {i, n+j} with (i, j) a generator, i.e. independent
    sets of the bipartite graph H with those edges.  Facets are the
    maximal independent sets, the complements of the minimal vertex covers
    of H, which are the minimal transversals of its edges
    (`graphs.minimal_transversals`, fed the edges in sorted order).
    Quadratic generators guarantee every vertex is a face, which is
    asserted.
    """
    edges = []
    for i, j in sorted(gens):  # frozenset order made Berge 3-4x slower at n = 9
        if not (1 <= i < j <= n):
            raise ValueError(f"generator ({i},{j}) must satisfy 1 <= i < j <= n")
        edges.append(1 << (i - 1) | 1 << (n + j - 1))
    full = (1 << 2 * n) - 1
    out = [full ^ t for t in minimal_transversals(edges)]
    if union_of(out) != full:
        raise AssertionError("quadratic generators must leave every vertex a face")
    return SimplicialComplex(2 * n, frozenset(out))


def goodarzi_check(
    C: SimplicialComplex,
    *,
    max_vars: int = DEFAULT_VAR_CAP,
    max_faces: int = DEFAULT_FACE_CAP,
) -> bool:
    """Filtration criterion for sequential CM-ness on the monomial side.

    The i-th filtration ideal of the face ideal keeps the primary (= prime)
    components of quotient dimension > i, which is the face ideal of the
    subcomplex generated by the facets with more than i vertices.  The ring
    is sequentially CM iff that quotient has depth >= i + 1 for every
    0 <= i <= dim C, in the ring with one variable per vertex of C's universe.

    Each subcomplex of `C.truncations` asks `depth_hochster` once, and
    depth >= s there covers every i it stands for; the complex {emptyset}
    has depth 0 >= 0.  The depth is memoised per canonical complex, so the
    oracle's own questions about the same truncations cost one lookup.
    """
    return all(
        depth_hochster(sub, max_vars=max_vars, max_faces=max_faces) >= s
        for s, sub in C.truncations
    )


def oracle_complex(F: IntervalFacets) -> SimplicialComplex:
    return stanley_reisner_complex(initial_ideal_generators(F), F.n)


def oracle_classify_facets(
    F: IntervalFacets,
    max_vars: int = DEFAULT_VAR_CAP,
    max_faces: int = DEFAULT_FACE_CAP,
) -> OracleReport:
    check_var_cap(2 * F.n, max_vars)  # before the complex: it can have exponentially many facets
    C = oracle_complex(F)
    dim_quotient = C.dim + 1
    # Smith 1990 on every truncation, C first: the t-skeleton is CM exactly
    # for t <= link depth; both sides are memoised for the criteria, which
    # ask about the same truncation objects with the same canonical keys
    depths = []
    for _, sub in C.truncations:
        depths.append(depth_hochster(sub, max_vars=max_vars, max_faces=max_faces))
        if depths[-1] != 1 + min(link_depth(sub.canonical_key, max_faces), sub.dim):
            raise AssertionError("link depth and Hochster depth disagree; engine bug")
    depth = depths[0]
    cm = is_cm_reisner(C, max_faces=max_faces)
    scm = is_scm_duval(C, max_faces=max_faces)
    goo = goodarzi_check(C, max_vars=max_vars, max_faces=max_faces)
    almost = depth >= dim_quotient - 1
    return OracleReport(
        dim_quotient=dim_quotient,
        depth=depth,
        cm=cm,
        scm=scm,
        scm_goodarzi=goo,
        almost_cm=almost,
        approx_cm=almost and scm,
    )


def oracle_classify(
    G: Graph,
    max_vars: int = DEFAULT_VAR_CAP,
    max_faces: int = DEFAULT_FACE_CAP,
) -> OracleReport:
    """Full oracle pipeline: closed labeling, initial ideal, SR homology."""
    rec = recognize_closed(G)
    if rec is None:
        raise NotClosedError("graph is not closed; the initial ideal is not squarefree")
    return oracle_classify_facets(rec[1], max_vars=max_vars, max_faces=max_faces)
