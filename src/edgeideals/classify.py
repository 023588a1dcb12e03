"""Combinatorial classification of binomial edge ideals of closed graphs.

Everything here reads off the facet intervals.  The reductions are the
standard ones: properties are decided per connected component, and within
a component per indecomposable block (blocks are glued at free vertices,
which splits the quotient as a tensor product up to a regular sequence).
One `decompose_blocks` pass yields both: the blocks, and the components
as the runs of blocks that meet in a vertex.

Verdicts for a connected closed graph on [n] with facets F_1..F_r, all
read off the endpoint runs and the intersections W_i = F_i n F_{i+1}:

  * Cohen-Macaulay      iff every W_i has size 1, i.e. the facets are
                        [a_1,a_2], [a_2,a_3], ...; equivalently every block
                        is a clique.
  * sequentially CM     per indecomposable block with s facets, iff U + L >= s:
                        the upper endpoints of the first U facets and the
                        lower endpoints of the last L facets are consecutive
                        integers.  The paper asks for a k in [1, s-1] that
                        splits the facets into two such runs; the least is
                        k = max(1, s - L).  A single clique has no witness.
  * almost CM           (indecomposable, not a clique) iff r <= 4, every W_i
                        has exactly two vertices and every inner facet has
                        three.  Equivalently, the facets match one of the
                        paper's three shapes: two facets meeting in exactly
                        two vertices; [1,b],[b-1,b+1],[b,n] with
                        3 <= b <= n-2; or [1,b],[b-1,b+1],[b,b+2],[b+1,n]
                        with 3 <= b <= n-3.  Globally: at most one block is
                        a non-clique and that block passes.
  * approximately CM    iff almost CM (they coincide on closed graphs).

Unmixedness coincides with the Cohen-Macaulay shape for connected closed
graphs; the agreement with the cut-set module's record-based test is an
exhaustively checked invariant, not an assumption of this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closed import IntervalFacets, decompose_blocks, is_indecomposable, recognize_closed
from .errors import NotClosedError
from .graphs import Graph


@dataclass(frozen=True)
class Classification:
    """Full verdict record for a closed graph (canonical labeling)."""

    facets: IntervalFacets
    blocks: tuple[IntervalFacets, ...]
    components: int
    unmixed: bool
    cm: bool
    scm: bool
    scm_witness_k_per_block: tuple[int | None, ...]
    almost_cm: bool
    approx_cm: bool
    krull_dim: int

    def __post_init__(self):
        # explicit raises, so that the invariants also hold under python -O
        if self.cm and not (self.scm and self.almost_cm and self.unmixed):
            raise AssertionError("cm must imply scm, almost_cm and unmixed")
        if self.approx_cm != self.almost_cm:
            raise AssertionError("approx_cm must equal almost_cm on closed graphs")


def is_scm_indecomposable(F: IntervalFacets) -> tuple[bool, int | None]:
    """Sequential-CM test for an indecomposable connected block.

    U and L are the longest leading run of consecutive upper endpoints and
    the longest trailing run of consecutive lower endpoints of the s
    facets.  A witness k in [1, s-1] of the paper's condition needs
    s - L <= k <= U, so the block is sequentially CM iff U + L >= s, with
    least witness k = max(1, s - L).  A single clique is CM, with no witness.
    """
    if not is_indecomposable(F):
        raise ValueError("expected an indecomposable connected facet sequence")
    s = F.r
    if s == 1:
        return True, None
    f = F.facets
    upper = 1
    while upper < s and f[upper][1] == f[0][1] + upper:
        upper += 1
    lower = 1
    while lower < s and f[s - 1 - lower][0] == f[-1][0] - lower:
        lower += 1
    if upper + lower < s:
        return False, None
    return True, max(1, s - lower)


def is_almost_cm_indecomposable(F: IntervalFacets) -> bool:
    """Almost-CM test for an indecomposable non-clique block (facet count >= 2).

    True iff there are at most four facets, every W_i has exactly two
    vertices and every inner facet three; these are the paper's three
    shapes, read off their intersection sizes.
    """
    if not is_indecomposable(F):
        raise ValueError("expected an indecomposable connected facet sequence")
    if F.r < 2:
        raise ValueError("a single clique is CM; this test expects >= 2 facets")
    f = F.facets
    return (F.r <= 4
            and all(b1 - a2 == 1 for (_, b1), (a2, _) in zip(f, f[1:]))
            and all(b - a == 2 for a, b in f[1:-1]))


def classify(G: Graph) -> Classification:
    """Run every classifier and assemble the verdict record."""
    rec = recognize_closed(G)
    if rec is None:
        raise NotClosedError("graph is not closed; classification not defined")
    _, F = rec
    return classify_facets(F)


def classify_facets(F: IntervalFacets) -> Classification:
    """Every verdict, read off the one block pass of `decompose_blocks`."""
    blocks = decompose_blocks(F)
    # a block that starts past the previous block's last vertex opens a component
    components = 1 + sum(b.start > a.start + a.n - 1 for a, b in zip(blocks, blocks[1:]))
    # CM (and unmixed, on closed graphs) iff every W_i is one vertex, that
    # is iff every block is a clique; almost CM iff at most one is not, and
    # that one passes the shape test
    noncliques = [blk.facets for blk in blocks if blk.facets.r >= 2]
    cm = not noncliques
    scm_flags = [is_scm_indecomposable(blk.facets) for blk in blocks]
    almost = len(noncliques) < 2 and all(map(is_almost_cm_indecomposable, noncliques))
    return Classification(
        facets=F,
        blocks=tuple(blk.facets for blk in blocks),
        components=components,
        unmixed=cm,
        cm=cm,
        scm=all(flag for flag, _ in scm_flags),
        scm_witness_k_per_block=tuple(k for _, k in scm_flags),
        almost_cm=almost,
        approx_cm=almost,
        krull_dim=F.n + components,
    )
