"""Combinatorial classification of binomial edge ideals of closed graphs.

Everything here reads off the facet intervals.  The reductions are the
standard ones: properties are decided per connected component, and within
a component per indecomposable block (blocks are glued at free vertices,
which splits the quotient as a tensor product up to a regular sequence).
One `decompose_blocks` pass yields both: the blocks, and the components
as the runs of blocks that meet in a vertex.

Verdicts for a connected closed graph on [n] with facets F_1..F_r:

  * Cohen-Macaulay      iff every consecutive intersection W_i has size 1,
                        i.e. the facets are [a_1,a_2], [a_2,a_3], ...
  * sequentially CM     (indecomposable, s >= 3 facets) iff there is a k
                        such that the upper endpoints of facets 1..k are
                        consecutive integers and the lower endpoints of
                        facets k+1..s are consecutive integers.  One or two
                        facets are always sequentially CM.
  * almost CM           (indecomposable, not a clique) iff the facets match
                        one of three shapes: two facets meeting in exactly
                        two vertices; [1,b],[b-1,b+1],[b,n] with
                        3 <= b <= n-2; or [1,b],[b-1,b+1],[b,b+2],[b+1,n]
                        with 3 <= b <= n-3.  Globally: at most one block is
                        a non-clique and that block matches a shape.
  * approximately CM    iff almost CM (they coincide on closed graphs).

Unmixedness coincides with the Cohen-Macaulay shape for connected closed
graphs; the agreement with the cut-set module's record-based test is an
exhaustively checked invariant, not an assumption of this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closed import Block, IntervalFacets, decompose_blocks, is_indecomposable, recognize_closed
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

    For s >= 3 facets (alpha_m, beta_m) the condition asks for a k in
    [1, s-1] with
        beta_j  = beta_1 + (j - 1)            for j = 1..k     (uppers run)
        alpha_m = alpha_s - (s - m)           for m = k+1..s   (lowers run)
    and we report the least such k.  A single clique is CM, and a two-facet
    block is always sequentially CM with the vacuous witness k = 1.
    """
    if not is_indecomposable(F):
        raise ValueError("expected an indecomposable connected facet sequence")
    s = F.r
    if s == 1:
        return True, None
    if s == 2:
        return True, 1
    alpha = [a for a, _ in F.facets]
    beta = [b for _, b in F.facets]
    for k in range(1, s):
        uppers = all(beta[j - 1] == beta[0] + (j - 1) for j in range(1, k + 1))
        lowers = all(alpha[m - 1] == alpha[s - 1] - (s - m) for m in range(k + 1, s + 1))
        if uppers and lowers:
            return True, k
    return False, None


def is_almost_cm_indecomposable(F: IntervalFacets) -> bool:
    """Shape test for an indecomposable non-clique block (facet count >= 2)."""
    if not is_indecomposable(F):
        raise ValueError("expected an indecomposable connected facet sequence")
    if F.r < 2:
        raise ValueError("a single clique is CM; this test expects >= 2 facets")
    f = F.facets
    n = F.n
    if F.r == 2:
        (a1, b1), (a2, b2) = f
        return b1 - a2 + 1 == 2
    if F.r == 3:
        b = f[0][1]
        return 3 <= b <= n - 2 and f == ((1, b), (b - 1, b + 1), (b, n))
    if F.r == 4:
        b = f[0][1]
        return 3 <= b <= n - 3 and f == ((1, b), (b - 1, b + 1), (b, b + 2), (b + 1, n))
    return False


def _almost_cm(blocks: tuple[Block, ...]) -> bool:
    """Almost CM iff CM, or exactly one non-clique block that matches a shape."""
    noncliques = [blk for blk in blocks if blk.facets.r >= 2]
    if not noncliques:
        return True  # CM: depth = dim
    if len(noncliques) > 1:
        return False
    return is_almost_cm_indecomposable(noncliques[0].facets)


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
    # CM (and unmixed, on closed graphs) iff every W_i is one vertex
    cm = all(blk.facets.r == 1 for blk in blocks)
    scm_flags = [is_scm_indecomposable(blk.facets) for blk in blocks]
    almost = _almost_cm(blocks)
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
