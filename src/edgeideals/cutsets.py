"""Cut sets and the minimal-prime data of a binomial edge ideal.

A nonempty W is a cut set of G when removing any single vertex of W strictly
drops the component count of G minus W; the empty set always counts.  Each
cut set W carries the full description of one minimal prime: the variables
on W plus a maximal-minor ideal on every component of G minus W, so the
record (W, c(W), parts) is all downstream formulas ever need.  The quotient
by that prime has Krull dimension n - |W| + c(W) in the ambient ring with
2n variables.

Two enumerators are provided: an exhaustive subset sweep valid for any graph,
and the structural one for connected closed graphs that assembles cut sets
as unions of consecutive-clique intersections subject to a gap condition.
Their agreement on every connected closed graph is the executable content
of the structure theorem and is pinned by the acceptance suite.

The exhaustive sweep rests on two lemmas.  First, putting back a
simplicial vertex (its neighbourhood is a clique) joins at most one
component of G minus W, so it lies in no cut set.  Second, if u and v are
true twins (N[u] = N[v]) and W holds u but not v, then every neighbour of u
outside W lies in v's component of G minus W, so putting u back joins no
two components and W is no cut set: every cut set is a union of twin
classes.  Twin classes are cliques and adjacent classes are completely
joined, so the sweep runs on the true-twin quotient Q
(`graphs.twin_quotient`, shared with recognition), with q <= n vertices,
as it would on G.  It visits only the subsets of the non-simplicial
classes and tests each w of W as: N(w) minus W meets two components of Q
minus W.  Its one table, `graphs.union_table` of Q's adjacency, holds the
neighbourhood union of each class mask (2^q words, 4 MB at q = 20), and
`graphs.components` floods the parts of each record through it; each W
and part is then expanded back to G's vertices.  A twin-free graph such
as a cycle still has q = n and costs up to 2^n subsets.  The CLI
`cutsets` command runs the sweep on any graph; it uses no closed-graph
structure and shares no code with the structural enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .closed import IntervalFacets, connected_cutsets
from .errors import ResourceCapError
from .graphs import (
    Graph,
    bits,
    components,
    simplicial_mask,
    twin_quotient,
    union_table,
    vertices_of,
)

BRUTE_FORCE_CAP = 20  # 2^n subset sweep


@dataclass(frozen=True)
class CutSetRecord:
    """One (possibly empty) cut set W with its minimal-prime data.

    parts holds the vertex sets of the components of G minus W, each sorted,
    in order of their smallest vertex.  dim = n - |W| + c.
    """

    W: tuple[int, ...]
    c: int
    dim: int
    parts: tuple[tuple[int, ...], ...]

    def sort_key(self):
        return (len(self.W), self.W)


def cutsets_bruteforce(G: Graph) -> tuple[CutSetRecord, ...]:
    """All W whose prime is minimal, by the removal test on the true-twin quotient.

    Every cut set is a union of twin classes, and the components of G minus
    W are those of the quotient with W read as a set of classes, so the
    sweep runs on the quotient over the subsets free of simplicial classes.
    """
    if G.n > BRUTE_FORCE_CAP:
        raise ResourceCapError(f"brute-force cut-set sweep capped at n <= {BRUTE_FORCE_CAP} "
                               f"(got n = {G.n}); use the structural enumerator for closed graphs")
    qadj, classes = twin_quotient(G)
    Q = Graph(len(classes), qadj)
    nb = union_table(Q.adj[1:])
    full = Q.full_mask
    cand = full & ~simplicial_mask(Q)
    found = [0]
    wmask = cand & -cand
    while wmask:  # the nonempty subsets of cand, ascending
        rest = full ^ wmask
        w = wmask
        while w:  # putting back w must join two components of Q - W
            low = w & -w
            nw = nb[low] & rest
            cc = nw & -nw
            if nw == cc:  # at most one neighbour left, and so in every W' >= s:
                s = low | nb[low] & wmask  # skip the later W' that agree with W
                wmask |= cand & ((s & -s) - 1)  # from the lowest bit of s up
                break
            grown = nb[cc] & rest | cc
            while nw & ~grown:  # flood the component of cc until it holds nw
                if grown == cc:
                    break  # it is whole and misses part of nw: w passes
                cc = grown
                grown = nb[cc] & rest | cc
            else:
                break
            w ^= low
        else:
            found.append(wmask)
        wmask = (wmask - cand) & cand

    def expand(qmask: int) -> int:
        m = 0
        for k in bits(qmask):
            m |= classes[k]
        return m

    part_of: dict[int, tuple[int, ...]] = {}  # component mask of Q -> its vertices in G
    records = []
    for wq in found:
        parts = []
        for cc in components(nb, full ^ wq):
            part = part_of.get(cc)
            if part is None:
                part = part_of[cc] = vertices_of(expand(cc))
            parts.append(part)
        wg = expand(wq)
        c = len(parts)
        records.append(CutSetRecord(vertices_of(wg), c, G.n - wg.bit_count() + c, tuple(parts)))
    return tuple(sorted(records, key=CutSetRecord.sort_key))


def cutsets_structural(F: IntervalFacets) -> tuple[CutSetRecord, ...]:
    """Cut sets of a connected closed graph from its facet intervals.

    W = W_{j_1} | ... | W_{j_t} with j_1 < ... < j_t is admissible exactly
    when max(W_{j_i}) + 1 < min(W_{j_{i+1}}) for consecutive picks; such a
    W has c(W) = t + 1 and the components are the contiguous runs of the
    surviving vertices.
    """
    if not F.is_connected:
        raise ValueError("structural enumeration needs a connected facet sequence: "
                         "consecutive facets must share a vertex")
    n = F.n
    records = [CutSetRecord((), 1, n + 1, (tuple(range(1, n + 1)),))]
    if F.r == 1:
        return tuple(records)
    W = connected_cutsets(F)  # W[i] = (min, max), both inclusive
    m = len(W)
    for t in range(1, m + 1):
        for picks in combinations(range(m), t):
            if any(W[picks[i]][1] + 1 >= W[picks[i + 1]][0] for i in range(t - 1)):
                continue
            wverts = []
            for j in picks:
                wverts.extend(range(W[j][0], W[j][1] + 1))
            parts = []
            prev = 1
            for j in picks:
                parts.append(tuple(range(prev, W[j][0])))
                prev = W[j][1] + 1
            parts.append(tuple(range(prev, n + 1)))
            c = t + 1
            records.append(CutSetRecord(tuple(wverts), c, n - len(wverts) + c, tuple(parts)))
    return tuple(sorted(records, key=CutSetRecord.sort_key))


def krull_dimension(records) -> int:
    """max over minimal primes of dim = n - |W| + c(W) (dimension in 2n variables)."""
    dims = [r.dim for r in records]
    if not dims:
        raise ValueError("need at least the empty cut set")
    return max(dims)


def is_unmixed(records) -> bool:
    """True when every minimal prime has the dimension of the W = {} prime."""
    recs = list(records)
    base = next((r for r in recs if not r.W), None)
    if base is None:
        raise ValueError("record collection must contain the empty cut set")
    return all(r.dim == base.dim for r in recs)
