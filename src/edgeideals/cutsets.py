"""Cut sets and the minimal-prime data of a binomial edge ideal.

A nonempty W is a cut set of G when removing any single vertex of W strictly
drops the component count of G minus W; the empty set always counts.  Each
cut set W carries the full description of one minimal prime: the variables
on W plus a maximal-minor ideal on every component of G minus W, so the
record (W, c(W), parts) is all downstream formulas ever need.  The quotient
by that prime has Krull dimension n - |W| + c(W) in the ambient ring with
2n variables.

Two enumerators are provided: an exhaustive 2^n sweep valid for any graph,
and the structural one for connected closed graphs that assembles cut sets
as unions of consecutive-clique intersections subject to a gap condition.
Their agreement on every connected closed graph is the executable content
of the structure theorem and is pinned by the acceptance suite.

The exhaustive sweep applies the removal test to every subset.  It reads
two tables indexed by vertex mask, filled in one pass before the sweep:
comp (a bytearray, the component count of each induced subgraph) and nb (an
array of 32-bit words, the union of the neighbourhoods of a mask's
vertices; 64-bit above n = 32).  That is 1 + 4 bytes per subset, about 5 MB
at the n = 20 cap.  With nb a flood step is one lookup, and the components
of each accepted W are flooded in place in G's own vertex space.  The CLI
`cutsets` command uses this sweep, for closed and non-closed input alike;
it shares no code with the structural enumerator, so the two stay an
independent cross-check.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations

from .closed import IntervalFacets, connected_cutsets
from .errors import ResourceCapError
from .graphs import Graph, mask_of, vertices_of

BRUTE_FORCE_CAP = 20  # 2^n subset sweep


@dataclass(frozen=True)
class CutSetRecord:
    """One (possibly empty) cut set W with its minimal-prime data.

    parts holds the vertex sets of the components of G minus W, in the
    labels of the graph handed to the enumerator.  dim = n - |W| + c.
    """

    W: tuple[int, ...]
    c: int
    dim: int
    parts: tuple[tuple[int, ...], ...]

    @property
    def mask(self) -> int:
        return mask_of(self.W)

    def sort_key(self):
        return (len(self.W), self.W)


def _component_count_table(G: Graph) -> tuple[bytearray, array]:
    """comp[m] = number of components of G[m]; nb[m] = union of adj over m.

    Both are filled in one ascending pass, block by block: the masks whose
    highest vertex is v are [2^(v-1), 2^v).  nb[m] extends nb[m minus v],
    so one lookup yields the neighbourhood of a whole vertex set.  comp[m]
    floods the component of v inside m and strips it; the remainder (a
    smaller mask) is already known.
    """
    adj = G.adj
    comp = bytearray(G.full_mask + 1)  # at most n <= 64 components
    nb = array("I" if G.n <= 32 else "Q", [0]) * (G.full_mask + 1)
    for v in range(1, G.n + 1):
        top = 1 << (v - 1)
        a = adj[v]
        for m in range(top, top << 1):
            nb[m] = nb[m ^ top] | a
            cc = top
            grown = a & m | top
            while grown != cc:  # nb[cc] is known: cc lies inside m
                cc = grown
                grown = nb[cc] & m | cc
            comp[m] = 1 + comp[m ^ cc]
    return comp, nb


def _record(G: Graph, nb: array, wmask: int, c: int) -> CutSetRecord:
    """Record of W = wmask, its components flooded in G's own vertex space."""
    rest = G.full_mask ^ wmask
    parts = []
    while rest:  # components come out sorted by their smallest vertex
        cc = rest & -rest
        grown = nb[cc] & rest | cc
        while grown != cc:
            cc = grown
            grown = nb[cc] & rest | cc
        parts.append(tuple(G.labels[v] for v in vertices_of(cc)))
        rest ^= cc
    if c != len(parts):
        raise AssertionError(f"component count mismatch for W={vertices_of(wmask)}")
    W = tuple(G.labels[v] for v in vertices_of(wmask))
    return CutSetRecord(W, len(parts), G.n - wmask.bit_count() + len(parts), tuple(parts))


def cutsets_bruteforce(G: Graph, cap: int = BRUTE_FORCE_CAP) -> tuple[CutSetRecord, ...]:
    """All W whose prime is minimal, by the removal test over all 2^n subsets."""
    if G.n > cap:
        raise ResourceCapError(
            f"brute-force cut-set sweep capped at n <= {cap} (got n = {G.n}); "
            "use the structural enumerator for closed graphs"
        )
    comp, nb = _component_count_table(G)
    full = G.full_mask
    records = [_record(G, nb, 0, comp[full])]
    for wmask in range(1, full):  # W = [n] has c(W) = 0, never minimal
        rest = full ^ wmask
        cw = comp[rest]
        w = wmask
        while w:  # putting back any single vertex of W must drop the count
            low = w & -w
            if comp[rest | low] >= cw:
                break
            w ^= low
        if not w:
            records.append(_record(G, nb, wmask, cw))
    return tuple(sorted(records, key=CutSetRecord.sort_key))


def cutsets_structural(F: IntervalFacets) -> tuple[CutSetRecord, ...]:
    """Cut sets of a connected closed graph from its facet intervals.

    W = W_{j_1} | ... | W_{j_t} with j_1 < ... < j_t is admissible exactly
    when max(W_{j_i}) + 1 < min(W_{j_{i+1}}) for consecutive picks; such a
    W has c(W) = t + 1 and the components are the contiguous runs of the
    surviving vertices.
    """
    if not F.is_connected:
        raise ValueError("structural enumeration needs a connected facet sequence; "
                         "split components first")
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


def cutsets_closed(G: Graph) -> tuple[CutSetRecord, ...]:
    """Cut sets of an arbitrary closed graph.

    Components contribute independently: W is a cut set of G iff its trace
    on every component is a cut set there or empty.  Records come back in
    the labels of G.
    """
    from .closed import recognize_closed, split_components

    rec = recognize_closed(G)
    if rec is None:
        raise ValueError("graph is not closed")
    labeling, facets = rec
    inv = [G.labels[v] for v in labeling.inverse()]  # new label -> name in G's labels
    per_comp = []
    for block in split_components(facets):
        recs = cutsets_structural(block.facets)
        mapped = []
        for r in recs:
            W = tuple(sorted(inv[v + block.start - 1] for v in r.W))
            parts = tuple(tuple(sorted(inv[v + block.start - 1] for v in p)) for p in r.parts)
            mapped.append((W, r.c, parts))
        per_comp.append(mapped)
    combined = [((), 0, ())]
    for comp_recs in per_comp:
        combined = [
            (w0 + w1, c0 + c1, p0 + p1)
            for (w0, c0, p0) in combined
            for (w1, c1, p1) in comp_recs
        ]
    out = []
    for w, c, parts in combined:
        W = tuple(sorted(w))
        parts = tuple(sorted(parts, key=lambda p: p[0]))
        out.append(CutSetRecord(W, c, G.n - len(W) + c, parts))
    return tuple(sorted(out, key=CutSetRecord.sort_key))


def krull_dimension(records, n: int) -> int:
    """max over minimal primes of n + c(W) - |W| (dimension in 2n variables)."""
    recs = list(records)
    if not recs:
        raise ValueError("need at least the empty cut set")
    return max(n + r.c - len(r.W) for r in recs)


def is_unmixed(records) -> bool:
    """True when every minimal prime has the dimension of the W = {} prime."""
    recs = list(records)
    base = next((r for r in recs if not r.W), None)
    if base is None:
        raise ValueError("record collection must contain the empty cut set")
    return all(r.c == len(r.W) + base.c for r in recs)


def filtration_components(records, i: int) -> tuple[CutSetRecord, ...]:
    """Records with dim > i: the components surviving in the i-th filtration ideal."""
    recs = sorted(records, key=CutSetRecord.sort_key)
    top = max(r.dim for r in recs)
    if not -1 <= i <= top - 1:
        raise ValueError(f"filtration index {i} outside -1..{top - 1}")
    return tuple(r for r in recs if r.dim > i)
