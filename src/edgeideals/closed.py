"""Closed (proper interval) graphs: recognition, interval facets, blocks.

A labeling of G is *closed* when the maximal cliques are integer intervals
F_1 = [a_1,b_1], ..., F_r = [a_r,b_r] with 1 = a_1 < ... < a_r and
b_1 < ... < b_r = n.  Equivalently, every closed neighbourhood N[v] is a
set of consecutive labels; equivalently, i < j < k and {i,k} an edge force
{i,j} and {j,k} to be edges.  A graph is closed when some labeling is.

Each question about a facet list is answered by one walk over it, kept
here.  `decompose_blocks` splits it wherever two consecutive facets share
at most one vertex (a gap between components, or a single vertex between
blocks); the classifier reads components, CM and dimension off that one
pass.  `_neighbourhoods` yields the closed neighbourhood of each label,
the interval from the first facet containing it to the last; it builds
the graph of the facets and certifies recognition's labeling.

Recognition runs a three-sweep lexicographic BFS (LBFS then two LBFS+
sweeps, Corneil's proper-interval scheme) and then *verifies* the
candidate ordering with the consecutive-neighbourhood test, so a positive
answer is always certified; an exhaustive all-labelings oracle lives in
the test suite only.  The sweeps run on the true-twin quotient Q of G
(`graphs.twin_quotient`: equal closed neighbourhoods merged, classes
indexed by their lowest vertex), which is G itself when G has no twins.
A graph is closed exactly when Q is (Deng-Hell-Huang), and Q's third
order, each class listed in ascending label, is G's own third sweep on
every closed G (`_third_sweep` gives the argument), so labelings and
facets are those of sweeping G.  Each sweep is partition refinement on
bit masks: the unvisited vertices form an ordered list of class masks,
and visiting v splits every class k into k & N(v) followed by the rest.
A sweep finishes a component before it starts the next, as unvisited
vertices of a started component have the larger labels, so the
components fall out of the third order as the gaps of its facet list.
The first sweep runs in Q's own vertex space; the LBFS+ sweeps run in the
rank space of the previous order (bit r stands for its r-th vertex), so
each tie-break is the lowest or the highest bit of the first class.
Building Q (skipped when G has no twins) and those two sweeps are the
only relabelings (`permute_masks`) per graph.  The closedness test of the
expanded third order and the round-trip certificate of the final labeling
stay in G's vertex space: both compare each closed neighbourhood with a
difference of two prefix masks, the vertices among the first k of an
order.  So every "yes" is certified in G, and every "no" is complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphInputError, NotClosedError
from .graphs import MAX_VERTICES, Graph, _text_rows, bits, permute_masks, twin_quotient


@dataclass(frozen=True)
class IntervalFacets:
    """Maximal cliques of a closed-labeled graph, as intervals (a_i, b_i).

    Invariants (checked on construction):
      * 1 = a_1 < a_2 < ... < a_r and b_1 < b_2 < ... < b_r = n,
      * a_i <= b_i, and a_{i+1} <= b_i + 1 so the intervals cover [n],
    which together make the facets pairwise incomparable.  The represented
    graph is connected iff a_{i+1} <= b_i for every i < r; the gaps with
    a_{i+1} = b_i + 1 are the component boundaries.
    """

    n: int
    facets: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "facets", tuple((a, b) for a, b in self.facets))
        f = self.facets
        if not isinstance(self.n, int) or not all(isinstance(x, int) for pair in f for x in pair):
            raise TypeError(f"n and the facet endpoints must be ints: n={self.n!r}, facets={f!r}")
        if self.n < 1 or not f:
            raise ValueError("need n >= 1 and at least one facet")
        if f[0][0] != 1 or f[-1][1] != self.n:
            raise ValueError(f"facets {f} must start at 1 and end at n={self.n}")
        for a, b in f:
            if a > b:
                raise ValueError(f"empty interval ({a},{b})")
        for (a1, b1), (a2, b2) in zip(f, f[1:]):
            if not a1 < a2:
                raise ValueError(f"lower endpoints not strictly increasing: {f}")
            if not b1 < b2:
                raise ValueError(f"upper endpoints not strictly increasing: {f}")
            if a2 > b1 + 1:
                raise ValueError(f"vertex {b1 + 1} not covered by any facet: {f}")

    @property
    def r(self) -> int:
        return len(self.facets)

    @property
    def is_connected(self) -> bool:
        return all(a2 <= b1 for (_, b1), (a2, _) in zip(self.facets, self.facets[1:]))

    def flattened(self) -> tuple[int, ...]:
        return tuple(x for ab in self.facets for x in ab)


@dataclass(frozen=True)
class ClosedLabeling:
    """Bijection old label -> new label making the maximal cliques intervals."""

    perm: tuple[int, ...]  # length n+1, perm[0] unused

    @property
    def n(self) -> int:
        return len(self.perm) - 1

    def inverse(self) -> tuple[int, ...]:
        inv = [0] * len(self.perm)
        for old in range(1, len(self.perm)):
            inv[self.perm[old]] = old
        return tuple(inv)

    def apply(self, G: Graph) -> Graph:
        """Relabel G: vertex v of G becomes vertex perm[v] of the result."""
        if len(self.perm) != G.n + 1 or sorted(self.perm[1:]) != list(range(1, G.n + 1)):
            raise ValueError(f"labeling {self.perm[1:]} is not a bijection of 1..{G.n}")
        target = [None] + [p - 1 for p in self.perm[1:]]
        adj = [0] * (G.n + 1)
        for v, m in enumerate(permute_masks(G.adj[1:], target), start=1):
            adj[self.perm[v]] = m
        return Graph(G.n, tuple(adj))


@dataclass(frozen=True)
class Block:
    """A re-indexed piece of a facet sequence, with its label map.

    Pieces are contiguous vertex ranges of the parent, so the label map is
    a translation: parent vertex = start + local - 1.
    """

    start: int
    facets: IntervalFacets

    @property
    def n(self) -> int:
        return self.facets.n


def closed_labeling_witness(G: Graph):
    """None if the identity labeling of G is closed, else a witness.

    The witness is ((i, k), (u, v)) with {i,k} an edge, i < v < k, and
    {u,v} a missing pair forced by the interval condition.
    """
    for v in range(1, G.n + 1):
        m = G.adj[v] | (1 << (v - 1))
        lo = (m & -m).bit_length() - 1
        hi = m.bit_length() - 1
        if m != (((1 << (hi + 1)) - 1) >> lo) << lo:
            # N[v] is not consecutive; dig out an explicit triple
            for j in range(lo + 1, hi + 1):
                if not (m >> j) & 1:
                    i, k, mid = lo + 1, hi + 1, j + 1
                    far = k if mid > v else i
                    return ((min(v, far), max(v, far)), (min(v, mid), max(v, mid)))
    return None


def interval_facets(G: Graph) -> IntervalFacets:
    """Maximal cliques of an identity-closed-labeled graph, as intervals.

    The identity order goes through recognition's closedness test; the
    witness of a non-closed labeling is looked for only after it fails.
    An asymmetric adjacency raises GraphInputError, as in recognition: the
    failure path checks symmetry first, and the facets of a passing order
    go through the round-trip certificate with the identity labeling.
    """
    F = _closed_order_facets(G.adj, list(range(1, G.n + 1)))
    if F is None:
        _require_symmetric(G)
        present, missing = witness = closed_labeling_witness(G)
        raise NotClosedError(
            f"labeling is not closed: edge {present} forces pair {missing}",
            witness=witness,
        )
    _verify_roundtrip(G, ClosedLabeling(tuple(range(G.n + 1))), F)
    return F


def _neighbourhoods(F: IntervalFacets):
    """Yield the closed neighbourhood (lo, hi) of each label u = 1..n.

    In the graph of F it is the union of the facets containing u: from the
    lower end of the first facet with b >= u to the upper end of the last
    facet with a <= u.  Both facet pointers only move forward.
    """
    f = F.facets
    first = last = 0
    for u in range(1, F.n + 1):
        while f[first][1] < u:
            first += 1
        while last + 1 < len(f) and f[last + 1][0] <= u:
            last += 1
        yield f[first][0], f[last][1]


def build_graph(F: IntervalFacets) -> Graph:
    """The closed graph whose maximal cliques are the facet intervals."""
    adj = [0]
    for u, (lo, hi) in enumerate(_neighbourhoods(F), start=1):
        adj.append(((1 << hi) - (1 << (lo - 1))) ^ 1 << (u - 1))
    return Graph(F.n, tuple(adj))


# -- recognition --------------------------------------------------------------


def _sweep(adj, highest: bool) -> list[int]:
    """Lexicographic BFS by partition refinement; returns bit positions.

    adj[b] is the neighbour mask of bit b, for every bit b < len(adj).  The
    unvisited bits are kept as an ordered list of class masks, largest
    label first, so the first class holds the unvisited vertices of
    lexicographically largest label.  The next vertex is its lowest bit,
    or its highest when `highest`; visiting v splits every class k into
    k & N(v), which just gained a time stamp, followed by the rest of k.
    """
    order = []
    classes = [(1 << len(adj)) - 1]
    while classes:
        first = classes[0]
        b = first.bit_length() - 1 if highest else (first & -first).bit_length() - 1
        order.append(b)
        classes[0] = first ^ (1 << b)
        nb = adj[b]
        split = []
        for k in classes:
            inside = k & nb
            if inside:
                split.append(inside)
                if inside != k:
                    split.append(k ^ inside)
            elif k:
                split.append(k)
        classes = split
    return order


def _in_order(adj, order: list[int]) -> list[int]:
    """Neighbour masks of the vertices in `order`, relabeled so bit r is order[r]."""
    target = [None] * len(adj)
    for r, v in enumerate(order):
        target[v] = r
    return permute_masks([adj[v] for v in order], target)


def _lbfs(adj, prev: list[int] | None) -> list[int]:
    """One lexicographic BFS sweep over all vertices of G.

    adj is indexed by 1-based vertex.  Ties go to the smallest vertex on
    the first sweep, which runs in G's own vertex space where that is the
    lowest bit.  An LBFS+ sweep (prev given, a previous sweep) breaks ties
    towards the vertex latest in prev, which also makes prev[-1] the
    start; it runs in rank space, where bit r is prev[r], so that vertex
    is the highest bit.
    """
    if prev is None:
        return [b + 1 for b in _sweep(adj[1:], False)]
    ranks = _sweep(_in_order(adj, prev), True)
    return [prev[r] for r in ranks]


def _closed_order_facets(adj, order: list[int]) -> IntervalFacets | None:
    """Facets of the ordering `order` of G's vertices, or None if it is not closed.

    prefix[k] is the mask of the first k vertices of the order, in G's own
    vertex space.  In a closed ordering the closed neighbourhood of the
    vertex at position p is the run of positions lo..hi-1, with lower ends
    monotone in p; so one pointer finds lo, hi = lo + |N[v]|, and the order
    is closed iff N[v] == prefix[hi] ^ prefix[lo] for every v.  The facets
    are the (p + 1, hi) at which hi grows.
    """
    prefix = [0]
    for v in order:
        prefix.append(prefix[-1] | 1 << (v - 1))
    facets = []
    lo = top = 0
    for p, v in enumerate(order):
        nb = adj[v] | 1 << (v - 1)
        while not (nb >> (order[lo] - 1)) & 1:
            lo += 1
        hi = lo + nb.bit_count()
        if hi > len(order) or nb != prefix[hi] ^ prefix[lo]:
            return None
        if hi > top:
            facets.append((p + 1, hi))
            top = hi
    return IntervalFacets(len(order), tuple(facets))


def _third_sweep(G: Graph) -> list[int]:
    """The third of recognition's sweeps, run on the true-twin quotient Q.

    The three `_lbfs` sweeps run over Q's classes, and the third order is
    expanded class by class, each class in ascending label.  On every
    closed G this is G's own third sweep:
      * true twins share a partition class in every sweep until one of
        them is visited (a visit splits no twin class), and the rest of
        them stay in the first class until visited;
      * the first sweep meets the classes in Q's order, as a class's
        lowest vertex is its tie-break there, and lists twins ascending;
        each LBFS+ sweep breaks ties by the previous order, so reverses
        them, and the third lists them ascending again;
      * the third sweep of a closed G is a closed order (Corneil), and in
        any closed order twins are consecutive: a vertex between two twins
        has their closed neighbourhood, so it is their twin;
      * so G's third sweep is a closed order of Q, expanded; a connected
        twin-free closed graph, as each component of Q is, has one closed
        order up to reversal, and the direction follows from the class in
        which the first sweep ends, where the second starts.
    The tests check the equality against the reference sweeps of G, on
    every labeled graph with n <= 6 and on sampled twin-heavy graphs.  On
    a G that is not closed the two may differ, but then neither order is
    closed: Q is closed exactly when G is.
    """
    qadj, classes = twin_quotient(G)
    pi = _lbfs(qadj, _lbfs(qadj, _lbfs(qadj, None)))
    if qadj is G.adj:
        return pi
    order = []
    for k in pi:  # class k's vertices, lowest first
        m = classes[k - 1]
        while m:
            low = m & -m
            order.append(low.bit_length())
            m ^= low
    return order


def recognize_closed(G: Graph) -> tuple[ClosedLabeling, IntervalFacets] | None:
    """Decide closedness; on success return a canonical labeling and facets.

    The three sweeps run on the true-twin quotient Q, and Q's third order
    is expanded into G's vertices, each twin class in ascending label
    (`_third_sweep`, which argues that this is G's own third sweep when G
    is closed).  The closedness test, the pieces and the certificate below
    work on that order in G's vertex space, so a "yes" is certified in G;
    a "no" is complete because Q is closed exactly when G is.

    The third sweep lists each component as one run, and in a closed order
    the facet list of each run is a connected one, so the components are
    the pieces of the facet list between its gaps a_j = b_{j-1} + 1.  Each
    piece is re-indexed to 1..n_c and given the orientation whose flattened
    facet tuple is lexicographically smaller.  A component goes before
    another when its flattened tuple is smaller, a proper prefix counting
    as larger (the sentinel n + 1), and equal ones keep the order of the
    sweep, by smallest vertex; no other order of the components makes the
    global flattened tuple smaller.  The labeling is indexed by G's
    vertices 1..n.  The returned facets are reproduced exactly by
    rebuilding the graph from them and applying the inverse labeling
    (verified before returning).

    `Graph` does not check that its adjacency is symmetric, so each way of
    failing checks it first and raises GraphInputError for an asymmetric
    one; success implies symmetry, as the round trip rebuilds every closed
    neighbourhood from the facets.
    """
    if G.n < 1:
        raise GraphInputError("recognition needs at least one vertex")
    pi3 = _third_sweep(G)
    F = _closed_order_facets(G.adj, pi3)
    if F is None:
        _require_symmetric(G)
        return None
    flat = F.flattened()
    pieces = []
    start = 0
    for j in range(2, len(flat) + 1, 2):
        if j == len(flat) or flat[j] > flat[j - 1]:  # a gap, or the end
            lo, hi = flat[start] - 1, flat[j - 1]
            fwd = tuple(x - lo for x in flat[start:j])
            rev = tuple(hi + 1 - x for x in reversed(flat[start:j]))
            order = pi3[lo:hi]
            if rev < fwd:
                fwd, order = rev, order[::-1]
            pieces.append((fwd + (G.n + 1,), order))
            start = j
    pieces.sort(key=lambda p: p[0])
    perm = [0] * (G.n + 1)
    facets = []
    offset = 0
    for key, order in pieces:
        for pos, v in enumerate(order, start=offset + 1):
            perm[v] = pos
        ends = iter(key[:-1])
        facets.extend((a + offset, b + offset) for a, b in zip(ends, ends))
        offset += len(order)
    labeling = ClosedLabeling(tuple(perm))
    result = IntervalFacets(G.n, tuple(facets))
    _verify_roundtrip(G, labeling, result)
    return labeling, result


def _require_symmetric(G: Graph) -> None:
    """Raise GraphInputError unless every neighbour of every vertex of G
    lists that vertex back; recognition calls it on its failure paths only."""
    adj = G.adj
    for v in range(1, G.n + 1):
        for b in bits(adj[v]):
            if not adj[b + 1] >> (v - 1) & 1:
                raise GraphInputError(
                    f"adjacency is not symmetric: {b + 1} is a neighbour of {v}, but not {v} of {b + 1}"
                )


def _verify_roundtrip(G: Graph, labeling: ClosedLabeling, F: IntervalFacets):
    """Check that the graph of F, relabeled by the inverse labeling, is G.

    The labeling must be a bijection of 1..n.  In the graph of F the closed
    neighbourhood of label u is the interval [lo, hi] of `_neighbourhoods`.
    With prefix[k] the mask, in G's vertex space, of the
    vertices labeled 1..k, that interval is prefix[hi] ^ prefix[lo - 1],
    and it must equal the closed neighbourhood in G of the vertex labeled u.
    """
    n = G.n
    if F.n != n or sorted(labeling.perm[1:]) != list(range(1, n + 1)):
        _require_symmetric(G)
        raise AssertionError("recognition round-trip: the labeling is not a bijection of 1..n")
    inv = labeling.inverse()
    prefix = [0]
    for v in inv[1:]:
        prefix.append(prefix[-1] | 1 << (v - 1))
    for v, (lo, hi) in zip(inv[1:], _neighbourhoods(F)):
        if prefix[hi] ^ prefix[lo - 1] != G.adj[v] | 1 << (v - 1):
            _require_symmetric(G)
            raise AssertionError("recognition round-trip failed to reproduce the input graph")


# -- connected cut sets and blocks --------------------------------------------


def connected_cutsets(F: IntervalFacets) -> tuple[tuple[int, int], ...]:
    """W_i = F_i intersect F_{i+1} = [a_{i+1}, b_i], for i = 1..r-1."""
    if not F.is_connected:
        raise ValueError("facets describe a disconnected graph: "
                         "consecutive facets must share a vertex")
    if F.r < 2:
        raise ValueError("need at least two facets")
    return tuple((a2, b1) for (_, b1), (a2, _) in zip(F.facets, F.facets[1:]))


def decompose_blocks(F: IntervalFacets) -> tuple[Block, ...]:
    """Split a facet sequence into its indecomposable blocks, re-indexed.

    A block ends wherever two consecutive facets share at most one vertex
    (a_{i+1} >= b_i): at a gap a_{i+1} = b_i + 1 between components, or at
    a cut W_i = {b_i} of one vertex, which glues two subgraphs at a vertex
    free on both sides.  Inside a block every |W_i| >= 2.  Block starts are
    vertices of F; concatenating the blocks reconstructs F.
    """
    f = F.facets
    out = []
    start = 0
    for i in range(1, F.r + 1):
        if i == F.r or f[i][0] >= f[i - 1][1]:
            lo, hi = f[start][0], f[i - 1][1]
            fac = tuple((a - lo + 1, b - lo + 1) for a, b in f[start:i])
            out.append(Block(lo, IntervalFacets(hi - lo + 1, fac)))
            start = i
    return tuple(out)


def is_indecomposable(F: IntervalFacets) -> bool:
    """One block under `decompose_blocks`: every consecutive pair of facets
    shares at least two vertices (vacuous for r = 1)."""
    return all(a2 < b1 for (_, b1), (a2, _) in zip(F.facets, F.facets[1:]))


# -- facet text format ---------------------------------------------------------
#
#   header "closed n r", then r lines "a_i b_i"


def parse_facet_text(text: str) -> IntervalFacets:
    rows = [fields for _, _, fields in _text_rows(text)]
    if not rows or rows[0][0] != "closed" or len(rows[0]) != 3:
        raise GraphInputError("facet text must start with a 'closed n r' header")
    for row in rows[1:]:
        if len(row) != 2:
            raise GraphInputError(f"facet text: expected 'a b', got {' '.join(row)!r}")
    try:
        n, r = int(rows[0][1]), int(rows[0][2])
        facets = tuple((int(a), int(b)) for a, b in rows[1:])
    except ValueError:
        raise GraphInputError("facet text: non-integer field")
    if n > MAX_VERTICES:  # before any work on the facets, with the 1..64 message
        raise GraphInputError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    if len(facets) != r:
        raise GraphInputError(f"facet text: header promises {r} facets, got {len(facets)}")
    try:
        return IntervalFacets(n, facets)
    except ValueError as exc:
        raise GraphInputError(f"invalid facet sequence: {exc}")


def format_facet_text(F: IntervalFacets) -> str:
    lines = [f"closed {F.n} {F.r}"]
    lines += [f"{a} {b}" for a, b in F.facets]
    return "\n".join(lines) + "\n"
