"""Simple undirected graphs on the vertex set {1..n}, stored as bit sets.

Vertex v occupies bit v-1 of every mask, so a vertex subset is a plain int
and set algebra is word arithmetic.  n is capped at 64, so a vertex set fits
in one machine word: recognition and the classifiers serve every n <= 64,
while the exhaustive sweeps (cut sets, the homology oracle) carry their own,
smaller caps.

All public interfaces speak 1-based vertex labels.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import or_, xor

from .errors import GraphInputError

MAX_VERTICES = 64
_FILL_CHUNK = 1 << 12  # words per slice of the union_table fill
_BIT = [1 << b for b in range(MAX_VERTICES)]  # _BIT[b] is bit b


def bits(mask: int):
    """Yield the set bit positions of mask, ascending (0-based)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    """Bit mask of an iterable of 1-based vertex labels."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def union_of(masks) -> int:
    """Bitwise OR of an iterable of masks; 0 when it is empty."""
    return reduce(or_, masks, 0)


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based vertex labels of a mask."""
    return tuple(b + 1 for b in bits(mask))


def permute_masks(masks, target) -> list[int]:
    """Relabel masks: bit v-1 moves to bit target[v].

    target is indexed by 1-based vertex (target[0] unused), holds an int
    at every other index, and must cover every bit set in the masks.  It
    need not be one-to-one: bits with the same target merge into one.  The
    map is read in 4-bit slices: one table of 16 images per nibble, built
    by doubling, so a mask costs one lookup per nibble instead of one step
    per set bit.
    """
    images = [1 << t for t in target[1:]]
    images += [0] * (-len(images) % 4)
    tables = []
    for i in range(0, len(images), 4):
        a, b, c, d = images[i : i + 4]
        ab, cd = a | b, c | d
        # [0] doubled by a, then by b, then by c, then by d
        tables.append([0, a, b, ab, c, a | c, b | c, ab | c,
                       d, a | d, b | d, ab | d, cd, a | cd, b | cd, ab | cd])
    out = []
    for m in masks:
        acc = 0
        for table in tables:
            if not m:
                break
            acc |= table[m & 15]
            m >>= 4
        out.append(acc)
    return out


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on {1..n}.

    adj has length n+1 (entry 0 unused); adj[v] holds bit u-1 for every
    neighbour u of v.  No loops, adjacency symmetric.  The constructor
    refuses a nonzero adj[0], a negative entry or a bit above n, and a
    loop; each check is O(n).  Symmetry is not checked: at n = 36 a full
    check takes about 80 us against about 4 us for these three (Python
    3.11), so an asymmetric adj is the caller's error.  Recognition and
    `interval_facets`, which succeed only on a symmetric adj, refuse an
    asymmetric one with a GraphInputError.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise TypeError(f"vertex count must be an int, got {self.n!r}")
        if not 0 <= self.n <= MAX_VERTICES:
            raise GraphInputError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n + 1:
            raise GraphInputError(f"adjacency has {len(self.adj)} entries, need n + 1 = {self.n + 1}")
        adj = self.adj
        if adj[0]:
            raise GraphInputError(f"adjacency entry 0 is unused and must be 0, got {adj[0]}")
        if max(adj) >> self.n or min(adj) < 0:
            raise GraphInputError(f"adjacency has a neighbour outside 1..{self.n}")
        for v, a in enumerate(adj[1:], 1):
            if a >> (v - 1) & 1:
                raise GraphInputError(f"loop at vertex {v}")

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for v in range(1, self.n + 1):
            for b in bits(self.adj[v]):
                if b + 1 > v:
                    out.append((v, b + 1))
        return tuple(out)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def from_edge_list(n: int, edges) -> Graph:
    """Build a graph from unordered vertex pairs; duplicates are merged."""
    if not isinstance(n, int):
        raise TypeError(f"vertex count must be an int, got {n!r}")
    if not 1 <= n <= MAX_VERTICES:
        raise GraphInputError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    adj = [0] * (n + 1)
    for e in edges:
        u, v = e
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphInputError(f"edge {{{u},{v}}} has an endpoint outside 1..{n}")
        if u == v:
            raise GraphInputError(f"loop at vertex {u}")
        adj[u] |= 1 << (v - 1)
        adj[v] |= 1 << (u - 1)
    return Graph(n, tuple(adj))


def union_table(masks) -> array:
    """t[s] = OR of masks[k] over the bits k of s, for every s < 2^len(masks).

    Filled in place: the entries whose highest bit is k are [2^k, 2^(k+1)),
    and t[s] = t[s minus bit k] | masks[k], one slice of up to _FILL_CHUNK
    words at a time, ORed as a single integer.  The entries are 32-bit
    words, so at most 32 masks are accepted, each with no bit at or above
    len(masks): a wider mask would carry into the next word.  Both are
    checked before the table is allocated.
    """
    masks = list(masks)
    m = len(masks)
    if m > 32:
        raise ValueError(f"union table over {m} masks; at most 32 fit its 32-bit words")
    if any(x >> m for x in masks):
        raise ValueError(f"union table mask outside bits 0..{m - 1}")
    t = array("I", [0]) * (1 << m)
    width = t.itemsize
    with memoryview(t) as words, words.cast("B") as raw:
        for k, x in enumerate(masks):
            top = (1 << k) * width  # byte offsets from here on
            step = min(top, _FILL_CHUNK * width)
            spread = x * (((1 << 8 * step) - 1) // ((1 << 8 * width) - 1))
            for lo in range(0, top, step):  # spread holds x in every word of a slice
                block = int.from_bytes(raw[lo : lo + step], sys.byteorder) | spread
                raw[top + lo : top + lo + step] = block.to_bytes(step, sys.byteorder)
    return t


def components(table, within: int):
    """Yield the components of the vertex set `within`, lowest bit first.

    table[s] is the neighbourhood union of s (a `union_table` of the
    adjacency); each component is flooded from its lowest bit, one table
    lookup per step.
    """
    while within:
        cc = within & -within
        grown = table[cc] & within | cc
        while grown != cc:
            cc = grown
            grown = table[cc] & within | cc
        yield cc
        within ^= cc


def _bron_kerbosch(adj: tuple[int, ...], R: int, P: int, X: int, out: list[int]):
    # pivoting branch and bound; fine for n <= 64
    if P == 0 and X == 0:
        out.append(R)
        return
    pivot = -1
    best = -1
    for b in bits(P | X):
        d = (P & adj[b + 1]).bit_count()
        if d > best:
            best, pivot = d, b
    for b in bits(P & ~adj[pivot + 1]):
        v = 1 << b
        _bron_kerbosch(adj, R | v, P & adj[b + 1], X & adj[b + 1], out)
        P &= ~v
        X |= v


def clique_degree(G: Graph, v: int) -> int:
    """Number of maximal cliques containing v; v is a free vertex iff 1."""
    if not 1 <= v <= G.n:
        raise GraphInputError(f"vertex {v} outside 1..{G.n}")
    b = 1 << (v - 1)
    out: list[int] = []
    _bron_kerbosch(G.adj, 0, G.full_mask, 0, out)
    return sum(1 for m in out if m & b)


def simplicial_mask(G: Graph) -> int:
    """Mask of the simplicial vertices, those whose neighbourhood is a clique.

    An isolated vertex counts: its neighbourhood is the empty clique.
    """
    adj = G.adj
    out = 0
    for v in range(1, G.n + 1):
        if all(not adj[v] & ~(adj[b + 1] | 1 << b) for b in bits(adj[v])):
            out |= 1 << (v - 1)
    return out


def twin_quotient(G: Graph) -> tuple[tuple[int, ...], list[int]]:
    """The true-twin quotient Q of G: its adjacency and the mask of each class.

    True twins have equal closed neighbourhoods; each class of them shrinks
    to one vertex of Q.  Class k is vertex k + 1 of Q, and the classes come
    in order of their lowest vertex, so Q's lowest-bit-first order is G's
    order of smallest vertices.  The adjacency is indexed like `Graph.adj`
    (entry 0 is 0) and has no loops; a twin-free G (q = n) returns its own
    adjacency, G.adj itself, with the single bits as classes.  Twin classes
    are cliques and two adjacent classes are completely joined, so every
    edge of Q stands for all edges between its two classes.
    """
    adj = G.adj
    closed = [*map(or_, islice(adj, 1, None), _BIT)]
    members = dict.fromkeys(closed, 0)  # closed neighbourhood -> its class mask
    if len(members) == G.n:
        return adj, _BIT[: G.n]
    for nv, b in zip(closed, _BIT):
        members[nv] |= b
    index = dict(zip(members, range(len(members))))
    target = [0, *map(index.__getitem__, closed)]  # vertex -> its class
    # class k's closed neighbourhood holds bit k, its own; drop it
    return (0, *map(xor, permute_masks(members, target), _BIT)), [*members.values()]


def _text_rows(text: str):
    """Yield (line number, line, fields) for each line that holds a row.

    Lines are those of str.splitlines, numbered from 1, and fields those of
    str.split.  A line with no field is blank, and one whose first field
    starts with "#" is a comment; neither is yielded.  Both text formats,
    and the CLI's choice between them, read their rows here.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and fields[0][0] != "#":
            yield lineno, line, fields


# -- edge-list text format ---------------------------------------------------
#
#   first non-comment line: "n"
#   following lines:        "u v"   (whitespace separated, 1-based)
#   lines starting with '#' are comments; blank lines are skipped


# The tokens of canonical text are "0".."64", read by one dict lookup each.
# Canonical text is ASCII, and "\n" must be its only line break: it holds
# none of the other ASCII characters that str.splitlines breaks at, nor the
# ";" that stands for "\n" among the tokens.
_TOKEN_VALUE = {str(i): i for i in range(MAX_VERTICES + 1)}
_NOT_CANONICAL = "\r\x0b\x0c\x1c\x1d\x1e;"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; malformed input raises GraphInputError.

    Canonical text (ASCII, "\\n" the only line break, a header line and
    then "u v" lines, no comment or blank line inside) is split once, each
    "\\n" turned into a ";" token: the tokens read n ; u v ; u v ..., with
    perhaps a ";" at the end, so every third token from the second must be
    ";", and the others are read through a lookup of "0".."64".  Telling
    canonical text takes one substring search per refused character and
    no memory of its own.  A min/max range check and one loop that sets
    the adjacency bits end that path.  Any other text, and canonical text
    that fails the lookup, the range check or the loop check, goes to
    `_parse_edge_lines`, which reads it row by row and reports the first
    error.  That costs about 2.5 times the canonical path: on 64 vertices
    and 1,000 edges, 1.0-1.2 ms with CR LF breaks or a leading comment
    against 0.39 ms for canonical text (best of 7, Python 3.11, 2-vCPU
    Xeon).
    """
    n = None
    if text.isascii() and not any(map(text.__contains__, _NOT_CANONICAL)):
        toks = text.replace("\n", " ; ").split()
        # as many ";" as places for one: any ";" out of place leaves one
        # among the other tokens, which the lookup refuses
        if len(toks) % 3 and toks.count(";") == (len(toks) + 1) // 3:
            del toks[1::3]
            try:
                n, *ends = map(_TOKEN_VALUE.__getitem__, toks)
            except KeyError:
                pass
    if n is None or not 1 <= n <= MAX_VERTICES or ends and not (1 <= min(ends) and max(ends) <= n):
        return _parse_edge_lines(text)
    bit = [0, *_BIT[:n]]  # bit[v] is vertex v's bit
    adj = [0] * (n + 1)
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        adj[u] |= bit[v]
        adj[v] |= bit[u]
    if any(map(int.__and__, adj, bit)):  # a loop u u set u's own bit
        return _parse_edge_lines(text)
    return Graph(n, tuple(adj))


def _parse_edge_lines(text: str) -> Graph:
    """Parse edge-list text row by row, raising its first GraphInputError.

    The first row that is not integers, or has the wrong number of fields,
    is reported; then a missing header; then `from_edge_list` reports n out
    of range or the first bad edge.
    """
    n = None
    edges = []
    for lineno, line, fields in _text_rows(text):
        try:
            nums = [*map(int, fields)]
        except ValueError:
            raise GraphInputError(f"line {lineno}: expected integers, got {line.strip()!r}")
        if n is None:
            if len(nums) != 1:
                raise GraphInputError(f"line {lineno}: expected a single vertex count")
            n = nums[0]
        else:
            if len(nums) != 2:
                raise GraphInputError(f"line {lineno}: expected 'u v'")
            edges.append((nums[0], nums[1]))
    if n is None:
        raise GraphInputError("empty edge-list input")
    return from_edge_list(n, edges)
