"""Shared fixtures: showcase graphs, small brute-force oracles and the
test-only reference implementations that the library does not need."""

from contextlib import contextmanager
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import combinations, permutations

import pytest
from hypothesis import strategies as st

from edgeideals import complexes
from edgeideals.closed import (
    Block,
    ClosedLabeling,
    IntervalFacets,
    build_graph,
    closed_labeling_witness,
    is_indecomposable,
)
from edgeideals.complexes import (
    DEFAULT_FACE_CAP,
    SimplicialComplex,
    _boundary_column,
    _faces_of,
    _profile_masks,
    _prune_to_maximal,
)
from edgeideals.cutsets import CutSetRecord, cutsets_bruteforce
from edgeideals.enumerators import random_closed
from edgeideals.errors import GraphInputError, NotClosedError
from edgeideals.graphs import (
    Graph,
    _bron_kerbosch,
    bits,
    from_edge_list,
    mask_of,
    union_of,
    vertices_of,
)


# The four showcase facet sequences exercised throughout the suite.
SEVEN_NOT_SCM = IntervalFacets(7, ((1, 3), (2, 5), (3, 6), (5, 7)))
NINE_SCM = IntervalFacets(9, ((1, 3), (2, 6), (3, 7), (4, 8), (5, 9)))
SEVEN_NOT_ALMOST = IntervalFacets(7, ((1, 4), (3, 6), (5, 7)))
SEVEN_ALMOST = IntervalFacets(7, ((1, 4), (3, 5), (4, 7)))


# Pieces of text-format input: line breaks that str.splitlines honours,
# in-line whitespace that str.split honours but splitlines does not, and
# blank and comment lines
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x85")
SPACES = (" ", "\t", "\xa0", "\u2003", " \t ")
FILLER = ("", " \t", "\u2003", "# comment", "#1 2", "  # 1 x y")


# The engine's homology memos: the profile, CM and pd (depth sweep) caches.
ENGINE_MEMOS = ("_profile_cache", "_cm_cache", "_pd_cache")


@contextmanager
def cold_memos():
    """Run the block with every engine memo empty, then put the old ones back."""
    saved = [getattr(complexes, name) for name in ENGINE_MEMOS]
    for name in ENGINE_MEMOS:
        setattr(complexes, name, {})
    try:
        yield
    finally:
        for name, memo in zip(ENGINE_MEMOS, saved):
            setattr(complexes, name, memo)


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


def has_edge(G: Graph, u: int, v: int) -> bool:
    return bool((G.adj[u] >> (v - 1)) & 1)


def num_edges(G: Graph) -> int:
    return sum(G.adj[v].bit_count() for v in range(1, G.n + 1)) // 2


def maximal_cliques(G: Graph) -> tuple[tuple[int, ...], ...]:
    """All maximal cliques of G, deterministically sorted."""
    out: list[int] = []
    _bron_kerbosch(G.adj, 0, G.full_mask, 0, out)
    return tuple(sorted(vertices_of(m) for m in out))


def format_edge_list(G: Graph) -> str:
    lines = [str(G.n)]
    lines += [f"{u} {v}" for u, v in G.edges()]
    return "\n".join(lines) + "\n"


def cutset_mask(r: CutSetRecord) -> int:
    return mask_of(r.W)


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


def lbfs_ref(adj: dict[int, int], verts: list[int], prev: list[int] | None) -> list[int]:
    """Reference lexicographic BFS sweep: explicit labels and a max scan.

    Labels are lists of decreasing time stamps; the next vertex is the
    unvisited one with the lexicographically largest label.  Ties go to the
    smallest vertex on the first sweep and to the vertex latest in `prev`
    afterwards (the LBFS+ rule), which also makes prev[-1] the start.
    """
    if prev is None:
        rank = {v: -v for v in verts}
    else:
        rank = {v: i for i, v in enumerate(prev)}
    labels: dict[int, list[int]] = {v: [] for v in verts}
    unvisited = set(verts)
    order = []
    stamp = len(verts)
    while unvisited:
        v = max(unvisited, key=lambda w: (labels[w], rank[w]))
        order.append(v)
        unvisited.discard(v)
        for b in bits(adj[v]):
            u = b + 1
            if u in unvisited:
                labels[u].append(stamp)
        stamp -= 1
    return order


def permute_masks_ref(masks, target) -> list[int]:
    """Reference mask relabeling, one set bit at a time."""
    out = []
    for m in masks:
        acc = 0
        for b in bits(m):
            acc |= 1 << target[b + 1]
        out.append(acc)
    return out



def canonical_ref(facets_key: frozenset[int]) -> frozenset[int]:
    """Reference `complexes._canonical`: the vertices in every facet (the
    apex) taken off, the support of the rest packed onto its low bits in
    order one bit at a time, each mask reversed within w bits as a binary
    string, the smaller sorted list kept, and the apex put back as the
    next bits up."""
    if not facets_key:
        return frozenset()
    apex = set.intersection(*(set(bits(m)) for m in facets_key))
    masks = [m & ~sum(1 << b for b in apex) for m in facets_key]
    support = union_of(masks)
    w = support.bit_count()
    target = [None] * (support.bit_length() + 1)
    for k, b in enumerate(bits(support)):
        target[b + 1] = k
    masks = sorted(permute_masks_ref(masks, target))
    flipped = sorted(int(format(m, f"0{w}b")[::-1], 2) for m in masks)
    top = sum(1 << (w + k) for k in range(len(apex)))
    return frozenset(m | top for m in min(masks, flipped))


def parse_edge_list_ref(text: str) -> Graph:
    """Reference edge-list parser: one line at a time, ending in `from_edge_list`.

    The first line that is not integers, or has the wrong number of fields,
    is reported; then a missing header; then `from_edge_list` reports n out
    of range or the first bad edge.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            nums = [*map(int, parts)]
        except ValueError:
            raise GraphInputError(f"line {lineno}: expected integers, got {raw.strip()!r}")
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


def interval_facets_ref(G: Graph) -> IntervalFacets:
    """Reference `interval_facets`: the witness test, then one reach scan per
    vertex (how far the clique of common neighbours extends upwards)."""
    witness = closed_labeling_witness(G)
    if witness is not None:
        present, missing = witness
        raise NotClosedError(
            f"labeling is not closed: edge {present} forces pair {missing}",
            witness=witness,
        )
    n = G.n
    reach = [0] * (n + 2)
    for a in range(1, n + 1):
        b = a
        common = G.adj[a]
        while b < n and (common >> b) & 1:  # bit b is vertex b+1
            b += 1
            common &= G.adj[b]
        reach[a] = b
    facets = [(a, reach[a]) for a in range(1, n + 1) if a == 1 or reach[a] > reach[a - 1]]
    return IntervalFacets(n, tuple(facets))


def closed_order_facets_ref(adj, order: list[int]) -> IntervalFacets | None:
    """Reference closedness test of a vertex order: relabel the adjacency
    into the order and read the facets with `interval_facets_ref`."""
    target = [None] * len(adj)
    for r, v in enumerate(order):
        target[v] = r
    masks = permute_masks_ref([adj[v] for v in order], target)
    try:
        return interval_facets_ref(Graph(len(order), (0, *masks)))
    except NotClosedError:
        return None


def reverse_facets(F: IntervalFacets) -> IntervalFacets:
    """Facets of the same graph under the labeling v -> n + 1 - v."""
    n = F.n
    rev = tuple((n + 1 - b, n + 1 - a) for a, b in reversed(F.facets))
    return IntervalFacets(n, rev)


def build_graph_ref(F: IntervalFacets) -> Graph:
    """Reference `build_graph`: every edge of every facet clique, listed."""
    edges = []
    for a, b in F.facets:
        for u in range(a, b + 1):
            for v in range(u + 1, b + 1):
                edges.append((u, v))
    return from_edge_list(F.n, edges)


def split_components_ref(F: IntervalFacets) -> tuple[Block, ...]:
    """Connected components of a facet sequence (split at every gap
    a_{i+1} = b_i + 1), re-indexed to 1..n_c."""
    groups = [[F.facets[0]]]
    for (_, b1), (a2, b2) in zip(F.facets, F.facets[1:]):
        if a2 == b1 + 1:
            groups.append([])
        groups[-1].append((a2, b2))
    return tuple(_block_ref(g) for g in groups)


def _block_ref(group) -> Block:
    lo, hi = group[0][0], group[-1][1]
    return Block(lo, IntervalFacets(hi - lo + 1, tuple((a - lo + 1, b - lo + 1) for a, b in group)))


def blocks_ref(F: IntervalFacets) -> tuple[Block, ...]:
    """Reference block decomposition: split into components first, then
    each component at every single shared vertex a_{i+1} = b_i; block
    starts are vertices of F."""
    out = []
    for comp in split_components_ref(F):
        groups = [[comp.facets.facets[0]]]
        for (_, b1), (a2, b2) in zip(comp.facets.facets, comp.facets.facets[1:]):
            if a2 == b1:
                groups.append([])
            groups[-1].append((a2, b2))
        out += [Block(comp.start + blk.start - 1, blk.facets) for blk in map(_block_ref, groups)]
    return tuple(out)


def flatten_pieces(pieces) -> tuple[int, ...]:
    """Endpoints of the facets of (order, facets) pieces laid out
    consecutively, as recognition lays out components."""
    out = []
    off = 0
    for _, fac in pieces:
        out.extend(x + off for x in fac.flattened())
        off += fac.n
    return tuple(out)


def component_order_ref(pieces):
    """Reference component order of recognition: the pairwise comparator
    "A before B when flatten(A, B) <= flatten(B, A)" through `cmp_to_key`."""

    def cmp(a, b):
        ab, ba = flatten_pieces([a, b]), flatten_pieces([b, a])
        return -1 if ab < ba else (1 if ab > ba else 0)

    return sorted(pieces, key=cmp_to_key(cmp))


def recognize_component_ref(G: Graph, comp: tuple[int, ...]):
    """Closed labeling of the component `comp` (its vertices) of G alone,
    or None: three `lbfs_ref` sweeps over it, the third order tested by
    `closed_order_facets_ref`, and of it and its reversal the one with the
    smaller flattened facet tuple.  Returns (order, facets), the order
    listing the component's vertices by new label."""
    verts = list(comp)
    pi1 = lbfs_ref(G.adj, verts, None)
    pi2 = lbfs_ref(G.adj, verts, pi1)
    pi3 = lbfs_ref(G.adj, verts, pi2)
    fwd = closed_order_facets_ref(G.adj, pi3)
    if fwd is None:
        return None
    rev = reverse_facets(fwd)
    if rev.flattened() < fwd.flattened():
        return pi3[::-1], rev
    return pi3, fwd


def recognize_closed_ref(G: Graph) -> tuple[ClosedLabeling, IntervalFacets] | None:
    """Reference `recognize_closed`: each component of `components_ref`
    recognized alone by `recognize_component_ref`, the components put in
    the order of `component_order_ref` and laid out consecutively."""
    pieces = []
    for comp in components_ref(G):
        rec = recognize_component_ref(G, comp)
        if rec is None:
            return None
        pieces.append(rec)
    perm, facets, off = [0] * (G.n + 1), [], 0
    for order, fac in component_order_ref(pieces):
        for pos, v in enumerate(order, start=off + 1):
            perm[v] = pos
        facets += [(a + off, b + off) for a, b in fac.facets]
        off += fac.n
    return ClosedLabeling(tuple(perm)), IntervalFacets(G.n, tuple(facets))


@st.composite
def random_graphs(draw):
    """Graphs on up to 10 vertices; sparse draws leave isolated vertices and
    several components."""
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edge_list(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def disconnected_facets(draw, max_pieces: int = 5) -> IntervalFacets:
    """Facets of a disjoint union of 2..max_pieces connected closed graphs.

    Pieces are isolated vertices, single edges, random chains, and copies,
    reversals and proper prefixes of earlier pieces (a prefix of a chain is
    the chain cut after one of its facets), so equal pieces and pieces whose
    flattened tuple is a prefix of another's both occur.  Every piece has
    at most 12 vertices, so n <= 60.
    """
    rng = draw(st.randoms(use_true_random=False))
    pieces: list[IntervalFacets] = []
    for _ in range(draw(st.integers(2, max_pieces))):
        kind = rng.choice(("vertex", "edge", "chain", "chain", "copy", "reverse", "prefix"))
        if kind in ("copy", "reverse", "prefix") and pieces:
            P = rng.choice(pieces)
            if kind == "reverse":
                P = reverse_facets(P)
            elif kind == "prefix":
                cut = rng.randint(1, P.r)
                P = IntervalFacets(P.facets[cut - 1][1], P.facets[:cut])
        else:
            size = {"vertex": 1, "edge": 2}.get(kind) or rng.randint(1, 12)
            P = random_closed(size, rng.getrandbits(64), rng.random())
        pieces.append(P)
    facets, off = [], 0
    for P in pieces:
        facets += [(a + off, b + off) for a, b in P.facets]
        off += P.n
    return IntervalFacets(off, tuple(facets))


def components_ref(G: Graph, removed=()) -> tuple[tuple[int, ...], ...]:
    """Reference components of G minus the removed vertices.

    A plain search over neighbour sets built from the edge list; each part
    is sorted, and the parts come in order of their smallest vertex.
    """
    rest = set(range(1, G.n + 1)) - set(removed)
    nbrs: dict[int, set[int]] = {v: set() for v in rest}
    for u, v in G.edges():
        if u in rest and v in rest:
            nbrs[u].add(v)
            nbrs[v].add(u)
    parts = []
    for start in sorted(rest):
        if start not in rest:
            continue  # already in an earlier part
        seen, stack = {start}, [start]
        while stack:
            for w in nbrs[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        rest -= seen
        parts.append(tuple(sorted(seen)))
    return tuple(parts)


def link(C: SimplicialComplex, face) -> SimplicialComplex:
    """link(sigma) = {tau : tau disjoint from sigma, tau union sigma a face}."""
    sigma = mask_of(face)
    if not any(sigma & f == sigma for f in C.mask_key):
        raise ValueError(f"{sorted(face)} is not a face of the complex")
    masks = [f & ~sigma for f in C.mask_key if f & sigma == sigma]
    return SimplicialComplex(C.n_vertices, _prune_to_maximal(masks))


def induced_subcomplex(C: SimplicialComplex, vertices) -> SimplicialComplex:
    """Faces of C contained in the given vertex set (same universe)."""
    sigma = mask_of(vertices)
    return SimplicialComplex(C.n_vertices, _prune_to_maximal(f & sigma for f in C.mask_key))


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
        nz = _profile_masks(link(C, sigma).mask_key)
        if any(j < d - len(sigma) for j in nz):
            return False
    return True


def is_scm_duval_ref(C: SimplicialComplex) -> bool:
    """Reference Duval check: every pure i-skeleton, built explicitly, is CM."""
    return all(is_cm_reisner_ref(pure_skeleton(C, i)) for i in range(C.dim + 1))


_links_ref_cache: dict[tuple[frozenset[int], int, int], bool] = {}


def links_acyclic_ref(facets_key: frozenset[int], t: int, cap: int) -> bool:
    """Reference link-acyclicity check: every vertex link is built and
    recursed into at every t, memoised apart from the library's cache.

    Whether H_j(lk sigma) = 0 for every face sigma (the empty face too)
    and every -1 <= j < t - |sigma| (reduced homology over Q).
    """
    if t <= -1:
        return True
    if t == 0:
        return facets_key != frozenset({0})  # only degree -1 is asked for
    key = (facets_key, t, cap)
    hit = _links_ref_cache.get(key)
    if hit is not None:
        return hit
    result = not any(d < t and b for d, b in _profile_masks(facets_key, cap).items())
    if result:
        support = 0
        for m in facets_key:
            support |= m
        for b in bits(support):
            v = 1 << b
            # facets through v, minus v, are already pairwise incomparable
            lk = frozenset(f & ~v for f in facets_key if f & v)
            if not links_acyclic_ref(lk, t - 1, cap):
                result = False
                break
    _links_ref_cache[key] = result
    return result


def maximal_masks_ref(masks) -> frozenset[int]:
    """Reference pruning: the masks contained in no other mask of the family."""
    family = set(masks)
    return frozenset(m for m in family if not any(m != k and m & k == m for k in family))


def prime_complex_union_ref(F: IntervalFacets) -> frozenset[int]:
    """Facet masks of the union, over the cut sets W, of the complexes of
    in(P_W), in the oracle's coordinates (x_i at bit i - 1, y_j at bit
    n + j - 1).

    in(P_W) is (x_w, y_w : w in W) plus (x_i y_j : i < j in one component
    of G - W), so its complex is the join, over the components
    v_1 < ... < v_m, of the staircases {y_v1..y_vk, x_vk..x_vm}, k = 1..m.
    The cut sets come from `cutsets_bruteforce` on `build_graph_ref`, and
    `maximal_masks_ref` prunes the union; nothing of the oracle is used.
    """
    n = F.n
    facets = []
    for rec in cutsets_bruteforce(build_graph_ref(F)):
        join = [0]
        for part in rec.parts:
            stairs = [
                sum(1 << (n + v - 1) for v in part[:k]) | sum(1 << (v - 1) for v in part[k - 1:])
                for k in range(1, len(part) + 1)
            ]
            join = [f | g for f in join for g in stairs]
        facets += join
    return maximal_masks_ref(facets)


def leaf_recursion_ref(F: IntervalFacets) -> frozenset[int] | None:
    """The facet sizes of the oracle complex by the leaf recursion, or
    None when that complex is not sequentially CM.

    in(J_G) is the edge ideal of the bipartite graph H with edges x_i y_j
    for the edges i < j of G (the oracle's coordinates: x_i at bit i - 1,
    y_j at bit n + j - 1), so the oracle complex is the independence
    complex of H.  For a bipartite graph, SCM, shellable and vertex
    decomposable coincide (Van Tuyl-Villarreal, JCTA 2008; Van Tuyl, Arch.
    Math. 2009), and a leaf decides it: with x a leaf and y its neighbour,
    H is SCM iff H - N[x] and H - N[y] are, and every facet holds x or y,
    so each facet is x or y added to a facet of one of the two.  An
    isolated vertex is a cone point and adds 1 to every facet size; a
    graph with no edge has the one facet of its isolated vertices, and a
    graph with edges but no leaf is not SCM.  Memoised on the mask of the
    live vertices.  No homology, cut set or classifier code is used.
    """
    n = F.n
    nbr = [0] * (2 * n)
    for i, j in build_graph_ref(F).edges():
        nbr[i - 1] |= 1 << (n + j - 1)
        nbr[n + j - 1] |= 1 << (i - 1)

    @cache
    def sizes(live: int) -> frozenset[int] | None:
        cones = [b for b in bits(live) if not nbr[b] & live]
        live &= ~sum(1 << b for b in cones)
        if not live:
            return frozenset({len(cones)})
        for b in bits(live):
            y = nbr[b] & live
            if y.bit_count() == 1:
                break
        else:
            return None
        x = 1 << b
        branches = sizes(live & ~(x | y)), sizes(live & ~(nbr[y.bit_length() - 1] | y))
        if None in branches:
            return None
        return frozenset(len(cones) + 1 + s for sub in branches for s in sub)

    return sizes((1 << 2 * n) - 1)


def vertex_connectivity_ref(G: Graph) -> int:
    """Fewest vertices whose removal disconnects G (n - 1 when G is complete).

    Brute force over vertex subsets by increasing size, each tested with
    `components_ref`; none of the library's mask or component helpers is
    used.
    """
    for k in range(G.n - 1):
        for W in combinations(range(1, G.n + 1), k):
            if len(components_ref(G, W)) > 1:
                return k
    return G.n - 1


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
            nz = _profile_masks(induced_subcomplex(C, sigma).mask_key)
            if nz:
                best_pd = max(best_pd, size - 1 - min(nz))
    ghosts = C.n_vertices - len(support)
    return C.n_vertices - (best_pd + ghosts)


def rank_fraction_gauss(rows) -> int:
    """Reference rank over Q: plain Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def boundary_matrices(C: SimplicialComplex, max_faces: int = DEFAULT_FACE_CAP) -> dict[int, list[list[int]]]:
    """Dense boundary matrices of the full face complex.

    Faces and columns come from the engine's own `_faces_of` and
    `_boundary_column`, so boundary-squared-zero tests the sign convention
    that the homology computation uses.  Rows and columns run over the
    faces of each dimension in ascending mask order.
    """
    if C.is_void:
        return {}
    faces = _faces_of(C.mask_key, max_faces)
    faces_by_dim: dict[int, list[int]] = {}
    for m in sorted(faces):
        faces_by_dim.setdefault(m.bit_count() - 1, []).append(m)
    out: dict[int, list[list[int]]] = {}
    top = max(faces_by_dim)
    for d in range(0, top + 1):
        row_of = {m: i for i, m in enumerate(faces_by_dim.get(d - 1, []))}
        cols = faces_by_dim[d]
        dense = [[0] * len(cols) for _ in row_of]
        for j, m in enumerate(cols):
            for lower, v in _boundary_column(m).items():
                dense[row_of[lower]][j] = v
        out[d] = dense
    return out


def pure_skeleton(C: SimplicialComplex, i: int) -> SimplicialComplex:
    """Subcomplex generated by all faces of dimension exactly i."""
    if C.is_void:
        raise ValueError("void complex has no skeleta")
    if not -1 <= i <= C.dim:
        raise ValueError(f"skeleton dimension {i} outside -1..{C.dim}")
    if i == -1:
        return SimplicialComplex(C.n_vertices, frozenset({0}))
    faces: set[int] = set()
    for fm in C.mask_key:
        vs = list(bits(fm))
        if len(vs) >= i + 1:
            for combo in combinations(vs, i + 1):
                m = 0
                for b in combo:
                    m |= 1 << b
                faces.add(m)
    return SimplicialComplex(C.n_vertices, frozenset(faces))


def wsize_chain_check(F: IntervalFacets) -> bool:
    """Cross-check form of the sequential-CM condition.

    Looks for a k making the consecutive-intersection sizes |W_1| >= ... >=
    |W_k| <= ... <= |W_{s-1}| unimodal while the endpoint runs of the main
    condition hold at the same k.  Agreement with is_scm_indecomposable on
    every indecomposable block is an acceptance invariant.
    """
    if not is_indecomposable(F):
        raise ValueError("expected an indecomposable connected facet sequence")
    s = F.r
    if s <= 2:
        return True
    alpha = [a for a, _ in F.facets]
    beta = [b for _, b in F.facets]
    sizes = [beta[i] - alpha[i + 1] + 1 for i in range(s - 1)]
    for k in range(1, s):
        chain = all(sizes[i] >= sizes[i + 1] for i in range(k - 1)) and all(
            sizes[i] <= sizes[i + 1] for i in range(k - 1, s - 2)
        )
        uppers = all(beta[j - 1] == beta[0] + (j - 1) for j in range(1, k + 1))
        lowers = all(alpha[m - 1] == alpha[s - 1] - (s - m) for m in range(k + 1, s + 1))
        if chain and uppers and lowers:
            return True
    return False
