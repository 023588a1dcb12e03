"""Simplicial complexes and the three homological criteria of the oracle.

The surface is `SimplicialComplex`, stored as its facet masks only (every
function below works on masks), and what the oracle asks of it: Reisner's
Cohen-Macaulay test, Duval's sequential CM test and depth by Hochster's
formula.  Underneath, an engine computes reduced simplicial homology over
Q by exact integer elimination on boundary matrices, for the criteria
only; it has no public entry.  The complexes arising from monomial-ideal
sweeps are huge but overwhelmingly contractible, so one chain reduces the
whole facet list before any matrix:

  * Strong collapses (delete a vertex whose facets all share another
    vertex, prune to maximal facets, repeat; Barmak-Minian 2012).  A
    complex that collapses to a cone is contractible.
  * A core left without a cone point whose minimal nonfaces N_i are
    pairwise disjoint is the join of the simplex boundaries dN_i, a
    sphere, and its homology is read off their count without a matrix
    (Bruns-Herzog, Cohen-Macaulay Rings, 5.1).
  * Only the faces of the other cores reach the boundary matrices; a core
    is induced on its vertices, so they are read off the face list.

Every answer, whichever way its core was read, asserts the Euler identity:
the alternating sum of the computed Betti numbers must equal the reduced
Euler characteristic of the face vector of the complex *before* the
collapses, which catches reduction bugs at the source.  The face cap
bounds that face list: the faces of the whole complex asked about.

Conventions: the complex {emptyset} has reduced homology Q in degree -1;
the void complex (no faces at all) has none anywhere.  Vertices of a
complex live in {1..n_vertices}; vertices in no facet are ghosts, and the
depth sweep counts each as a variable in the face ideal.

Reisner's and Duval's criteria read one integer per complex, its link
depth: the least |sigma| + j over the faces sigma of K (the empty face
included) and the degrees j of nonzero reduced homology of lk sigma.  It
is the minimum of K's own lowest nonzero degree and 1 + the link depth of
each vertex link.  A cone simplex(A) * B has the link depth of B plus |A|,
since every face not containing A has a cone as its link.  Every face's
link is acyclic below degree t - |sigma| exactly when t <= link depth, so
the t-skeleton of K is CM exactly then, and depth k[K] = 1 + min(link
depth, dim K) (Smith 1990).  Reisner is "link depth >= dim" (purity
follows, as a facet's link is {emptyset}).  Duval's sequential CM
criterion (every pure i-skeleton is CM) is "link depth >= i" on the
subcomplex generated by the facets with more than i vertices, so the
skeletons are never built.

Three memos hold the answers, each keyed with the face cap: homology
profiles (`_profile_cache`), link depths of complexes without a cone point
(`_cm_cache`) and the pd of the face ring of a complex's support
(`_pd_cache`).  Every answer is computed on the canonical form of the facet
masks (`_canonical`): the apex (the vertices in every facet) taken off,
the rest packed onto its low bits in order, or the bit-reversal of that,
whichever sorts first, and the apex put back above it.  Cones over cores
isomorphic by an order-preserving or order-reversing map of their
supports, with apexes of one size, share one entry: the depth sweep's
restrictions in local coordinates and the same subcomplexes met by the
link recursion in global masks, or the oracle complexes of a facet chain
and of its reversal.  The engine puts each complex in canonical form
once, where it forms it: a facet truncation by the `canonical_key` of its
`SimplicialComplex` (computed once, like its `truncations`, so the criteria
share one key per truncation), a vertex link in `link_depth` and a part
in the depth sweep.  The core of a canonical key, its apex taken off, is
one itself.  So each question is one memo probe with the key as passed,
and the engine leaves canonical keys only in the memos; a key from
outside that is not canonical gets the same answer without sharing an
entry.  A call's answer, or its ResourceCapError, is thus a function of
the canonical key and the cap, not of the calls made before it.

Depth is computed by the projective-dimension sweep of Hochster's formula
over the LCM lattice of the face ideal: the unions of minimal nonfaces
(Gasharov-Peeva-Welker 1999).  Every other vertex subset restricts to a
cone and contributes nothing.  The minimal nonfaces are the minimal
transversals of the facet complements (`graphs.minimal_transversals`,
Berge's algorithm, which also builds the oracle complex); their unions
are closed up one nonface at a time, and the sweep visits them by
descending size, stopping as soon as smaller subsets cannot beat the best
contribution found.  A restriction is the join of its restrictions to the
connected components of the 2-section graph of the minimal nonfaces inside
the subset, so the sweep computes homology per component, through the
profile memo, and adds the degrees.  The sweep runs on a canonical key,
whose low bits are the vertices of the minimal nonfaces and whose apex,
in every facet and in no component, lies above them: taking the apex off
puts the facets in local coordinates, and each component restricts that
local facet list directly.  The components are flooded
through the same `graphs.union_table` and `graphs.components` that the
exhaustive cut-set sweep uses, all of them before any homology: each takes
off at least 1, so a subset whose size minus its component count cannot
beat the best contribution is skipped.  Each complex is swept once per
face cap: `depth_hochster` is the only entry, and `_pd_cache` keeps its pd.

Duval's criterion and the oracle's Goodarzi check ask about the same
subcomplexes, one per distinct facet size, and `truncations` lists them
for both; the list only chooses them.  The depth sweep never looks at
links, so depth and link depth are computed by independent code paths,
from restrictions and from links.  The two verdicts are not: the oracle's
Smith check, depth == 1 + min(link depth, dim) on each of those
subcomplexes, forces Goodarzi's verdict to equal Duval's whenever a
report exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_

from .errors import ResourceCapError
from .graphs import bits, components, mask_of, minimal_transversals, union_of, union_table, vertices_of
from .linalg import rank_sparse_pm

DEFAULT_FACE_CAP = 1 << 20
DEFAULT_VAR_CAP = 18
MAX_VAR_CAP = 32  # the depth sweep's table holds one bit per variable


def _prune_to_maximal(masks) -> frozenset[int]:
    keep: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        for k in keep:
            if m & k == m:
                break
        else:
            keep.append(m)
    return frozenset(keep)


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex on {1..n_vertices}, stored as its facet masks.

    mask_key holds pairwise incomparable facets, vertex v at bit v - 1;
    `from_faces` builds it from any family of vertex sets, and `facets`
    reads it back as vertex sets.  The void complex has no facets at all;
    the complex {emptyset} has the single facet mask 0.
    """

    n_vertices: int
    mask_key: frozenset[int]

    def __post_init__(self):
        n, key = self.n_vertices, self.mask_key
        if not isinstance(n, int):
            raise TypeError(f"n_vertices must be an int, got {n!r}")
        if n < 0:
            raise ValueError(f"n_vertices must be >= 0, got {n}")
        if not all(isinstance(m, int) for m in key):
            raise TypeError("facets are vertex masks; use from_faces to build from vertex sets")
        if key and (min(key) < 0 or max(key) >> n):
            raise ValueError(f"facet mask with a vertex outside 1..{n}")
        if len(_prune_to_maximal(key)) != len(key):
            raise ValueError("facets must be pairwise incomparable")

    @classmethod
    def from_faces(cls, n_vertices: int, faces) -> "SimplicialComplex":
        """Complex generated by an arbitrary family of faces (vertex sets)."""
        faces = [tuple(f) for f in faces]
        # a vertex above n_vertices has a bit, which the constructor refuses
        if any(v < 1 for f in faces for v in f):
            raise ValueError(f"face with a vertex outside 1..{n_vertices}")
        return cls(n_vertices, _prune_to_maximal(map(mask_of, faces)))

    @property
    def facets(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(vertices_of(m)) for m in self.mask_key)

    @property
    def is_void(self) -> bool:
        return not self.mask_key

    @property
    def dim(self) -> int:
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(m.bit_count() for m in self.mask_key) - 1

    def support_mask(self) -> int:
        return union_of(self.mask_key)

    @cached_property
    def canonical_key(self) -> frozenset[int]:
        """`_canonical` of the facet masks, computed once per object: every
        memo question about the complex is asked with it."""
        return _canonical(self.mask_key)

    @property
    def truncations(self) -> tuple[tuple[int, "SimplicialComplex"], ...]:
        """(s, subcomplex generated by the facets with at least s vertices)
        for each distinct facet size s, ascending; the first is the complex
        itself, the others are built once per object.

        Duval's and Goodarzi's criteria ask, for every i, about the
        subcomplex generated by the facets with more than i vertices.  For
        every i from the next smaller facet size (or 0) up to s - 1 that is
        the subcomplex paired with s, so each criterion asks once per s, at
        i = s - 1.
        """
        smallest, above = self._truncations_above
        return ((smallest, self),) + above

    @cached_property
    def _truncations_above(self) -> tuple[int, tuple[tuple[int, "SimplicialComplex"], ...]]:
        # without the complex itself, which would make every complex a
        # reference cycle through its own cache
        if self.is_void:
            raise ValueError("void complex")
        n, key = self.n_vertices, self.mask_key
        sizes = sorted({m.bit_count() for m in key})
        return sizes[0], tuple(
            (s, SimplicialComplex(n, frozenset(m for m in key if m.bit_count() >= s)))
            for s in sizes[1:]
        )


# -- faces, collapses, boundary matrices ---------------------------------------


def _faces_of(facet_masks, cap: int) -> set[int]:
    faces: set[int] = set()
    for fm in facet_masks:
        if (1 << fm.bit_count()) > cap:  # one facet alone has 2^|facet| distinct faces
            raise ResourceCapError(f"face count exceeds cap {cap}")
        subs = [0]
        for b in bits(fm):
            v = 1 << b
            subs += [s | v for s in subs]
        faces.update(subs)
        if len(faces) > cap:
            raise ResourceCapError(f"face count exceeds cap {cap}")
    return faces


def _apex(facet_masks) -> int:
    """Mask of the vertices that lie in every facet (0 when there are no facets);
    the complex is a cone exactly when it is nonzero."""
    return max(reduce(and_, facet_masks, -1), 0)


def _strong_collapse(facet_masks) -> list[int]:
    """Facets of the core left by deleting dominated vertices one at a time.

    v is dominated when the facets through v all contain another vertex;
    deleting it (a strong collapse) keeps the homotopy type.  The facets
    through v lose v and survive unless a facet without v contains them;
    they cannot contain one another, since their facets did not.
    """
    facets = list(facet_masks)
    changed = True
    while changed:
        changed = False
        support = union_of(facets)
        for b in bits(support):
            v = 1 << b
            shared = support
            for f in facets:
                if f & v:
                    shared &= f
            if shared != v:
                rest = [f for f in facets if not f & v]
                facets = rest + [
                    g for g in (f ^ v for f in facets if f & v)
                    if not any(g & f == g for f in rest)
                ]
                changed = True
    return facets


def _minimal_nonfaces(facet_masks) -> list[int]:
    """Minimal nonfaces (as masks) of the complex with the given facets.

    A subset of the support is a nonface exactly when it meets the
    complement of every facet, so the minimal nonfaces are the minimal
    transversals of the facet complements (`graphs.minimal_transversals`,
    Berge's algorithm), sorted.  For a flag complex they are exactly its
    non-edges.
    """
    support = union_of(facet_masks)
    return sorted(minimal_transversals(support & ~f for f in facet_masks))


def _boundary_column(m: int) -> dict[int, int]:
    """Boundary of the face m as {lower face mask: +-1}, signs alternating
    from the lowest vertex."""
    col: dict[int, int] = {}
    sign = 1
    for b in bits(m):
        col[m ^ (1 << b)] = sign
        sign = -sign
    return col


def _betti_from_faces(faces: set[int]) -> dict[int, int]:
    """Reduced Betti numbers by boundary-matrix ranks (nonzero degrees only)
    of the faces of a nonvoid complex; the empty face is its degree -1."""
    faces_by_dim: dict[int, list[int]] = {}
    for m in faces:
        faces_by_dim.setdefault(m.bit_count() - 1, []).append(m)
    top = max(faces_by_dim)
    ranks = {0: 1 if top >= 0 else 0}  # every vertex has the empty face as boundary
    for d in range(1, top + 1):
        ranks[d] = rank_sparse_pm({m: _boundary_column(m) for m in faces_by_dim[d]})
    out: dict[int, int] = {}
    for d in range(-1, top + 1):
        b = len(faces_by_dim[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if b:
            out[d] = b
    return out


_BIT_REVERSE = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _canonical(facets_key: frozenset[int]) -> frozenset[int]:
    """One representative of the facet masks up to packing and reversal of
    the core, with the apex on top.

    The apex A (the vertices in every facet) is taken off, leaving the core
    B = {f - A}, a complex without a cone point.  The support of B is
    packed onto bits 0..w-1 in order, one shift and mask per run of
    consecutive support bits; of that family and its bit-reversal within w
    bits, the one with the smaller sorted mask list is kept, and A comes
    back as bits w..w+|A|-1 of every mask.  Complexes with equal keys are
    cones over cores that are isomorphic by an order-preserving or
    order-reversing map of their supports, with apexes of one size, so
    their reduced Betti numbers, link depth and the pd of the face ring of
    their support agree, and so does their face count, which the face cap
    bounds.  The core of a canonical key, its apex taken off, is a
    canonical key itself.
    """
    masks = list(facets_key)
    apex = _apex(masks)
    support = union_of(masks) ^ apex
    w = support.bit_count()
    if apex or support & (support + 1):  # a cone, or a support not of the form 2^w - 1
        runs = []  # (run of support bits, shift that packs it)
        done = 0
        while support:
            low = support & -support
            run = support & ~(support + low)  # the lowest run left
            runs.append((run, low.bit_length() - 1 - done))
            done += run.bit_count()
            support ^= run
        packed = []
        for m in masks:
            acc = 0
            for run, shift in runs:
                acc |= (m & run) >> shift
            packed.append(acc)
        masks = packed
    masks.sort()
    # reverse each mask's bytes bit by bit, read them in the other byte
    # order, and drop the 8 * nbytes - w padding bits
    nbytes = (w + 7) >> 3
    pad = 8 * nbytes - w
    if nbytes <= 1:
        flipped = sorted([_BIT_REVERSE[m] >> pad for m in masks])
    else:
        flipped = sorted([
            int.from_bytes(m.to_bytes(nbytes, "little").translate(_BIT_REVERSE), "big") >> pad
            for m in masks
        ])
    masks = min(masks, flipped)
    if apex:
        top = ((1 << apex.bit_count()) - 1) << w
        masks = [m | top for m in masks]
    return frozenset(masks)


# Keyed with the face cap, so that a call's result or its ResourceCapError
# does not depend on which calls ran before it.
_profile_cache: dict[tuple[frozenset[int], int], dict[int, int]] = {}


def _profile_masks(facets_key: frozenset[int], cap: int = DEFAULT_FACE_CAP) -> dict[int, int]:
    """Nonzero reduced Betti numbers of the complex with the given facets,
    memoised under (facets, cap) and probed once.  The engine passes
    canonical keys; other facets get the same answer but no shared entry.

    The core left by the strong collapses is empty or a cone (no
    homology), a sphere read off its minimal nonfaces, or ranked; a
    complex is determined by its minimal nonfaces, so disjoint ones N_1..N_c
    on s vertices give the join of the boundaries dN_i, which is S^(s-c-1),
    and {emptyset} (no nonface) is S^-1.  The void guard comes first: the
    void complex has the nonface 0, which would read as a sphere."""
    hit = _profile_cache.get((facets_key, cap))
    if hit is not None:
        return hit
    faces = _faces_of(facets_key, cap)
    # reduced Euler characteristic of the complex before the collapses
    euler_faces = 2 * sum(f.bit_count() & 1 for f in faces) - len(faces)
    core = _strong_collapse(facets_key)
    if not core or _apex(core):
        result: dict[int, int] = {}
    else:
        # each core vertex lies in a minimal nonface (else it is a cone
        # point), so they are pairwise disjoint exactly when their sizes
        # add up to the support's
        nonfaces = _minimal_nonfaces(core)
        support = union_of(core)
        if sum(nf.bit_count() for nf in nonfaces) == support.bit_count():
            result = {support.bit_count() - len(nonfaces) - 1: 1}
        else:
            # the core is the subcomplex induced on its vertices: strong
            # collapses only delete vertices
            result = _betti_from_faces({f for f in faces if f & support == f})
    euler_betti = sum(b if d % 2 == 0 else -b for d, b in result.items())
    if euler_faces != euler_betti:
        raise AssertionError(
            f"Euler check failed: chi from faces {euler_faces} != from betti {euler_betti}"
        )
    _profile_cache[(facets_key, cap)] = result
    return result


# -- Reisner / Duval criteria ---------------------------------------------------

_cm_cache: dict[tuple[frozenset[int], int], int] = {}


def link_depth(facets_key: frozenset[int], cap: int) -> int:
    """The least |sigma| + j over the faces sigma of the (nonvoid) complex,
    the empty face included, and the degrees j with H_j(lk sigma) != 0
    (reduced homology over Q).

    Every face sigma has no homology in its link below t - |sigma| exactly
    when t <= link_depth; a facet's link is {emptyset}, so the value is at
    most the smallest facet size minus 1.  The empty face gives the lowest
    nonzero degree of the complex itself, and the faces through a vertex v
    give 1 + the link depth of lk v, because links of links are links.
    Memoised on (facets, cap) for complexes without a cone point and probed
    once.  The engine passes canonical keys and canonicalizes each vertex
    link as it forms it; other facets get the same answer but no shared entry.

    A cone K = simplex(A) * B, with A the vertices in every facet and
    B = {f - A}, has link depth(B) + |A|: a face sigma not containing A has
    a cone as its link (each facet of it holds a vertex of A - sigma), and
    for sigma containing A the link is lk_B(sigma - A).
    """
    apex = _apex(facets_key)
    if apex:
        return link_depth(frozenset(f & ~apex for f in facets_key), cap) + apex.bit_count()
    hit = _cm_cache.get((facets_key, cap))
    if hit is not None:
        return hit
    support = union_of(facets_key)
    # when K is acyclic, the facets' links give less than this default
    result = min(_profile_masks(facets_key, cap), default=support.bit_count())
    for b in bits(support):
        if result <= 1:
            # only {emptyset} has link depth -1, and an isolated vertex,
            # whose link it is, makes K disconnected (result 0): every other
            # vertex link gives at least 1
            break
        v = 1 << b
        # facets through v, minus v, are already pairwise incomparable
        link = _canonical(frozenset(f & ~v for f in facets_key if f & v))
        result = min(result, 1 + link_depth(link, cap))
    _cm_cache[(facets_key, cap)] = result
    return result


def is_cm_reisner(C: SimplicialComplex, max_faces: int = DEFAULT_FACE_CAP) -> bool:
    """Reisner criterion over Q: every face's link has homology only in top degree.

    Implemented as link_depth >= dim: every face sigma has a link whose
    reduced homology vanishes below dim - |sigma|.  Purity follows, since
    a facet sigma of size below dim + 1 has {emptyset}, with homology in
    degree -1 < dim - |sigma|, as its link; a complex with two facet sizes
    is therefore answered False before any face is listed.
    """
    if C.is_void:
        raise ValueError("void complex")
    if len({m.bit_count() for m in C.mask_key}) > 1:
        return False  # not pure: answered before any homology
    return link_depth(C.canonical_key, max_faces) >= C.dim


def is_scm_duval(C: SimplicialComplex, max_faces: int = DEFAULT_FACE_CAP) -> bool:
    """Duval's criterion in link form: every pure i-skeleton is Cohen-Macaulay.

    The pure i-skeleton is the i-skeleton of the subcomplex generated by
    the facets with more than i vertices.  Truncating to the i-skeleton
    keeps homology below degree i and commutes with taking links, so the
    skeleton is CM iff every face sigma of that subcomplex has a link with
    no reduced homology below i - |sigma| (Bjoerner-Wachs-Welker 2009),
    that is, iff i <= its link depth.  The skeleton itself is never built.

    Each subcomplex of `C.truncations` is checked once, at i = s - 1,
    which implies the checks at smaller i; a pure complex needs one check,
    on the link depth Reisner's criterion memoised.  Goodarzi's filtration
    criterion in the oracle reaches the same verdict through the Hochster
    depth sweep.
    """
    return all(link_depth(sub.canonical_key, max_faces) >= s - 1 for s, sub in C.truncations)


# -- depth via the projective-dimension sweep -----------------------------------


def check_var_cap(numvars: int, max_vars: int) -> None:
    """The depth sweep's variable cap: its `union_table` has up to
    2^numvars entries, each a 32-bit mask with one bit per variable, so no
    cap above 32 is accepted."""
    if max_vars > MAX_VAR_CAP:
        raise ValueError(f"variable cap {max_vars} exceeds the depth sweep's limit of {MAX_VAR_CAP}")
    if numvars > max_vars:
        raise ResourceCapError(f"depth sweep capped at {max_vars} variables (got {numvars})")


def _pd_sweep(facets_key: frozenset[int], max_faces: int) -> int:
    """The pd of the face ring of the support of the complex with the given
    facets, by the sweep `depth_hochster` describes.

    The facets are a canonical key, so everything runs in local
    coordinates on the vertices of the minimal nonfaces as it is: those
    are the vertices of its core, packed onto the low bits (a core vertex
    v misses some facet G, and G + v holds a minimal nonface through v).
    The apex above them lies in every facet and in no minimal nonface; with
    it taken off, a part restricts the local facets as they are.

    Every part of sigma is flooded before any homology is computed: the
    parts take off d_j + 1 >= 1 each, so sigma with c(sigma) parts is
    skipped when |sigma| - c(sigma) cannot beat the best so far.  Each
    part's facets are canonicalized as they are formed.
    """
    facet_masks = sorted(facets_key)
    nonfaces = _minimal_nonfaces(facet_masks)
    core = union_of(nonfaces)
    if core & (core + 1):
        raise AssertionError("the depth sweep takes canonical keys: their core is packed low")
    local_facets = [f & core for f in facet_masks]  # the apex taken off
    m = core.bit_length()
    adj = [0] * m  # 2-section graph of the minimal nonfaces
    lattice = {0}
    for nf in nonfaces:
        for k in bits(nf):
            adj[k] |= nf ^ (1 << k)
        lattice.update([s | nf for s in lattice])
    nb = union_table(adj)
    by_size: list[list[int]] = [[] for _ in range(m + 1)]
    for s in sorted(lattice):
        by_size[s.bit_count()].append(s)

    best_pd = 0  # sigma = {} contributes degree -1 homology of {emptyset}
    for size in range(m, 0, -1):
        if best_pd >= size - 1:
            break
        for sigma in by_size[size]:
            parts = list(components(nb, sigma))
            cand = size - len(parts)  # the 1 of each d_j + 1 taken off here
            if cand <= best_pd:
                continue
            for cc in parts:
                part = _canonical(_prune_to_maximal(f & cc for f in local_facets))
                nz = _profile_masks(part, max_faces)
                if not nz:
                    break
                cand -= min(nz)
                if cand <= best_pd:
                    break  # the remaining parts only lower it further
            else:
                best_pd = cand
    return best_pd


# pd of the face ring of the support, per (canonical facets, face cap)
_pd_cache: dict[tuple[frozenset[int], int], int] = {}


def depth_hochster(
    C: SimplicialComplex,
    *,
    max_vars: int = DEFAULT_VAR_CAP,
    max_faces: int = DEFAULT_FACE_CAP,
) -> int:
    """depth of K[x_1..x_N] / (face ideal of C), N = C.n_vertices.

    The projective dimension is the best value of |sigma| - 1 - d over
    vertex subsets sigma and degrees d with nonzero reduced homology of the
    induced subcomplex on sigma; depth = N - pd.  Universe vertices
    missing from every facet contribute variables contained in the ideal
    and shift pd up by their count.  For the zero ideal (full simplex) the
    answer is N.

    Only unions of minimal nonfaces can contribute (any other sigma has a
    cone point), so the sweep runs over those, in local coordinates on the
    vertices of the minimal nonfaces: the lattice starts as {0} and takes
    in s | nf for each nonface nf, and each size is swept in ascending
    mask order.  The restriction to sigma is the join of its restrictions
    to the components of the 2-section graph of the minimal nonfaces inside
    sigma, flooded through nb (the `union_table` of that graph), so it
    contributes |sigma| - sum(d_j + 1) with d_j the lowest nonzero degree
    of component j.  d_j is read off the facets in the same local
    coordinates, restricted to the component as they are (the apex, taken
    off, lies in every facet and in no component) and put in canonical
    form, so a component met again is a `_profile_cache` hit.  All parts
    are flooded first, and sigma is skipped without homology when
    |sigma| - c(sigma), with c(sigma) its number of parts, is at most the
    best contribution so far (0, from sigma = {}, at the start).  The table, 2^m entries for the m
    vertices of the minimal nonfaces, and the lattice are built only after
    the variable cap is checked.  The sweep runs on C's `canonical_key`,
    and its pd is memoised in `_pd_cache` per (canonical facets, face cap),
    so every isomorphic copy, such as the reversal of an oracle complex,
    reads it from there, and so do the oracle's questions about the same
    facet truncation.
    """
    check_var_cap(C.n_vertices, max_vars)
    if C.is_void:
        raise ValueError("void complex corresponds to the unit ideal")
    canon = C.canonical_key
    pd = _pd_cache.get((canon, max_faces))
    if pd is None:
        pd = _pd_cache[(canon, max_faces)] = _pd_sweep(canon, max_faces)
    return C.support_mask().bit_count() - pd

