"""Simplicial complexes and exact rational homology.

The engine computes reduced simplicial homology over Q by exact integer
elimination on boundary matrices.  Three homotopy-preserving reductions are
applied first, because the complexes arising from monomial-ideal sweeps are
huge but overwhelmingly contractible:

  * split into vertex-disjoint pieces (homology adds, with the usual
    correction in degree 0),
  * skip pieces with a cone point (a vertex lying in every facet),
  * elementary collapses (repeatedly remove a face whose only strict
    coface is a single facet one dimension up).

Every matrix-path computation asserts the Euler identity: the alternating
sum of the computed Betti numbers must equal the reduced Euler
characteristic of the *original* face vector, which catches reduction bugs
at the source.

Conventions: the complex {emptyset} has reduced homology Q in degree -1;
the void complex (no faces at all) has none anywhere.  Vertices of a
complex live in {1..n_vertices}; vertices in no facet are ghosts and are
reported, not guessed about.

Reisner's and Duval's criteria share one primitive, `_links_acyclic(K, t)`:
every face sigma of K (the empty face included) has a link with no reduced
homology below degree t - |sigma|.  It checks K itself, then recurses on
the vertex links with t - 1.  Reisner is the case "pure, t = dim".  Duval's
sequential CM criterion (every pure i-skeleton is CM) is the case t = i on
the subcomplex generated by the facets with more than i vertices, so the
skeletons are never built.  Results are memoised per (facets, t, face cap)
and homology profiles per (facets, face cap): a call's answer, or its
ResourceCapError, does not depend on the calls made before it.

Depth is computed by the projective-dimension sweep over vertex subsets
(reduced homology of induced subcomplexes in shifted degrees), descending
by subset size so the scan can stop as soon as smaller subsets cannot beat
the best contribution found.  When the complex is flag, induced
subcomplexes factor as joins over the connected components of the induced
non-edge graph, and the sweep works per factor with memoization.  The
sweep never looks at links, so depth against Reisner and the oracle's
Goodarzi filtration check (depth of each facet-size truncation) against
Duval compare independent code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ResourceCapError
from .graphs import bits
from .linalg import rank_sparse_pm

DEFAULT_FACE_CAP = 1 << 20
DEFAULT_VAR_CAP = 18


def _prune_to_maximal(masks) -> frozenset[int]:
    uniq = sorted(set(masks), key=lambda m: -m.bit_count())
    keep: list[int] = []
    for m in uniq:
        if not any(m & k == m for k in keep):
            keep.append(m)
    return frozenset(keep)


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex given by its facets.

    facets are pairwise incomparable vertex sets (use `from_faces` to build
    from an arbitrary generating family).  The void complex has no facets
    at all; the complex {emptyset} has the single facet frozenset().
    """

    n_vertices: int
    facets: frozenset[frozenset[int]]

    def __post_init__(self):
        masks = []
        for f in self.facets:
            m = 0
            for v in f:
                if not 1 <= v <= self.n_vertices:
                    raise ValueError(f"vertex {v} outside 1..{self.n_vertices}")
                m |= 1 << (v - 1)
            masks.append(m)
        key = frozenset(masks)
        if len(key) != len(masks):
            raise ValueError("duplicate facets")
        # containment needs strictly larger size, so equal-size groups are free
        by_size: dict[int, list[int]] = {}
        for m in masks:
            by_size.setdefault(m.bit_count(), []).append(m)
        sizes = sorted(by_size)
        for si, s in enumerate(sizes):
            larger = [m for t in sizes[si + 1:] for m in by_size[t]]
            if larger:
                for m in by_size[s]:
                    if any(m & k == m for k in larger):
                        raise ValueError("facets must be pairwise incomparable")
        object.__setattr__(self, "_mask_key", key)

    @classmethod
    def from_faces(cls, n_vertices: int, faces) -> "SimplicialComplex":
        """Complex generated by an arbitrary family of faces."""
        masks = []
        for f in faces:
            m = 0
            for v in f:
                m |= 1 << (v - 1)
            masks.append(m)
        return cls(n_vertices, frozenset(
            frozenset(b + 1 for b in bits(m)) for m in _prune_to_maximal(masks)
        ))

    @property
    def mask_key(self) -> frozenset[int]:
        return self._mask_key

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(m.bit_count() for m in self._mask_key) - 1

    def support_mask(self) -> int:
        s = 0
        for m in self._mask_key:
            s |= m
        return s

    def ghost_vertices(self) -> tuple[int, ...]:
        """Universe vertices that are not faces (possible after restriction)."""
        s = self.support_mask()
        return tuple(v for v in range(1, self.n_vertices + 1) if not (s >> (v - 1)) & 1)

    def has_face(self, face) -> bool:
        m = 0
        for v in face:
            m |= 1 << (v - 1)
        return any(m & f == m for f in self._mask_key)

    def f_vector(self, max_faces: int = DEFAULT_FACE_CAP) -> dict[int, int]:
        """Number of faces per dimension (including the empty face at -1)."""
        out: dict[int, int] = {}
        for f in _faces_of(self._mask_key, max_faces):
            d = f.bit_count() - 1
            out[d] = out.get(d, 0) + 1
        return out


@dataclass(frozen=True)
class HomologyProfile:
    """Dimensions of reduced rational homology, degree by degree."""

    reduced_betti: tuple[tuple[int, int], ...]  # (degree, betti), degrees -1..dim

    def betti(self, degree: int) -> int:
        for d, b in self.reduced_betti:
            if d == degree:
                return b
        return 0

    def nonzero(self) -> dict[int, int]:
        return {d: b for d, b in self.reduced_betti if b}

    def euler(self) -> int:
        return sum(b if d % 2 == 0 else -b for d, b in self.reduced_betti)


# -- faces, collapses, boundary matrices ---------------------------------------


def _faces_of(facet_masks, cap: int) -> set[int]:
    faces: set[int] = set()
    for fm in facet_masks:
        vs = [b for b in bits(fm)]
        k = len(vs)
        if (1 << k) > cap:  # one facet alone contributes 2^k distinct faces
            raise ResourceCapError(f"face count exceeds cap {cap}")
        for sz in range(k + 1):
            for combo in combinations(vs, sz):
                m = 0
                for b in combo:
                    m |= 1 << b
                faces.add(m)
        if len(faces) > cap:
            raise ResourceCapError(f"face count exceeds cap {cap}")
    if facet_masks:
        faces.add(0)
    return faces


def _collapse(faces: set[int], support: int) -> set[int]:
    """Remove free pairs (sigma, tau) until none remain; homotopy type kept.

    sigma (nonempty) is free when exactly one face one dimension up contains
    it and no larger face does, which for a face set closed under subsets is
    equivalent to having exactly one coface of size |sigma| + 1.
    """
    faces = set(faces)
    work = sorted(faces, key=lambda m: -m.bit_count())
    sup_bits = list(bits(support))
    stack = list(work)
    while stack:
        sigma = stack.pop()
        if sigma == 0 or sigma not in faces:
            continue
        tau = None
        count = 0
        for b in sup_bits:
            up = sigma | (1 << b)
            if up != sigma and up in faces:
                count += 1
                if count > 1:
                    break
                tau = up
        if count != 1:
            continue
        faces.discard(sigma)
        faces.discard(tau)
        for b in bits(sigma):
            stack.append(sigma ^ (1 << b))
        for b in bits(tau):
            down = tau ^ (1 << b)
            if down in faces:
                stack.append(down)
    return faces


def _boundary_columns(faces_by_dim: dict[int, list[int]], d: int) -> dict[int, dict[int, int]]:
    """Sparse boundary matrix C_d -> C_{d-1} as {column: {row: +-1}}."""
    lower = {m: i for i, m in enumerate(faces_by_dim.get(d - 1, []))}
    cols: dict[int, dict[int, int]] = {}
    for j, m in enumerate(faces_by_dim.get(d, [])):
        col: dict[int, int] = {}
        sign = 1
        for b in bits(m):
            col[lower[m ^ (1 << b)]] = sign
            sign = -sign
        cols[j] = col
    return cols


def _betti_from_faces(faces: set[int]) -> dict[int, int]:
    """Reduced Betti numbers by boundary-matrix ranks (nonzero degrees only)."""
    if not faces:
        return {}
    faces_by_dim: dict[int, list[int]] = {}
    for m in faces:
        faces_by_dim.setdefault(m.bit_count() - 1, []).append(m)
    for d in faces_by_dim:
        faces_by_dim[d].sort()
    top = max(faces_by_dim)
    ranks = {d: 0 for d in range(-1, top + 2)}
    for d in range(0, top + 1):
        if d == 0:
            ranks[0] = 1 if faces_by_dim.get(0) else 0
        else:
            ranks[d] = rank_sparse_pm(_boundary_columns(faces_by_dim, d))
    out: dict[int, int] = {}
    b_minus1 = 1 - ranks[0]
    if b_minus1:
        out[-1] = b_minus1
    for d in range(0, top + 1):
        fd = len(faces_by_dim.get(d, []))
        b = fd - ranks[d] - ranks[d + 1]
        if b:
            out[d] = b
    return out


# Keyed with the face cap, so that a call's result or its ResourceCapError
# does not depend on which calls ran before it.
_profile_cache: dict[tuple[frozenset[int], int], dict[int, int]] = {}


def _group_betti(group: list[int], cap: int) -> dict[int, int]:
    full = 0
    acc = ~0
    for m in group:
        full |= m
        acc &= m
    if acc:
        return {}  # cone point: contractible
    faces = _faces_of(group, cap)
    fvec: dict[int, int] = {}
    for f in faces:
        d = f.bit_count() - 1
        fvec[d] = fvec.get(d, 0) + 1
    core = _collapse(faces, full)
    betti = _betti_from_faces(core)
    euler_faces = sum(c if d % 2 == 0 else -c for d, c in fvec.items())
    euler_betti = sum(b if d % 2 == 0 else -b for d, b in betti.items())
    if euler_faces != euler_betti:
        raise AssertionError(
            f"Euler check failed: chi from faces {euler_faces} != from betti {euler_betti}"
        )
    return betti


def _profile_masks(facets_key: frozenset[int], cap: int = DEFAULT_FACE_CAP) -> dict[int, int]:
    """Nonzero reduced Betti numbers of the complex with the given facets."""
    hit = _profile_cache.get((facets_key, cap))
    if hit is not None:
        return hit
    if not facets_key:
        result: dict[int, int] = {}
    elif facets_key == frozenset({0}):
        result = {-1: 1}
    else:
        groups: list[list[int]] = []
        group_mask: list[int] = []
        for m in sorted(facets_key):
            joined = [i for i, gm in enumerate(group_mask) if gm & m]
            if not joined:
                groups.append([m])
                group_mask.append(m)
            else:
                tgt = joined[0]
                for i in reversed(joined[1:]):
                    groups[tgt].extend(groups.pop(i))
                    group_mask[tgt] |= group_mask.pop(i)
                groups[tgt].append(m)
                group_mask[tgt] |= m
        result = {}
        for g in groups:
            for d, b in _group_betti(g, cap).items():
                result[d] = result.get(d, 0) + b
        if len(groups) > 1:
            result[0] = result.get(0, 0) + len(groups) - 1
    _profile_cache[(facets_key, cap)] = result
    return result


def reduced_homology(C: SimplicialComplex, max_faces: int = DEFAULT_FACE_CAP) -> HomologyProfile:
    """Reduced rational homology in every degree -1..dim."""
    nz = _profile_masks(C.mask_key, max_faces)
    if C.is_void:
        return HomologyProfile(())
    return HomologyProfile(tuple((d, nz.get(d, 0)) for d in range(-1, C.dim + 1)))


def boundary_matrices(C: SimplicialComplex, max_faces: int = DEFAULT_FACE_CAP) -> dict[int, list[list[int]]]:
    """Dense boundary matrices of the full face complex, for inspection/tests."""
    if C.is_void:
        return {}
    faces = _faces_of(C.mask_key, max_faces)
    faces_by_dim: dict[int, list[int]] = {}
    for m in faces:
        faces_by_dim.setdefault(m.bit_count() - 1, []).append(m)
    for d in faces_by_dim:
        faces_by_dim[d].sort()
    out: dict[int, list[list[int]]] = {}
    top = max(faces_by_dim)
    for d in range(0, top + 1):
        cols = _boundary_columns(faces_by_dim, d)
        nrows = len(faces_by_dim.get(d - 1, []))
        dense = [[0] * len(cols) for _ in range(nrows)]
        for j, col in cols.items():
            for i, v in col.items():
                dense[i][j] = v
        out[d] = dense
    return out


# -- links, restrictions, skeletons --------------------------------------------


def _mask_of_face(face) -> int:
    m = 0
    for v in face:
        m |= 1 << (v - 1)
    return m


def _from_masks(n_vertices: int, masks) -> SimplicialComplex:
    return SimplicialComplex(
        n_vertices, frozenset(frozenset(b + 1 for b in bits(m)) for m in masks)
    )


def link(C: SimplicialComplex, face) -> SimplicialComplex:
    """link(sigma) = {tau : tau disjoint from sigma, tau union sigma a face}."""
    sigma = _mask_of_face(face)
    if not any(sigma & f == sigma for f in C.mask_key):
        raise ValueError(f"{sorted(face)} is not a face of the complex")
    masks = [f & ~sigma for f in C.mask_key if f & sigma == sigma]
    return _from_masks(C.n_vertices, _prune_to_maximal(masks))


def induced_subcomplex(C: SimplicialComplex, vertices) -> SimplicialComplex:
    """Faces of C contained in the given vertex set (same universe)."""
    sigma = _mask_of_face(vertices)
    return _from_masks(C.n_vertices, _prune_to_maximal(f & sigma for f in C.mask_key))


def pure_skeleton(C: SimplicialComplex, i: int) -> SimplicialComplex:
    """Subcomplex generated by all faces of dimension exactly i."""
    if C.is_void:
        raise ValueError("void complex has no skeleta")
    if not -1 <= i <= C.dim:
        raise ValueError(f"skeleton dimension {i} outside -1..{C.dim}")
    if i == -1:
        return SimplicialComplex(C.n_vertices, frozenset({frozenset()}))
    faces: set[int] = set()
    for fm in C.mask_key:
        vs = list(bits(fm))
        if len(vs) >= i + 1:
            for combo in combinations(vs, i + 1):
                m = 0
                for b in combo:
                    m |= 1 << b
                faces.add(m)
    return _from_masks(C.n_vertices, faces)


# -- Reisner / Duval criteria ---------------------------------------------------

_cm_cache: dict[tuple[frozenset[int], int, int], bool] = {}


def _links_acyclic(facets_key: frozenset[int], t: int, cap: int) -> bool:
    """Whether H_j(lk sigma) = 0 for every face sigma (the empty face too)
    and every -1 <= j < t - |sigma| (reduced homology over Q).

    The empty face asks this of the complex itself; a vertex link, checked
    with t - 1, asks it of every face through that vertex, because links of
    links are links.  Memoised on (facets, t, cap).
    """
    if t <= -1:
        return True
    if t == 0:
        return facets_key != frozenset({0})  # only degree -1 is asked for
    key = (facets_key, t, cap)
    hit = _cm_cache.get(key)
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
            if not _links_acyclic(lk, t - 1, cap):
                result = False
                break
    _cm_cache[key] = result
    return result


def is_cm_reisner(C: SimplicialComplex, max_faces: int = DEFAULT_FACE_CAP) -> bool:
    """Reisner criterion over Q: every face's link has homology only in top degree.

    Implemented as: the complex is pure of dimension d, and every face sigma
    has a link whose reduced homology vanishes below d - |sigma|.
    """
    sizes = {m.bit_count() for m in C.mask_key}
    if len(sizes) > 1:
        return False  # Cohen-Macaulay complexes are pure
    return not sizes or _links_acyclic(C.mask_key, sizes.pop() - 1, max_faces)


def is_scm_duval(C: SimplicialComplex, max_faces: int = DEFAULT_FACE_CAP) -> bool:
    """Duval's criterion in link form: every pure i-skeleton is Cohen-Macaulay.

    The pure i-skeleton is the i-skeleton of the subcomplex generated by
    the facets with more than i vertices.  Truncating to the i-skeleton
    keeps homology below degree i and commutes with taking links, so the
    skeleton is CM iff every face sigma of that subcomplex has a link with
    no reduced homology below i - |sigma| (Bjoerner-Wachs-Welker 2009).
    The skeleton itself is never built.  Goodarzi's filtration criterion
    in the oracle reaches the same verdict through the independent Hochster
    depth sweep.
    """
    if C.is_void:
        raise ValueError("void complex")
    for i in range(0, C.dim + 1):
        kept = frozenset(m for m in C.mask_key if m.bit_count() > i)
        if not _links_acyclic(kept, i, max_faces):
            return False
    return True


# -- depth via the projective-dimension sweep -----------------------------------


def _flag_nonedge_adj(C: SimplicialComplex) -> dict[int, int] | None:
    """If C is a flag complex, the adjacency masks of its non-edge graph.

    C is flag when its faces are exactly the independent sets of the graph
    H whose edges are the non-face vertex pairs of the support.  Verified by
    enumerating the maximal independent sets of H and comparing to facets.
    """
    support = list(bits(C.support_mask()))
    adj: dict[int, int] = {b: 0 for b in support}
    for i, u in enumerate(support):
        for w in support[i + 1:]:
            pair = (1 << u) | (1 << w)
            if not any(pair & f == pair for f in C.mask_key):
                adj[u] |= 1 << w
                adj[w] |= 1 << u
    # maximal independent sets of H by complement-clique search
    out: list[int] = []
    full = 0
    for b in support:
        full |= 1 << b
    comp_adj = {b: full & ~adj[b] & ~(1 << b) for b in support}

    def bk(R: int, P: int, X: int):
        if P == 0 and X == 0:
            out.append(R)
            return
        pivot, best = -1, -1
        for b in bits(P | X):
            d = (P & comp_adj[b]).bit_count()
            if d > best:
                best, pivot = d, b
        for b in bits(P & ~comp_adj[pivot]):
            v = 1 << b
            bk(R | v, P & comp_adj[b], X & comp_adj[b])
            P &= ~v
            X |= v

    bk(0, full, 0)
    return adj if frozenset(out) == C.mask_key else None


def _dmin_of_restriction(facet_masks, sigma: int, cap: int) -> int | None:
    """Lowest degree with nonzero reduced homology of C restricted to sigma."""
    restricted = _prune_to_maximal(f & sigma for f in facet_masks)
    acc = ~0
    for m in restricted:
        acc &= m
    if restricted and acc:
        return None  # cone
    nz = _profile_masks(restricted, cap)
    return min(nz) if nz else None


def depth_hochster(
    C: SimplicialComplex,
    numvars: int | None = None,
    max_vars: int = DEFAULT_VAR_CAP,
    max_faces: int = DEFAULT_FACE_CAP,
) -> int:
    """depth of (polynomial ring in numvars variables) / (face ideal of C).

    The projective dimension is the best value of |sigma| - 1 - d over
    vertex subsets sigma and degrees d with nonzero reduced homology of the
    induced subcomplex on sigma; depth = numvars - pd.  Universe vertices
    missing from every facet contribute variables contained in the ideal
    and shift pd up by their count.  For the zero ideal (full simplex) the
    answer is numvars.
    """
    if numvars is None:
        numvars = C.n_vertices
    if numvars != C.n_vertices:
        raise ValueError("numvars must equal the complex's vertex universe")
    if numvars > max_vars:
        raise ResourceCapError(f"depth sweep capped at {max_vars} variables (got {numvars})")
    if C.is_void:
        raise ValueError("void complex corresponds to the unit ideal")
    support = C.support_mask()
    ghosts = numvars - support.bit_count()
    sup_bits = list(bits(support))
    facet_masks = sorted(C.mask_key)

    flag_adj = _flag_nonedge_adj(C)
    dmin_memo: dict[int, int | None] = {}

    def dmin_factor(tau: int) -> int | None:
        hit = dmin_memo.get(tau)
        if tau in dmin_memo:
            return hit
        val = _dmin_of_restriction(facet_masks, tau, max_faces)
        dmin_memo[tau] = val
        return val

    best_pd = 0  # sigma = {} contributes degree -1 homology of {emptyset}
    for size in range(len(sup_bits), 0, -1):
        if best_pd >= size - 1:
            break
        for combo in combinations(sup_bits, size):
            sigma = 0
            for b in combo:
                sigma |= 1 << b
            if flag_adj is not None:
                # cone-free iff no vertex of sigma is isolated in H[sigma]
                if any(not (flag_adj[b] & sigma) for b in combo):
                    continue
                # join decomposition over connected components of H[sigma]
                rest = sigma
                total = 0
                parts = 0
                dead = False
                while rest:
                    low = rest & -rest
                    comp = low
                    frontier = low
                    while frontier:
                        nxt = 0
                        for b in bits(frontier):
                            nxt |= flag_adj[b]
                        frontier = nxt & sigma & ~comp
                        comp |= frontier
                    rest &= ~comp
                    d = dmin_factor(comp)
                    if d is None:
                        dead = True
                        break
                    total += d
                    parts += 1
                if dead:
                    continue
                dmin = total + (parts - 1)
            else:
                dmin = _dmin_of_restriction(facet_masks, sigma, max_faces)
                if dmin is None:
                    continue
            cand = size - 1 - dmin
            if cand > best_pd:
                best_pd = cand
    return numvars - (best_pd + ghosts)
