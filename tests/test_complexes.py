import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edgeideals import complexes
from edgeideals.complexes import (
    DEFAULT_FACE_CAP,
    MAX_VAR_CAP,
    SimplicialComplex,
    _apex,
    _betti_from_faces,
    _canonical,
    _faces_of,
    _minimal_nonfaces,
    _profile_masks,
    _prune_to_maximal,
    depth_hochster,
    is_cm_reisner,
    is_scm_duval,
    link_depth,
)
from edgeideals.enumerators import enumerate_closed_connected
from edgeideals.errors import ResourceCapError
from edgeideals.graphs import bits, from_edge_list, mask_of, permute_masks
from edgeideals.oracle import goodarzi_check, oracle_classify_facets

from conftest import (
    ENGINE_MEMOS,
    boundary_matrices,
    canonical_ref,
    cold_memos,
    depth_hochster_ref,
    induced_subcomplex,
    is_cm_reisner_ref,
    is_scm_duval_ref,
    link,
    links_acyclic_ref,
    maximal_cliques,
    maximal_masks_ref,
    pure_skeleton,
    rank_fraction_gauss,
)


def cx(n, *facets):
    return SimplicialComplex(n, frozenset(map(mask_of, facets)))


def simplex_boundary(k):
    """Boundary of the k-simplex: homotopy sphere S^{k-1} on k+1 vertices."""
    verts = range(1, k + 2)
    return SimplicialComplex.from_faces(k + 1, combinations(verts, k))


# minimal 6-vertex triangulation of the real projective plane
RP2_FACETS = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
]


def random_complex(rng, n_max=7):
    n = rng.randint(1, n_max)
    n_gens = rng.randint(1, 6)
    gens = []
    for _ in range(n_gens):
        size = rng.randint(1, n)
        gens.append(tuple(rng.sample(range(1, n + 1), size)))
    return SimplicialComplex.from_faces(n, gens)


def test_homology_basic_examples():
    hollow = cx(3, (1, 2), (1, 3), (2, 3))
    assert _profile_masks(hollow.mask_key) == {1: 1}
    full = cx(4, (1, 2, 3, 4))
    assert _profile_masks(full.mask_key) == {}
    two_points = cx(2, (1,), (2,))
    assert _profile_masks(two_points.mask_key) == {0: 1}
    empty_cx = cx(3, ())
    assert _profile_masks(empty_cx.mask_key) == {-1: 1}
    void = SimplicialComplex(3, frozenset())
    assert _profile_masks(void.mask_key) == {}


def test_hollow_sphere_bettis_up_to_dim_4():
    for k in range(1, 5):
        assert _profile_masks(simplex_boundary(k).mask_key) == {k - 1: 1}, k


def test_boundary_squared_is_zero_random():
    rng = random.Random(0)
    for _ in range(100):
        C = random_complex(rng)
        mats = boundary_matrices(C)
        dims = sorted(mats)
        for d in dims:
            if d + 1 not in mats:
                continue
            A, B = mats[d], mats[d + 1]
            if not A or not B or not A[0]:
                continue
            # A @ B must vanish
            for i in range(len(A)):
                for j in range(len(B[0])):
                    s = sum(A[i][k] * B[k][j] for k in range(len(B)))
                    assert s == 0


def betti_by_reference_rank(C):
    """Reduced Betti numbers from the dense boundary matrices, each ranked
    by Gaussian elimination on Fractions."""
    dims = Counter(m.bit_count() - 1 for m in _faces_of(C.mask_key, DEFAULT_FACE_CAP))
    rank = {d: rank_fraction_gauss(A) for d, A in boundary_matrices(C).items()}
    betti = {d: f - rank.get(d, 0) - rank.get(d + 1, 0) for d, f in dims.items()}
    return {d: b for d, b in betti.items() if b}


def test_matrix_path_matches_an_independent_rank():
    # the engine's own rank against the Fraction reference, on the raw
    # face lists that the collapses would otherwise reduce first
    rng = random.Random(2)
    cases = [random_complex(rng) for _ in range(150)]
    cases += [SimplicialComplex.from_faces(6, RP2_FACETS), simplex_boundary(4), cx(3, ())]
    for C in cases:
        assert _betti_from_faces(_faces_of(C.mask_key, DEFAULT_FACE_CAP)) == betti_by_reference_rank(C)


def test_euler_consistency_explicit():
    rng = random.Random(1)
    for _ in range(100):
        C = random_complex(rng)
        nz = _profile_masks(C.mask_key)  # internal Euler assert also runs
        faces = _faces_of(C.mask_key, DEFAULT_FACE_CAP)
        chi = sum(1 if f.bit_count() % 2 else -1 for f in faces)
        assert sum(b if d % 2 == 0 else -b for d, b in nz.items()) == chi


def test_link_examples():
    hollow = cx(3, (1, 2), (1, 3), (2, 3))
    lk = link(hollow, {1})
    assert lk.facets == frozenset({frozenset({2}), frozenset({3})})
    assert link(hollow, ()).facets == hollow.facets
    two_skel = SimplicialComplex.from_faces(4, combinations(range(1, 5), 3))
    lk2 = link(two_skel, {1, 2})
    assert lk2.facets == frozenset({frozenset({3}), frozenset({4})})
    with pytest.raises(ValueError):
        link(cx(3, (1, 2)), {3, 1})


def test_induced_subcomplex_and_ghosts():
    hollow = cx(3, (1, 2), (1, 3), (2, 3))
    sub = induced_subcomplex(hollow, {1, 2})
    assert sub.facets == frozenset({frozenset({1, 2})})


def test_pure_skeleton_examples():
    C = cx(4, (1, 2, 3), (3, 4))
    sk1 = pure_skeleton(C, 1)
    assert sk1.facets == frozenset(
        frozenset(e) for e in [(1, 2), (1, 3), (2, 3), (3, 4)]
    )
    assert pure_skeleton(C, C.dim).facets == frozenset({frozenset({1, 2, 3})})
    assert pure_skeleton(C, -1).facets == frozenset({frozenset()})
    with pytest.raises(ValueError):
        pure_skeleton(C, 3)


def test_reisner_examples():
    assert is_cm_reisner(cx(3, (1, 2), (1, 3), (2, 3)))
    assert not is_cm_reisner(cx(4, (1, 2), (3, 4)))
    assert is_cm_reisner(cx(1, (1,)))
    assert is_cm_reisner(cx(2, ()))  # the complex {emptyset}


def test_duval_examples():
    assert is_scm_duval(cx(4, (1, 2, 3), (3, 4)))
    assert not is_scm_duval(cx(4, (1, 2), (3, 4)))
    assert is_scm_duval(cx(5, (1, 2, 3, 4, 5)))


@st.composite
def mixed_complexes(draw, block=5, max_pieces=3):
    """Up to max_pieces pieces on disjoint vertex blocks, each with facets of
    mixed sizes, plus isolated vertices and possibly a ghost vertex."""
    pieces = draw(st.lists(
        st.lists(st.sets(st.integers(1, block), min_size=1), min_size=1, max_size=4),
        min_size=1, max_size=max_pieces,
    ))
    isolated = draw(st.integers(0, 2))
    ghosts = draw(st.integers(0, 1))
    faces = [tuple(k * block + v for v in f) for k, piece in enumerate(pieces) for f in piece]
    n = len(pieces) * block
    faces += [(n + k + 1,) for k in range(isolated)]
    return SimplicialComplex.from_faces(n + isolated + ghosts, faces)


@st.composite
def flag_complexes(draw, max_n=7):
    """Clique complex of a random graph (isolated vertices included)."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    G = from_edge_list(n, [e for e, k in zip(pairs, keep) if k])
    return SimplicialComplex.from_faces(n, maximal_cliques(G))


@st.composite
def coned(draw, complexes_):
    """A drawn complex, possibly coned off by a new vertex, possibly with a ghost."""
    C = draw(complexes_)
    n = C.n_vertices
    faces = [tuple(f) for f in C.facets]
    if draw(st.booleans()):
        n += 1
        faces = [f + (n,) for f in faces]
    return SimplicialComplex.from_faces(n + draw(st.integers(0, 1)), faces)


@st.composite
def dominated_complexes(draw):
    """Small mixed complexes with up to two new vertices, each added to some of
    the facets through one old vertex w, so that w dominates it."""
    C = draw(mixed_complexes(block=4, max_pieces=2))
    facets = [set(f) for f in C.facets]
    n = C.n_vertices
    for _ in range(draw(st.integers(0, 2))):
        w = draw(st.sampled_from(sorted(set().union(*facets))))
        through = [f for f in facets if w in f]
        n += 1
        for f in draw(st.lists(st.sampled_from(through), min_size=1)):
            f.add(n)
    return SimplicialComplex(n, frozenset(map(mask_of, facets)))


def _with_small_cases(test):
    for C in [
        cx(5, (1, 2, 3), (4,), (5,)),        # triangle plus isolated points: SCM
        cx(5, (1, 2, 3), (3, 4), (4, 5)),    # triangle with a tail: SCM, not pure
        cx(5, (1, 2, 3), (4, 5)),            # triangle beside an edge: not SCM
        cx(6, (1, 2, 3), (4, 5, 6)),         # two disjoint triangles
        cx(3, ()),                           # the complex {emptyset}
        simplex_boundary(3),
    ]:
        test = example(C)(test)
    return test


@settings(max_examples=300, deadline=None)
@_with_small_cases
@given(mixed_complexes())
def test_duval_link_form_matches_pure_skeleton_reference(C):
    assert is_scm_duval(C) == is_scm_duval_ref(C)


@settings(max_examples=200, deadline=None)
@_with_small_cases
@given(mixed_complexes(block=4, max_pieces=2))
def test_goodarzi_matches_duval(C):
    # both criteria walk the same facet truncations, each with its own homology
    assert goodarzi_check(C) == is_scm_duval(C)


@settings(max_examples=200, deadline=None)
@_with_small_cases
@given(mixed_complexes())
def test_reisner_matches_reference(C):
    assert is_cm_reisner(C) == is_cm_reisner_ref(C)


@settings(max_examples=200, deadline=None)
@example(cx(3, (1, 2), (1, 3), (2, 3)))       # hollow triangle: no dominated vertex
@example(cx(4, (1, 2, 4), (1, 3, 4), (2, 3, 4)))  # its cone
@example(cx(3, ()))
# a hollow triangle beside a cone and a point: the core keeps two extra
# points and reaches the boundary ranks, profile {0: 2, 1: 1}
@example(cx(8, (1, 2), (1, 3), (2, 3), (4, 5, 6), (5, 6, 7), (8,)))
@example(cx(6, (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)))  # two hollow triangles
@given(coned(dominated_complexes()))
def test_reductions_match_plain_matrices(C):
    # disconnected complexes, cones and strong collapses against raw
    # boundary ranks
    plain = _betti_from_faces(_faces_of(C.mask_key, 1 << 20))
    assert _profile_masks(C.mask_key) == plain


@st.composite
def cones_over(draw, complexes_):
    """simplex(A) * B for a drawn B and an apex A of 1..3 new vertices."""
    B = draw(complexes_)
    n = B.n_vertices
    apex = tuple(range(n + 1, n + 1 + draw(st.integers(1, 3))))
    return SimplicialComplex.from_faces(n + len(apex), [tuple(f) + apex for f in B.facets])


_link_depth_cases = st.one_of(
    mixed_complexes(), coned(flag_complexes()), coned(dominated_complexes()),
    cones_over(st.one_of(mixed_complexes(block=4, max_pieces=2), flag_complexes(max_n=5))),
)


def _with_link_depth_examples(test):
    for C in [
        cx(2, (1,)),  # one point: acyclic, but its link {emptyset} gives 1 - 1
        cx(3, (1, 2, 3)),               # a simplex: a cone over {emptyset}
        cx(5, (1, 2, 4, 5), (3, 4, 5)),  # an edge and a point below apex {4, 5}
    ]:
        test = example(C)(test)
    return _with_small_cases(test)


@settings(max_examples=300, deadline=None)
@_with_link_depth_examples
@given(_link_depth_cases)
def test_links_acyclic_matches_reference_and_is_monotone(C):
    # the library passes from a cone simplex(A) * B straight to B and adds
    # |A|; the reference builds and recurses into every vertex link at each
    # t, and its answers must be True exactly up to the link depth
    depth = link_depth(C.mask_key, DEFAULT_FACE_CAP)
    for t in range(-1, C.dim + 2):
        assert (t <= depth) == links_acyclic_ref(C.mask_key, t, DEFAULT_FACE_CAP), t


@settings(max_examples=300, deadline=None)
@_with_link_depth_examples
@given(_link_depth_cases)
def test_hochster_depth_is_one_plus_link_depth_up_to_dim(C):
    # Smith 1990: depth k[C] = 1 + max{t : the t-skeleton is CM}, and the
    # t-skeleton (t <= dim) is CM exactly when t <= link depth
    assert depth_hochster(C) == 1 + min(link_depth(C.mask_key, DEFAULT_FACE_CAP), C.dim)


@st.composite
def skeleton_joins(draw):
    """(n, facets, shape) of the join of the k_i-subsets of disjoint
    m_i-vertex classes, shape listing each (m_i, k_i): a simplex boundary
    (one class, k = m - 1), a cross-polytope (classes of 2, k = 1) or a
    mixed join, with 1 <= k_i < m_i."""
    kind = draw(st.sampled_from(["boundary", "cross", "mixed"]))
    if kind == "boundary":
        m = draw(st.integers(2, 7))
        shape = [(m, m - 1)]
    elif kind == "cross":
        shape = [(2, 1)] * draw(st.integers(1, 5))
    else:
        shape = draw(st.lists(
            st.integers(2, 4).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m - 1))),
            min_size=1, max_size=3).filter(lambda shape: sum(m for m, _ in shape) <= 9))
    factors, start = [], 0
    for m, k in shape:
        factors.append([mask_of(s) for s in combinations(range(start + 1, start + m + 1), k)])
        start += m
    facets = [0]
    for factor in factors:
        facets = [f | g for f in facets for g in factor]
    return start, facets, shape


@st.composite
def near_skeleton_joins(draw):
    """A join of complete skeleta with one facet dropped or one vertex (old
    or new) added to one facet, kept only without a cone point."""
    n, facets, _ = draw(skeleton_joins())
    i = draw(st.integers(0, len(facets) - 1))
    if draw(st.booleans()) and len(facets) > 1:
        facets = facets[:i] + facets[i + 1:]
    else:
        v = draw(st.integers(1, n + 1))
        n = max(n, v)
        facets = facets[:i] + [facets[i] | mask_of([v])] + facets[i + 1:]
    facets = sorted(_prune_to_maximal(facets))
    assume(not _apex(facets))
    return n, facets


@settings(max_examples=200, deadline=None)
@example((4, [0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100], [(4, 2)]))  # 2-subsets of 4
@example((3, [0b011, 0b101, 0b110], [(3, 2)]))  # the hollow triangle
@given(skeleton_joins())
def test_skeleton_join_profile_is_kuenneth(case):
    # the k-subsets of m vertices have Q^C(m - 1, k) in degree k - 1 only,
    # and Kuenneth for joins multiplies them; the minimal nonfaces are the
    # (k_i + 1)-subsets of the classes, disjoint (a sphere, read off them)
    # exactly when every k_i = m_i - 1, and otherwise the ranks answer
    n, facets, shape = case
    rank = 1
    for m, k in shape:
        rank *= comb(m - 1, k)
    closed_form = {sum(k for _, k in shape) - 1: rank} if rank else {}
    sphere = all(k == m - 1 for m, k in shape)
    assert (sum(nf.bit_count() for nf in _minimal_nonfaces(facets)) == n) == sphere
    assert _profile_masks(frozenset(facets)) == closed_form
    assert _betti_from_faces(_faces_of(facets, DEFAULT_FACE_CAP)) == closed_form


@settings(max_examples=200, deadline=None)
@given(near_skeleton_joins())
def test_skeleton_join_profile_near_misses(case):
    # one facet off a join of skeleta: the sphere reading, or the ranks,
    # must still agree with the ranks of the whole face list
    _, facets = case
    plain = _betti_from_faces(_faces_of(facets, DEFAULT_FACE_CAP))
    assert _profile_masks(frozenset(facets)) == plain


@settings(max_examples=300, deadline=None)
@example([])
@example([0])
@example([0b011, 0b001, 0b011, 0b110, 0b100])
@given(st.lists(st.integers(0, 255), max_size=12))
def test_prune_to_maximal_matches_brute_force(masks):
    assert _prune_to_maximal(iter(masks)) == maximal_masks_ref(masks)


@st.composite
def face_families(draw, max_n=6):
    """A vertex count and a list of faces on it: repeated faces, faces inside
    other faces, the empty face, and vertices that lie in no face."""
    n = draw(st.integers(1, max_n))
    faces = draw(st.lists(st.sets(st.integers(1, n)), max_size=6))
    for _ in range(draw(st.integers(0, 3)) if faces else 0):
        f = sorted(draw(st.sampled_from(faces)))
        faces.append(set(draw(st.lists(st.sampled_from(f), unique=True))) if f else set())
    faces = [tuple(draw(st.permutations(sorted(f)))) for f in faces]
    return n + draw(st.integers(0, 2)), faces


@settings(max_examples=300, deadline=None)
@example((3, []), random.Random(0))
@example((3, [()]), random.Random(0))
@example((4, [(2, 1), (1, 2), (1,), (), (3,)]), random.Random(0))
@given(face_families(), st.randoms(use_true_random=False))
def test_from_faces_keeps_the_maximal_faces_in_any_order(family, rng):
    n, faces = family
    C = SimplicialComplex.from_faces(n, faces)
    assert C.mask_key == maximal_masks_ref(map(mask_of, faces))
    assert SimplicialComplex.from_faces(n, C.facets) == C
    shuffled = rng.sample(faces, len(faces))
    D = SimplicialComplex.from_faces(n, shuffled)
    assert D == C and hash(D) == hash(C)


def test_constructor_refuses_what_is_not_a_facet_mask_family():
    assert SimplicialComplex(3, frozenset({0b011, 0b110})).facets == {
        frozenset({1, 2}), frozenset({2, 3})}
    with pytest.raises(ValueError, match="pairwise incomparable"):
        SimplicialComplex(3, frozenset({0b011, 0b001}))
    with pytest.raises(ValueError, match="pairwise incomparable"):
        SimplicialComplex(3, frozenset({0b000, 0b100}))  # {emptyset} lies in every face
    with pytest.raises(ValueError, match=r"outside 1\.\.3"):
        SimplicialComplex(3, frozenset({0b1000}))
    with pytest.raises(ValueError, match=r"outside 1\.\.3"):
        SimplicialComplex(3, frozenset({-2, 0b001}))  # -2 has every bit but bit 0
    with pytest.raises(TypeError, match="from_faces"):
        SimplicialComplex(3, frozenset({frozenset({1, 2})}))


def test_from_faces_refuses_vertices_outside_the_universe():
    # vertex 0 has no bit: it must not reach the mask as a negative shift
    for faces in ([(0, 1)], [(1,), (-2,)], [(4,)]):
        with pytest.raises(ValueError, match=r"outside 1\.\.3"):
            SimplicialComplex.from_faces(3, faces)
    assert SimplicialComplex.from_faces(3, iter([(1, 3), (3,)])).mask_key == {0b101}


def test_constructor_checks_n_vertices_before_the_masks():
    with pytest.raises(ValueError, match="n_vertices"):
        SimplicialComplex(-3, frozenset())
    with pytest.raises(ValueError, match="n_vertices"):
        SimplicialComplex(-1, frozenset({1}))
    with pytest.raises(TypeError, match="n_vertices"):
        SimplicialComplex(2.5, frozenset({1}))
    with pytest.raises(TypeError, match="n_vertices"):
        SimplicialComplex("3", frozenset({1}))
    assert SimplicialComplex(0, frozenset()).is_void
    assert SimplicialComplex(0, frozenset({0})).dim == -1


def test_euler_check_catches_a_corrupted_core(monkeypatch):
    # vertex 3 of the hollow triangle is not dominated: deleting it leaves an
    # edge, a cone, against reduced Euler characteristic -1 of the faces
    monkeypatch.setattr(complexes, "_strong_collapse",
                        lambda facets: _prune_to_maximal(f & ~0b100 for f in facets))
    monkeypatch.setattr(complexes, "_profile_cache", {})
    with pytest.raises(AssertionError, match="Euler check failed"):
        _profile_masks(simplex_boundary(2).mask_key)


def test_euler_check_catches_a_wrong_shape(monkeypatch):
    # the hollow triangle has the one minimal nonface 123 and is S^1; two
    # disjoint nonfaces 1 and 23 would make the sphere reading claim S^0,
    # which is caught against the faces of the piece
    monkeypatch.setattr(complexes, "_minimal_nonfaces", lambda facets: [0b001, 0b110])
    monkeypatch.setattr(complexes, "_profile_cache", {})
    with pytest.raises(AssertionError, match="Euler check failed"):
        _profile_masks(simplex_boundary(2).mask_key)


def _minimal_nonfaces_ref(C):
    """Support subsets that lie in no facet, while each of their subsets does."""
    support = sorted(set().union(*C.facets))

    def face(s):
        return any(set(s) <= f for f in C.facets)

    return sorted(
        mask_of(s) for k in range(len(support) + 1) for s in combinations(support, k)
        if not face(s) and all(face(set(s) - {v}) for v in s)
    )


_depth_cases = st.one_of(
    coned(flag_complexes()), coned(mixed_complexes(block=4, max_pieces=2))
)


@settings(max_examples=200, deadline=None)
@example(cx(3, ()))
@example(cx(4, (1, 2, 3, 4)))
@example(cx(5, (1, 2, 3, 4)))
@example(cx(4, (1, 2), (2, 3), (3, 4)))  # flag: the non-edges 13, 14, 24
@example(simplex_boundary(3))           # one nonface, of size 4
@given(_depth_cases)
def test_minimal_nonfaces_match_definition(C):
    got = _minimal_nonfaces(sorted(C.mask_key))
    assert got == _minimal_nonfaces_ref(C)


@settings(max_examples=200, deadline=None)
@example(cx(3, ()))                              # {emptyset}: depth 0
@example(cx(4, (1, 2, 3, 4)))                    # full simplex: depth numvars
@example(cx(6, (1, 2, 3, 4, 5)))                 # simplex beside a ghost
@example(cx(7, (1, 2, 7), (3, 4, 7), (5, 6, 7)))  # cone over three edges
@example(cx(6, (1, 2, 3), (4, 5, 6)))            # disjoint triangles
@example(cx(7, (1, 2, 3), (2, 3, 4), (4, 5), (6,)))
# nonfaces 123, 14, 24 (one of size 3 among pairs): depth 2, and depth 1
# with an isolated vertex 5 and a ghost 6
@example(cx(4, (1, 2), (2, 3), (1, 3), (3, 4)))
@example(cx(6, (1, 2), (2, 3), (1, 3), (3, 4), (5,)))
@example(simplex_boundary(3))                    # one nonface, of size 4
@example(cx(6, (1, 2, 3, 4, 5)))                 # simplex beside a ghost: depth 6
@given(_depth_cases)
def test_depth_matches_all_subsets_reference(C):
    assert depth_hochster(C) == depth_hochster_ref(C)


def test_caps_do_not_depend_on_call_history():
    # the default-cap call in between must not leave a cached answer that
    # lets the capped call skip its face enumeration
    sphere = simplex_boundary(6)  # 7 facets of 6 vertices, well over 64 faces
    checks = [
        lambda cap: _profile_masks(sphere.mask_key, cap),
        lambda cap: is_cm_reisner(sphere, max_faces=cap),
        lambda cap: is_scm_duval(sphere, max_faces=cap),
        lambda cap: depth_hochster(sphere, max_faces=cap),
        lambda cap: goodarzi_check(sphere, max_faces=cap),
    ]
    for check in checks:
        with pytest.raises(ResourceCapError):
            check(64)
        check(1 << 20)
        with pytest.raises(ResourceCapError):
            check(64)
    assert _profile_masks(sphere.mask_key) == {5: 1}
    assert is_cm_reisner(sphere) and is_scm_duval(sphere)
    assert depth_hochster(sphere) == 6 and goodarzi_check(sphere)


def test_capped_link_criteria_list_the_faces_of_the_complex_asked_about():
    # nine isolated points have 10 faces; their link depth 0 is read off
    # the homology of the complex itself, so the face cap applies even
    # where no homology below degree 0 is asked for
    points = cx(9, *[(v,) for v in range(1, 10)])
    for check in (is_cm_reisner, is_scm_duval):
        with pytest.raises(ResourceCapError):
            check(points, max_faces=8)
        assert check(points, max_faces=10)


def test_reisner_answers_a_non_pure_complex_before_any_homology():
    # a 5-simplex beside a point has 65 faces: over the cap, yet the two
    # facet sizes already decide Reisner's criterion
    C = cx(7, (1, 2, 3, 4, 5, 6), (7,))
    assert is_cm_reisner(C, max_faces=64) is False
    with pytest.raises(ResourceCapError):
        link_depth(C.mask_key, 64)


@st.composite
def relabeled(draw):
    """A complex with ghosts, cones and disjoint pieces, its image under an
    order-preserving embedding into a wider universe, and the reversal
    v -> N + 1 - v of that image."""
    C = draw(st.one_of(
        coned(mixed_complexes(block=4, max_pieces=2)),
        cones_over(mixed_complexes(block=3, max_pieces=2)),
    ))
    gaps = draw(st.lists(st.integers(0, 2), min_size=C.n_vertices + 1, max_size=C.n_vertices + 1))
    # the depth sweep takes at most MAX_VAR_CAP variables, so the gaps
    # together add at most MAX_VAR_CAP - n vertices
    room = MAX_VAR_CAP - C.n_vertices
    for k, gap in enumerate(gaps):
        gaps[k] = min(gap, room)
        room -= gaps[k]
    return _widened(C, gaps)


def _widened(C, gaps):
    """(C, its image with gaps[v - 1] new vertices before each vertex v and
    gaps[n] after the last, the reversal of that image)."""
    target = [None]
    for v in range(1, C.n_vertices + 1):
        target.append(v - 1 + sum(gaps[:v]))
    N = C.n_vertices + sum(gaps)
    wide = SimplicialComplex(N, frozenset(permute_masks(C.mask_key, target)))
    flip = [None] + [N - v for v in range(1, N + 1)]
    rev = SimplicialComplex(N, frozenset(permute_masks(wide.mask_key, flip)))
    return C, wide, rev


def _capped_questions(C, cap):
    """Every memoised question about C at cap."""
    return [
        lambda: _profile_masks(C.mask_key, cap),
        lambda: link_depth(C.mask_key, cap),
        lambda: depth_hochster(C, max_vars=32, max_faces=cap),
        lambda: goodarzi_check(C, max_vars=32, max_faces=cap),
        lambda: is_cm_reisner(C, max_faces=cap),
        lambda: is_scm_duval(C, max_faces=cap),
    ]


def _answer(ask):
    try:
        return ask()
    except ResourceCapError:
        return ResourceCapError


def _cold_answer(ask):
    with cold_memos():
        return _answer(ask)


_CAPS = (8, 16, 32, 64, 128, 256)


@settings(max_examples=100, deadline=None)
@example((cx(3, (1, 2), (3,)), cx(5, (1, 3), (5,)), cx(5, (1,), (3, 5))))
# widened to the full MAX_VAR_CAP = 32 variables
@example(_widened(SimplicialComplex(12, frozenset({1025, 1040, 1280})), [2] * 10 + [0] * 3))
@given(relabeled())
def test_canonical_keys_share_every_memo_between_relabelings(case):
    C, wide, rev = case
    canon = _canonical(C.mask_key)
    assert _canonical(canon) == canon
    assert _canonical(wide.mask_key) == _canonical(rev.mask_key) == canon
    depth = depth_hochster(C, max_vars=32)
    for X in (wide, rev):
        assert _profile_masks(X.mask_key) == _profile_masks(C.mask_key)
        assert link_depth(X.mask_key, DEFAULT_FACE_CAP) == link_depth(C.mask_key, DEFAULT_FACE_CAP)
        # the added ghosts raise N and pd alike
        assert depth_hochster(X, max_vars=32) == depth
    # each question asked with empty memos, then all of them in a row after
    # the uncapped ones, so that later questions read what earlier ones left
    cold = {
        (X, cap): [_cold_answer(ask) for ask in _capped_questions(X, cap)]
        for X in (C, wide, rev) for cap in _CAPS
    }
    assert all(cold[X, cap] == cold[C, cap] for X in (wide, rev) for cap in _CAPS)
    with cold_memos():
        for X in (C, wide, rev):
            for ask in _capped_questions(X, DEFAULT_FACE_CAP):
                _answer(ask)
        for X in (C, wide, rev):
            for cap in _CAPS:
                assert [_answer(ask) for ask in _capped_questions(X, cap)] == cold[C, cap], cap


def test_every_memo_keeps_canonical_keys_only():
    with cold_memos():
        for n in range(1, 7):
            for F in enumerate_closed_connected(n):
                oracle_classify_facets(F)
        memos = [getattr(complexes, name) for name in ENGINE_MEMOS]
        assert all(memos)
        for memo in memos:
            for facets_key, _ in memo:
                assert _canonical(facets_key) == facets_key


class _RecordingMemo(dict):
    """A memo that records the key of every probe in a shared list."""

    def __init__(self, probes):
        super().__init__()
        self.probes = probes

    def get(self, key, default=None):
        self.probes.append(key)
        return super().get(key, default)


def test_every_memo_probe_uses_a_canonical_key():
    # each facet family is canonicalized where the engine forms it (a
    # truncation, a vertex link, a part of the depth sweep), so every
    # question is one probe with a canonical key; probing a raw vertex link
    # or sweep part first, and canonicalizing on a miss, fails here
    probes = []
    with cold_memos():
        for name in ENGINE_MEMOS:
            setattr(complexes, name, _RecordingMemo(probes))
        for n in range(1, 7):
            for F in enumerate_closed_connected(n):
                oracle_classify_facets(F)
    assert probes
    for facets_key, _ in probes:
        assert _canonical(facets_key) == facets_key


@st.composite
def spread_families(draw):
    """Facet families whose support has 0..40 vertices, spread over bits
    0..47, so the packing step and masks of 0..5 bytes all occur."""
    w = draw(st.integers(0, 40))
    spots = sorted(draw(st.sets(st.integers(0, 47), min_size=w, max_size=w)))
    local = draw(st.lists(st.integers(0, (1 << w) - 1), max_size=8))
    return frozenset(sum(1 << spots[k] for k in bits(m)) for m in local)


def _split_family(w, shift):
    """A vertex and the other w - 1 vertices of a support of w vertices
    starting at bit shift: reversal moves the lone vertex to the far end."""
    return frozenset({1 << shift, ((1 << w) - 2) << shift})


@settings(max_examples=300, deadline=None)
@example(frozenset())
@example(frozenset({0}))
@example(_split_family(8, 0))
@example(_split_family(16, 3))
@example(_split_family(32, 0))
@example(_split_family(32, 9))
@example(frozenset({0b1011 << 28, 1 << 40}))
# three runs of support bits: {0, 1}, {3, 4} and {6}
@example(frozenset({0b1011, 0b1011000, 0b1000010}))
# a run of support bits across a byte boundary, bits 6..9
@example(frozenset({1 | 1 << 6, 0b1110 << 6}))
# 32 support bits with a gap at bit 16
@example(frozenset({(1 << 16) - 1, ((1 << 16) - 1) << 17}))
# a cone: the apex, bits 1 and 9, goes above the packed core
@example(frozenset({0b1011 | 1 << 9, 0b0110 | 1 << 9}))
@given(spread_families())
def test_canonical_matches_string_reversal_reference(family):
    canon = _canonical(family)
    assert canon == canonical_ref(family)
    # the core of a canonical key is one too: the link-depth memo reads it
    # back as asked
    apex = _apex(canon)
    core = frozenset(m & ~apex for m in canon)
    assert _canonical(core) == core


def test_depth_simple_cases():
    # principal squarefree quadric: hypersurface, depth = numvars - 1
    C = cx(4, (1, 2, 3), (2, 3, 4))
    assert depth_hochster(C) == 3
    # full simplex: zero ideal, depth = numvars
    assert depth_hochster(cx(5, (1, 2, 3, 4, 5))) == 5
    # {emptyset}: quotient is the ground field, depth 0
    assert depth_hochster(cx(3, ())) == 0
    # two disjoint edges: connected in codim 0 fails, depth 1 < dim 2
    # (sigma = all four vertices has degree-0 homology, so pd = 3)
    assert depth_hochster(cx(4, (1, 2), (3, 4))) == 1


def test_depth_respects_caps():
    with pytest.raises(ResourceCapError):
        depth_hochster(cx(19, tuple(range(1, 20))))
    # the sweep's tables hold 32-bit masks: no cap above 32 is accepted
    with pytest.raises(ValueError, match="limit of 32"):
        depth_hochster(cx(4, (1, 2)), max_vars=33)
    assert depth_hochster(cx(4, (1, 2)), max_vars=32) == 2


def test_depth_cm_consistency_random():
    # Reisner CM <=> depth == dim + 1 (Auslander-Buchsbaum), on random complexes
    rng = random.Random(3)
    for _ in range(40):
        C = random_complex(rng, n_max=6)
        if C.is_void:
            continue
        d = depth_hochster(C)
        # depth measures the supported part; ghosts only shift pd
        assert (d == C.dim + 1) == is_cm_reisner(C)


def test_face_cap_enforced():
    # a sphere is not a cone, so its faces really are enumerated
    with pytest.raises(ResourceCapError):
        _profile_masks(simplex_boundary(10).mask_key, 100)


def test_face_cap_bounds_the_whole_complex():
    # two disjoint boundaries of the 5-simplex: 63 faces each, 125 together
    # (the empty face is shared); the cap bounds the faces of the complex
    # asked about, not those of each vertex-disjoint piece
    two = SimplicialComplex.from_faces(
        12, [*combinations(range(1, 7), 5), *combinations(range(7, 13), 5)])
    assert len(_faces_of(two.mask_key, DEFAULT_FACE_CAP)) == 125
    with pytest.raises(ResourceCapError):
        _profile_masks(two.mask_key, 100)
    assert _profile_masks(two.mask_key) == {0: 1, 4: 2}


def test_depth_with_ghost_vertices():
    # a ghost vertex puts its variable in the ideal: quotient unchanged,
    # projective dimension up by one
    assert depth_hochster(cx(4, (1, 2))) == 2   # K[x1,x2] after killing x3,x4
    assert depth_hochster(cx(3, (1,), (2,))) == 1  # K[x1,x2]/(x1x2) plus ghost


def test_projective_plane_has_no_rational_homology():
    # torsion only, so everything dies over Q.  The column reduction meets
    # no non-unit pivot here, under any of the 720 vertex relabelings; the
    # unit-free matrices of tests/test_linalg.py cover that branch.
    faces = RP2_FACETS
    edge_use = Counter()
    for f in faces:
        for e in combinations(f, 2):
            edge_use[e] += 1
    assert len(edge_use) == 15 and set(edge_use.values()) == {2}  # closed surface
    C = SimplicialComplex.from_faces(6, faces)
    assert _profile_masks(C.mask_key) == {}
    # over Q this surface is Cohen-Macaulay (the rational homology vanishes
    # below the top degree and all vertex links are circles); only in
    # characteristic 2 would it fail, and this engine is rational-only
    assert is_cm_reisner(C)
    assert depth_hochster(C) == 3
