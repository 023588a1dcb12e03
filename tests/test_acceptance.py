"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its elapsed time (visible under
pytest -s or in the failure report) and enforces the stated runtime bound.
The oracle sweep over every connected closed graph on up to 8 vertices is
shared between criteria through a session fixture.
"""

import random
import time
from itertools import combinations

import pytest

from edgeideals.classify import classify_facets, is_scm_indecomposable
from edgeideals.closed import IntervalFacets, build_graph
from edgeideals.complexes import (
    DEFAULT_FACE_CAP,
    SimplicialComplex,
    _faces_of,
    _profile_masks,
    depth_hochster,
)
from edgeideals.cutsets import cutsets_bruteforce, cutsets_structural, is_unmixed
from edgeideals.enumerators import (
    enumerate_closed_connected,
    enumerate_closed_indecomposable,
)
from edgeideals.oracle import oracle_classify_facets, oracle_complex

from conftest import (
    NINE_SCM,
    SEVEN_ALMOST,
    SEVEN_NOT_ALMOST,
    SEVEN_NOT_SCM,
    boundary_matrices,
    leaf_recursion_ref,
    num_edges,
    reverse_facets,
    vertex_connectivity_ref,
    wsize_chain_check,
)

SHOWCASE = [SEVEN_NOT_SCM, NINE_SCM, SEVEN_NOT_ALMOST, SEVEN_ALMOST]


def _report(k, name, t0):
    print(f"[criterion {k}] PASS: {name} ({time.time() - t0:.1f}s)")


@pytest.fixture(scope="session")
def oracle_sweep_n8():
    """(facets, classification, oracle report) for all connected closed n <= 8.

    The classifier runs on every labeled graph, the oracle once per
    reversal orbit {F, rev F}: x_k <-> y_{n+1-k} maps the one's
    Stanley-Reisner complex onto the other's (checked on every pair by
    test_oracle.py::test_reversal_maps_oracle_complexes), so their reports
    are equal.
    """
    out = []
    reports = {}
    for n in range(1, 9):
        for F in enumerate_closed_connected(n):
            orbit = min(F.flattened(), reverse_facets(F).flattened())
            if orbit not in reports:
                reports[orbit] = oracle_classify_facets(F)
            out.append((F, classify_facets(F), reports[orbit]))
    return out


def test_criterion_1_golden_showcase_examples():
    t0 = time.time()
    c = classify_facets(SEVEN_NOT_SCM)
    assert c.scm is False
    c = classify_facets(NINE_SCM)
    assert c.scm is True
    c = classify_facets(SEVEN_NOT_ALMOST)
    assert c.almost_cm is False
    c = classify_facets(SEVEN_ALMOST)
    assert c.almost_cm is True and c.scm is True
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, "classify reproduces all four showcase verdicts", t0)


def test_criterion_2_cutset_structure_theorem():
    t0 = time.time()
    checked = 0
    for n in range(1, 12):
        for F in enumerate_closed_connected(n):
            structural = {r.W: (r.c, r.dim, r.parts) for r in cutsets_structural(F)}
            brute = {r.W: (r.c, r.dim, r.parts) for r in cutsets_bruteforce(build_graph(F))}
            assert structural == brute, F.facets
            checked += 1
    assert checked == 1 + 1 + 2 + 5 + 14 + 42 + 132 + 429 + 1430 + 4862 + 16796 == 23714
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(2, f"structural = brute-force cut sets on {checked} graphs (n <= 11)", t0)


def test_criterion_3_two_clique_depth_formula():
    t0 = time.time()
    checked = 0
    for n in range(4, 8):
        for a in range(2, n):
            for b in range(a + 1, n):
                F = IntervalFacets(n, ((1, b), (a, n)))
                C = oracle_complex(F)
                assert C.dim + 1 == n + 1, (n, a, b)
                depth = depth_hochster(C)
                assert depth == n + a - b + 1, (n, a, b, depth)
                checked += 1
    assert checked == 1 + 3 + 6 + 10
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(3, f"oracle depth = n + a - b + 1 on all {checked} two-clique graphs", t0)


def test_criterion_4_main_theorem_cross_validation(oracle_sweep_n8):
    t0 = time.time()
    runs = list(oracle_sweep_n8)
    assert len(runs) == 1 + 1 + 2 + 5 + 14 + 42 + 132 + 429
    for F in SHOWCASE:  # caps permit both n = 7 and n = 9 (2n <= 18)
        runs.append((F, classify_facets(F), oracle_classify_facets(F)))
    for F, c, rep in runs:
        assert rep.dim_quotient == c.krull_dim, F.facets
        assert rep.cm == c.cm, F.facets
        assert rep.scm == c.scm, F.facets
        assert rep.almost_cm == c.almost_cm, F.facets
        assert rep.approx_cm == c.approx_cm, F.facets
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    _report(4, f"classifier = oracle on {len(runs)} graphs (n <= 8 exhaustive + showcase)", t0)


def test_criterion_5_criterion_equivalences(oracle_sweep_n8):
    t0 = time.time()
    # Duval <=> Goodarzi on every oracle run of this suite
    for F, _, rep in oracle_sweep_n8:
        assert rep.scm == rep.scm_goodarzi, F.facets
    for F in SHOWCASE:
        rep = oracle_classify_facets(F)
        assert rep.scm == rep.scm_goodarzi, F.facets
    # endpoint condition <=> unimodal-chain condition, indecomposable n <= 9
    t1 = time.time()
    checked = 0
    for n in range(2, 10):
        for F in enumerate_closed_indecomposable(n):
            assert wsize_chain_check(F) == is_scm_indecomposable(F)[0], F.facets
            checked += 1
    assert time.time() - t1 < 60.0
    _report(5, f"Duval=Goodarzi on all runs; chain=endpoint on {checked} blocks", t0)


def test_criterion_6_structural_identities(oracle_sweep_n8):
    t0 = time.time()
    # CM <=> unmixed, classifier vs cut-set module, all connected closed n <= 9
    for n in range(1, 10):
        for F in enumerate_closed_connected(n):
            cm = classify_facets(F).cm
            assert cm == is_unmixed(cutsets_structural(F)), F.facets
    # approx <=> almost and almost => scm on every classified graph, n <= 8
    for n in range(1, 9):
        for F in enumerate_closed_connected(n):
            c = classify_facets(F)
            assert c.approx_cm == c.almost_cm, F.facets
            if c.almost_cm:
                assert c.scm, F.facets
    # oracle confirmation where caps permit: the shared n <= 8 sweep, and
    # in it every almost-CM graph on 7 or 8 vertices
    for F, c, rep in oracle_sweep_n8:
        assert rep.approx_cm == rep.almost_cm, F.facets
        if rep.almost_cm:
            assert rep.scm, F.facets
    confirmed = 0
    for F, c, rep in oracle_sweep_n8:
        if F.n >= 7 and c.almost_cm:
            assert rep.almost_cm and rep.scm, F.facets
            confirmed += 1
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    _report(6, f"identity lattice holds (oracle-confirmed almost-CM at n=7,8: {confirmed})", t0)


def test_criterion_7_homology_engine_unit_properties():
    t0 = time.time()
    # boundary-squared-zero on randomized complexes, 100 seeds
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        gens = [
            tuple(rng.sample(range(1, n + 1), rng.randint(1, n)))
            for _ in range(rng.randint(1, 6))
        ]
        C = SimplicialComplex.from_faces(n, gens)
        mats = boundary_matrices(C)
        for d in sorted(mats):
            if d + 1 in mats and mats[d] and mats[d + 1] and mats[d][0]:
                A, B = mats[d], mats[d + 1]
                for i in range(len(A)):
                    for j in range(len(B[0])):
                        assert sum(A[i][k] * B[k][j] for k in range(len(B))) == 0
        # Euler consistency on every homology call (also asserted internally)
        nz = _profile_masks(C.mask_key, DEFAULT_FACE_CAP)
        faces = _faces_of(C.mask_key, DEFAULT_FACE_CAP)
        chi = sum(1 if f.bit_count() % 2 else -1 for f in faces)
        assert sum(b if d % 2 == 0 else -b for d, b in nz.items()) == chi
    # hollow spheres: boundary of the (k+1)-simplex is S^k for k <= 3 (dim 4 complex bound)
    for k in range(0, 4):
        verts = range(1, k + 3)
        sphere = SimplicialComplex.from_faces(k + 2, combinations(verts, k + 2 - 1))
        assert _profile_masks(sphere.mask_key) == {k: 1}, k
    # dimension-4 sphere as well: boundary of the 5-simplex
    sphere4 = SimplicialComplex.from_faces(6, combinations(range(1, 7), 5))
    assert _profile_masks(sphere4.mask_key) == {4: 1}
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(7, "boundary^2 = 0, Euler identity, sphere Betti numbers", t0)


def test_criterion_8_connectivity_bounds_depth(oracle_sweep_n8):
    # depth S/J_G <= n - kappa(G) + 2 for connected non-complete G
    # (Banerjee, Nunez-Betancourt, Proc. AMS 2017), with kappa by brute force
    # over vertex subsets: a third depth check that shares no code with the
    # Hochster sweep or with the classifier
    t0 = time.time()
    checked = tight = 0
    for F, _, rep in oracle_sweep_n8:
        G = build_graph(F)
        if num_edges(G) == F.n * (F.n - 1) // 2:
            continue
        bound = F.n - vertex_connectivity_ref(G) + 2
        assert rep.depth <= bound, (F.facets, rep.depth, bound)
        checked += 1
        tight += rep.depth == bound
    assert checked == len(oracle_sweep_n8) - 8  # K_n is the one complete graph per n
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(8, f"depth <= n - kappa + 2 on {checked} non-complete graphs ({tight} with equality)", t0)


def test_criterion_9_scm_depth_is_least_facet_size(oracle_sweep_n8):
    # depth k[Delta] is at most |F| for every facet F (the dimension of an
    # associated prime), and for an SCM complex it is the least facet size
    # s: the (s - 1)-skeleton is the pure (s - 1)-skeleton, CM by Duval, so
    # Smith's depth = 1 + max{i : the i-skeleton is CM} is at least s.  This
    # checks the depth sweep against the dimension filtration, not links
    t0 = time.time()
    scm = short = 0
    for F, _, rep in oracle_sweep_n8:
        least = min(m.bit_count() for m in oracle_complex(F).mask_key)
        assert rep.depth <= least, (F.facets, rep.depth, least)
        if rep.scm:
            assert rep.depth == least, (F.facets, rep.depth, least)
            scm += 1
        else:
            short += rep.depth < least
    # the equality is no tautology: non-SCM graphs fall short of it
    assert scm and short
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(9, f"depth = least facet size on {scm} SCM graphs ({short} non-SCM fall short)", t0)


def test_criterion_10_leaf_recursion_derives_the_scm_verdicts(oracle_sweep_n8):
    # the oracle complex is the independence complex of a bipartite graph,
    # where SCM is decided by a leaf recursion that also yields the facet
    # sizes: dim is the largest, CM is SCM with one size, and an SCM
    # complex has depth equal to the least (criterion 9).  A third
    # derivation of the SCM verdict that shares no code with the homology
    # engine, the cut sets or the classifier
    t0 = time.time()
    for F, _, rep in oracle_sweep_n8:
        sizes = leaf_recursion_ref(F)
        scm = sizes is not None
        assert scm == rep.scm, F.facets
        assert rep.cm == (scm and len(sizes) == 1), F.facets
        if scm:
            assert (max(sizes), min(sizes)) == (rep.dim_quotient, rep.depth), F.facets
    for n in range(1, 11):
        count = 0
        for F in enumerate_closed_connected(n):
            c = classify_facets(F)
            sizes = leaf_recursion_ref(F)
            scm = sizes is not None
            assert scm == c.scm, F.facets
            assert c.cm == (scm and len(sizes) == 1), F.facets
            if scm:
                assert max(sizes) == c.krull_dim, F.facets
            count += scm
    assert count == 2986  # of the 4,862 graphs with n = 10
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(10, f"leaf recursion = oracle on n <= 8, = classifier on n <= 10 ({count} SCM at n = 10)", t0)
