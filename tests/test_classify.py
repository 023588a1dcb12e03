import random

import pytest
from hypothesis import given, settings

from edgeideals.classify import (
    classify,
    classify_facets,
    is_almost_cm_indecomposable,
    is_scm_indecomposable,
)
from edgeideals.closed import IntervalFacets, build_graph
from edgeideals.cutsets import cutsets_structural, is_unmixed, krull_dimension
from edgeideals.enumerators import (
    enumerate_closed_connected,
    enumerate_closed_indecomposable,
)
from edgeideals.errors import NotClosedError
from edgeideals.graphs import from_edge_list

from conftest import (
    NINE_SCM,
    SEVEN_ALMOST,
    SEVEN_NOT_ALMOST,
    SEVEN_NOT_SCM,
    almost_cm_shapes_ref,
    blocks_ref,
    claw,
    disconnected_facets,
    path_graph,
    relabel,
    scm_least_k_ref,
    split_components_ref,
    wsize_chain_check,
)


def union_graph(*facet_seqs):
    """Disjoint union of closed graphs given by facet sequences."""
    edges = []
    offset = 0
    total = 0
    for F in facet_seqs:
        G = build_graph(F)
        edges.extend((u + offset, v + offset) for u, v in G.edges())
        offset += F.n
        total += F.n
    return from_edge_list(total, edges)


def test_is_cm_closed_examples():
    assert classify_facets(IntervalFacets(4, ((1, 2), (2, 3), (3, 4)))).cm
    assert not classify_facets(SEVEN_NOT_SCM).cm
    assert classify_facets(IntervalFacets(5, ((1, 5),))).cm


@given(disconnected_facets())
@settings(max_examples=300, deadline=None)
def test_classify_facets_matches_component_reference(F):
    # blocks, components, CM and dimension of the block pass, against the
    # split into components first and the per-component CM test
    comps = split_components_ref(F)
    for G in (F, *(comp.facets for comp in comps)):
        parts = split_components_ref(G)
        c = classify_facets(G)
        assert c.blocks == tuple(blk.facets for blk in blocks_ref(G))
        assert c.components == len(parts)
        cm = all(b1 == a2 for P in parts
                 for (_, b1), (a2, _) in zip(P.facets.facets, P.facets.facets[1:]))
        assert c.cm == c.unmixed == cm
        assert c.krull_dim == sum(P.n + 1 for P in parts)


def test_scm_indecomposable_golden():
    assert is_scm_indecomposable(NINE_SCM) == (True, 1)
    assert is_scm_indecomposable(SEVEN_NOT_SCM) == (False, None)
    assert is_scm_indecomposable(IntervalFacets(5, ((1, 3), (2, 5)))) == (True, 1)
    assert is_scm_indecomposable(IntervalFacets(4, ((1, 4),))) == (True, None)


def test_scm_witness_is_least():
    # uppers consecutive only up to 2, lowers consecutive only from 2 on
    F = IntervalFacets(8, ((1, 4), (2, 5), (4, 7), (5, 8)))
    ok, k = is_scm_indecomposable(F)
    assert ok and k == 2
    # the verdict and least k of the run counts, against the paper's search
    # over k, on every indecomposable block with n <= 9
    for n in range(1, 10):
        for F in enumerate_closed_indecomposable(n):
            k = scm_least_k_ref(F)
            want = (True, None) if F.r == 1 else (k is not None, k)
            assert is_scm_indecomposable(F) == want, F.facets


def test_scm_indecomposable_rejects_decomposable():
    with pytest.raises(ValueError):
        is_scm_indecomposable(IntervalFacets(3, ((1, 2), (2, 3))))


def test_wsize_chain_examples():
    assert wsize_chain_check(NINE_SCM)
    assert not wsize_chain_check(SEVEN_NOT_SCM)
    assert wsize_chain_check(IntervalFacets(4, ((1, 3), (2, 4))))


def test_is_scm_closed_reductions():
    # the scm verdict of classify(G), read per block across components
    K3 = IntervalFacets(3, ((1, 3),))
    assert classify(union_graph(K3, NINE_SCM)).scm
    assert not classify(union_graph(K3, SEVEN_NOT_SCM)).scm
    assert classify(path_graph(6)).scm
    with pytest.raises(NotClosedError):
        classify(claw())


def test_almost_cm_indecomposable_golden():
    assert is_almost_cm_indecomposable(SEVEN_ALMOST)        # shape (b), b = 4
    assert not is_almost_cm_indecomposable(SEVEN_NOT_ALMOST)
    assert is_almost_cm_indecomposable(IntervalFacets(4, ((1, 3), (2, 4))))  # shape (a)


def test_almost_cm_shapes():
    # shape (c) with b = 3, n = 7
    assert is_almost_cm_indecomposable(
        IntervalFacets(7, ((1, 3), (2, 4), (3, 5), (4, 7)))
    )
    # two cliques meeting in three vertices: not almost CM
    assert not is_almost_cm_indecomposable(IntervalFacets(6, ((1, 4), (2, 6))))
    # three facets, middle one too wide for shape (b)
    assert not is_almost_cm_indecomposable(IntervalFacets(6, ((1, 3), (2, 5), (4, 6))))
    # five or more facets never qualify
    assert not is_almost_cm_indecomposable(
        IntervalFacets(7, ((1, 3), (2, 4), (3, 5), (4, 6), (5, 7)))
    )
    # the intersection-size test against the paper's three shapes, on every
    # indecomposable non-clique block with n <= 10; each shape is met
    for n in range(2, 11):
        shapes = almost_cm_shapes_ref(n)
        passing = set()
        for F in enumerate_closed_indecomposable(n):
            if F.r >= 2 and is_almost_cm_indecomposable(F):
                passing.add(F.facets)
        assert passing == shapes, n


def test_almost_cm_closed_block_rules():
    # the almost_cm verdict of classify(G): at most one non-clique block
    K3 = IntervalFacets(3, ((1, 3),))
    case_b = SEVEN_ALMOST
    assert classify(union_graph(K3, case_b)).almost_cm
    two_bad = union_graph(IntervalFacets(4, ((1, 3), (2, 4))), IntervalFacets(4, ((1, 3), (2, 4))))
    assert not classify(two_bad).almost_cm
    assert classify(path_graph(5)).almost_cm  # CM
    with pytest.raises(NotClosedError):
        classify(claw())


def test_approx_equals_almost():
    for F in enumerate_closed_connected(7):
        c = classify(build_graph(F))
        assert c.approx_cm == c.almost_cm


def test_classify_golden_records(nine_graph):
    c = classify(nine_graph)
    assert (c.unmixed, c.cm, c.scm, c.almost_cm, c.approx_cm, c.krull_dim) == (
        False, False, True, False, False, 10,
    )
    c = classify(path_graph(4))
    assert (c.unmixed, c.cm, c.scm, c.almost_cm, c.approx_cm, c.krull_dim) == (
        True, True, True, True, True, 5,
    )
    c = classify(build_graph(IntervalFacets(4, ((1, 3), (2, 4)))))
    assert (c.cm, c.scm, c.almost_cm, c.approx_cm, c.krull_dim) == (
        False, True, True, True, 5,
    )
    with pytest.raises(NotClosedError):
        classify(claw())


def test_classify_disconnected_dims():
    G = from_edge_list(4, [(1, 2), (3, 4)])
    c = classify(G)
    assert c.krull_dim == 6 and c.components == 2 and c.cm


def test_cm_iff_unmixed_vs_cutset_module():
    for n in range(1, 10):
        for F in enumerate_closed_connected(n):
            recs = cutsets_structural(F)
            cl = classify_facets(F)
            assert cl.cm == is_unmixed(recs), F.facets
            assert cl.unmixed == is_unmixed(recs), F.facets
            assert cl.krull_dim == krull_dimension(recs), F.facets


def test_implication_lattice_exhaustive():
    for n in range(1, 9):
        for F in enumerate_closed_connected(n):
            c = classify_facets(F)
            if c.cm:
                assert c.scm and c.almost_cm and c.unmixed
            assert c.approx_cm == c.almost_cm
            if c.almost_cm:
                assert c.scm  # almost CM forces sequentially CM on closed graphs
            assert c.approx_cm == (c.scm and c.almost_cm)


def test_classify_labeling_invariance():
    rng = random.Random(11)
    for F in list(enumerate_closed_connected(6))[::3]:
        G = build_graph(F)
        p = list(range(1, 7))
        rng.shuffle(p)
        H = relabel(G, {v: p[v - 1] for v in range(1, 7)})
        a, b = classify(G), classify(H)
        assert (a.unmixed, a.cm, a.scm, a.almost_cm, a.approx_cm, a.krull_dim) == (
            b.unmixed, b.cm, b.scm, b.almost_cm, b.approx_cm, b.krull_dim,
        )
        assert a.facets == b.facets


def test_classify_witness_blocks():
    # decomposable graph with one K3 block and one two-clique block
    F = IntervalFacets(6, ((1, 3), (3, 5), (4, 6)))
    c = classify_facets(F)
    assert [blk.facets for blk in c.blocks] == [((1, 3),), ((1, 3), (2, 4))]
    assert c.scm_witness_k_per_block == (None, 1)
    assert c.scm and not c.cm and c.almost_cm


def test_edgeless_components_are_cm():
    G = from_edge_list(3, [])
    c = classify(G)
    assert c.cm and c.scm and c.almost_cm and c.krull_dim == 6
