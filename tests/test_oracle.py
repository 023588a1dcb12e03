import ast
import os
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

import edgeideals
from edgeideals import complexes
from edgeideals.classify import classify_facets
from edgeideals.closed import IntervalFacets
from edgeideals.complexes import (
    DEFAULT_FACE_CAP,
    SimplicialComplex,
    depth_hochster,
    is_cm_reisner,
    is_scm_duval,
    link_depth,
)
from edgeideals.enumerators import enumerate_closed_connected
from edgeideals.errors import NotClosedError, ResourceCapError
from edgeideals.graphs import from_edge_list, permute_masks
from edgeideals.oracle import (
    goodarzi_check,
    initial_ideal_generators,
    oracle_classify,
    oracle_classify_facets,
    oracle_complex,
    stanley_reisner_complex,
)

from conftest import (
    SEVEN_ALMOST,
    SEVEN_NOT_SCM,
    claw,
    cold_memos,
    complete_graph,
    depth_hochster_ref,
    prime_complex_union_ref,
    reverse_facets,
)


def test_initial_ideal_generators():
    assert initial_ideal_generators(IntervalFacets(2, ((1, 2),))) == frozenset({(1, 2)})
    K3 = IntervalFacets(3, ((1, 3),))
    assert initial_ideal_generators(K3) == frozenset({(1, 2), (1, 3), (2, 3)})
    # one generator per edge of the union of the four interval cliques
    assert len(initial_ideal_generators(SEVEN_NOT_SCM)) == 13


def test_stanley_reisner_k2():
    C = stanley_reisner_complex({(1, 2)}, 2)
    # x1=1, x2=2, y1=3, y2=4; the only non-edge pair is {x1, y2}
    assert C.facets == frozenset({frozenset({1, 2, 3}), frozenset({2, 3, 4})})
    assert C.dim == 2
    # brute force over all 16 subsets of 4 vertices
    for code in range(16):
        face = {v for v in range(1, 5) if (code >> (v - 1)) & 1}
        in_a_facet = any(face <= f for f in C.facets)
        assert in_a_facet == (not {1, 4} <= face)


def test_stanley_reisner_edgeless_and_k3():
    full = stanley_reisner_complex(set(), 3)
    assert full.facets == frozenset({frozenset(range(1, 7))})
    C = stanley_reisner_complex({(1, 2), (1, 3), (2, 3)}, 3)
    assert C.dim == 3  # dim S/in = 4 = n + 1


def test_stanley_reisner_facets_are_maximal_independent_sets():
    # brute force over all 2^(2n) vertex subsets, every connected closed n <= 4
    for n in range(1, 5):
        for F in enumerate_closed_connected(n):
            gens = initial_ideal_generators(F)
            pairs = [(1 << (i - 1)) | (1 << (n + j - 1)) for i, j in gens]
            indep = [m for m in range(1 << (2 * n)) if not any(p & m == p for p in pairs)]
            maximal = {m for m in indep if not any(m != k and m & k == m for k in indep)}
            assert stanley_reisner_complex(gens, n).mask_key == maximal, F.facets


def test_depth_matches_reference_on_every_truncation_n6():
    # Goodarzi's depth checks: every truncation (facets with more than i
    # vertices) of the complex of every connected closed graph with n <= 6,
    # and Smith's depth = 1 + min(link depth, dim) on each
    seen = set()
    for n in range(1, 7):
        for F in enumerate_closed_connected(n):
            C = oracle_complex(F)
            for i in range(C.dim + 1):
                sub = SimplicialComplex(C.n_vertices, frozenset(m for m in C.mask_key if m.bit_count() > i))
                if sub.mask_key not in seen:
                    seen.add(sub.mask_key)
                    depth = depth_hochster(sub)
                    assert depth == depth_hochster_ref(sub), (F.facets, i)
                    assert depth == 1 + min(link_depth(sub.mask_key, DEFAULT_FACE_CAP), sub.dim)


def test_reversal_maps_oracle_complexes():
    # x_k <-> y_{n+1-k}, i.e. vertex v -> 2n + 1 - v of the 2n, maps the
    # Stanley-Reisner complex of F onto that of rev F, so the two share
    # one oracle report: the n <= 8 acceptance sweep runs the oracle once
    # per orbit {F, rev F} on the strength of this check
    for n in range(1, 9):
        swap = [None] + [2 * n - v for v in range(1, 2 * n + 1)]
        for F in enumerate_closed_connected(n):
            got = frozenset(permute_masks(oracle_complex(F).mask_key, swap))
            assert got == oracle_complex(reverse_facets(F)).mask_key, F.facets


def test_oracle_complex_is_the_union_of_prime_complexes():
    # the complex of in(J_G) is the union of those of the in(P_W), one per
    # cut set: links the brute-force cut sets to the oracle complex, two
    # modules that share no code
    graphs = [F for n in range(1, 9) for F in enumerate_closed_connected(n)]
    assert len(graphs) == 626
    bad = [F.facets for F in graphs if oracle_complex(F).mask_key != prime_complex_union_ref(F)]
    assert bad == []


def test_depth_golden_values():
    # K2: principal ideal (x1 y2), hypersurface in 4 variables
    assert depth_hochster(oracle_complex(IntervalFacets(2, ((1, 2),)))) == 3
    # two-clique [1,3],[2,4] on n=4: depth = n + a - b + 1 = 4
    assert depth_hochster(oracle_complex(IntervalFacets(4, ((1, 3), (2, 4))))) == 4
    # K3: determinantal, CM with depth = dim = n + 1
    C = oracle_complex(IntervalFacets(3, ((1, 3),)))
    assert depth_hochster(C) == 4 and is_cm_reisner(C)


def test_goodarzi_examples():
    C = oracle_complex(IntervalFacets(4, ((1, 3), (2, 4))))
    assert goodarzi_check(C)
    C7 = oracle_complex(SEVEN_NOT_SCM)
    assert not goodarzi_check(C7)
    full = stanley_reisner_complex(set(), 2)
    assert goodarzi_check(full)


@pytest.mark.parametrize("shift, F", [
    (-1, IntervalFacets(2, ((1, 2),))),  # CM: any lower link depth breaks it
    (1, SEVEN_NOT_SCM),                  # link depth below dim: one more breaks it
])
def test_oracle_checks_link_depth_against_hochster_depth(monkeypatch, shift, F):
    import edgeideals.oracle as oracle_mod

    real = oracle_mod.link_depth
    monkeypatch.setattr(oracle_mod, "link_depth", lambda key, cap: real(key, cap) + shift)
    with pytest.raises(AssertionError, match="link depth and Hochster depth disagree"):
        oracle_classify_facets(F)


@pytest.mark.parametrize("F", [IntervalFacets(4, ((1, 3), (2, 4))), SEVEN_NOT_SCM])
def test_oracle_checks_link_depth_against_hochster_depth_on_every_truncation(monkeypatch, F):
    # the whole complex keeps its link depth; one lower on the proper
    # truncations alone must already break Smith's identity there
    import edgeideals.oracle as oracle_mod

    whole = oracle_complex(F).mask_key
    assert len({m.bit_count() for m in whole}) > 1
    # the oracle asks with each truncation's canonical key
    whole = complexes._canonical(whole)
    real = oracle_mod.link_depth
    monkeypatch.setattr(oracle_mod, "link_depth",
                        lambda key, cap: real(key, cap) - (key != whole))
    with pytest.raises(AssertionError, match="link depth and Hochster depth disagree"):
        oracle_classify_facets(F)


@pytest.mark.parametrize("F", [IntervalFacets(3, ((1, 3),)), SEVEN_NOT_SCM])
def test_oracle_canonicalizes_each_truncation_once(monkeypatch, F):
    # one canonical key per facet truncation per call, read by Reisner,
    # Duval, Goodarzi and the Smith check alike: with empty memos no
    # truncation's facets are canonicalized twice, and with full memos the
    # truncations are the only facets canonicalized at all
    whole = oracle_complex(F).mask_key
    keys = Counter(frozenset(m for m in whole if m.bit_count() >= s)
                   for s in {m.bit_count() for m in whole})
    seen = Counter()
    real = complexes._canonical

    def counted(facets_key):
        seen[facets_key] += 1
        return real(facets_key)

    monkeypatch.setattr(complexes, "_canonical", counted)
    with cold_memos():
        report = oracle_classify_facets(F)
        assert all(seen[key] <= 1 for key in keys), seen
        seen.clear()
        assert oracle_classify_facets(F) == report
    assert seen == keys


def test_void_complex_is_rejected_by_every_criterion():
    void = SimplicialComplex(3, frozenset())
    for check in (is_cm_reisner, is_scm_duval, depth_hochster, goodarzi_check):
        with pytest.raises(ValueError, match="void complex"):
            check(void)


def _closed_n6():
    for n in range(1, 7):
        yield from enumerate_closed_connected(n)


def test_oracle_sweeps_depth_once_per_distinct_truncation(monkeypatch):
    # the oracle, its Smith check and Goodarzi read one memoised depth per
    # facet-size truncation, so each canonical key is swept at most once in
    # a process, and every truncation's pd is in the memo afterwards
    swept = []
    real = complexes._pd_sweep

    def counted(facets_key, max_faces):
        swept.append((facets_key, max_faces))
        return real(facets_key, max_faces)

    monkeypatch.setattr(complexes, "_pd_sweep", counted)
    monkeypatch.setattr(complexes, "_pd_cache", {})
    for F in [*_closed_n6(), SEVEN_NOT_SCM, SEVEN_ALMOST]:
        oracle_classify_facets(F)
        for _, sub in oracle_complex(F).truncations:
            assert (complexes._canonical(sub.mask_key), DEFAULT_FACE_CAP) in complexes._pd_cache, F.facets
    assert len(swept) == len(set(swept))
    assert all(complexes._canonical(key) == key for key, _ in swept)


def test_reversed_chain_reads_the_depth_sweep_of_its_pair(monkeypatch):
    # the truncations of the oracle complexes of F and rev F share their
    # canonical keys, so the second call reads every pd from the memo
    swept = []
    real = complexes._pd_sweep

    def counted(facets_key, max_faces):
        swept.append(facets_key)
        return real(facets_key, max_faces)

    monkeypatch.setattr(complexes, "_pd_sweep", counted)
    for F in _closed_n6():
        R = reverse_facets(F)
        rep = oracle_classify_facets(F)
        swept.clear()
        assert oracle_classify_facets(R) == rep, F.facets
        assert swept == [], F.facets


def test_standalone_goodarzi_matches_the_oracle_n6():
    for F in _closed_n6():
        rep = oracle_classify_facets(F)
        assert goodarzi_check(oracle_complex(F)) == rep.scm_goodarzi, F.facets


def test_duval_on_showcase_graphs():
    assert not is_scm_duval(oracle_complex(SEVEN_NOT_SCM))
    assert is_scm_duval(oracle_complex(SEVEN_ALMOST))


def test_oracle_reports_golden():
    rep = oracle_classify_facets(SEVEN_NOT_SCM)
    assert (rep.dim_quotient, rep.cm, rep.scm, rep.almost_cm) == (8, False, False, False)

    rep = oracle_classify_facets(SEVEN_ALMOST)
    assert rep.almost_cm and rep.scm and rep.approx_cm

    rep = oracle_classify(complete_graph(5))
    assert rep.cm and rep.depth == rep.dim_quotient == 6

    with pytest.raises(NotClosedError):
        oracle_classify(claw())


def test_oracle_caps():
    big = IntervalFacets(10, ((1, 10),))
    with pytest.raises(ResourceCapError):
        oracle_classify_facets(big)  # 2n = 20 > 18


def test_oracle_disconnected_tensor_behaviour():
    # K3 plus path P3: dims and depth add up across components
    G = from_edge_list(6, [(1, 2), (1, 3), (2, 3), (4, 5), (5, 6)])
    rep = oracle_classify(G)
    assert rep.dim_quotient == 4 + 4  # (n1+1) + (n2+1)
    assert rep.cm and rep.scm


def test_oracle_agrees_with_classifier_n5():
    from edgeideals.cutsets import cutsets_structural, krull_dimension

    for F in enumerate_closed_connected(5):
        rep = oracle_classify_facets(F)
        c = classify_facets(F)
        assert rep.dim_quotient == c.krull_dim
        assert rep.dim_quotient == krull_dimension(cutsets_structural(F), F.n)
        assert (rep.cm, rep.scm, rep.almost_cm, rep.approx_cm) == (
            c.cm, c.scm, c.almost_cm, c.approx_cm,
        )
        assert rep.scm == rep.scm_goodarzi


def test_oracle_disconnected_unions_agree_with_classifier():
    from edgeideals.classify import classify
    from edgeideals.closed import build_graph as bg

    def union(*seqs):
        edges, off = [], 0
        for F in seqs:
            G = bg(F)
            edges.extend((u + off, v + off) for u, v in G.edges())
            off += F.n
        return from_edge_list(off, edges)

    pairs = [
        (IntervalFacets(1, ((1, 1),)), IntervalFacets(2, ((1, 2),))),
        (IntervalFacets(2, ((1, 2),)), IntervalFacets(4, ((1, 3), (2, 4)))),
        (IntervalFacets(3, ((1, 3),)), IntervalFacets(3, ((1, 2), (2, 3)))),
        (IntervalFacets(3, ((1, 2), (2, 3))), IntervalFacets(3, ((1, 2), (2, 3)))),
    ]
    for F1, F2 in pairs:
        G = union(F1, F2)
        c = classify(G)
        r = oracle_classify(G)
        assert (c.cm, c.scm, c.almost_cm, c.approx_cm, c.krull_dim) == (
            r.cm, r.scm, r.almost_cm, r.approx_cm, r.dim_quotient,
        ), (F1.facets, F2.facets)
        assert r.scm == r.scm_goodarzi


def test_library_has_no_assert_and_never_reads_debug():
    # python -O strips assert statements and sets __debug__ to False; with
    # neither in the library, -O runs the same library code as a plain run,
    # so every invariant the suite checks holds under -O as well
    root = os.path.dirname(edgeideals.__file__)
    found = []
    for folder, _, names in os.walk(root):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if (isinstance(node, ast.Assert)
                        or isinstance(node, ast.Name) and node.id == "__debug__"
                        or isinstance(node, ast.Attribute) and node.attr == "__debug__"):
                    where = os.path.relpath(path, os.path.dirname(root))
                    found.append(f"{where}:{node.lineno}: {ast.unparse(node)}")
    assert not found, "\n".join(found)


def test_report_invariants_hold_under_python_O():
    # -O strips assert statements; the record invariants must still raise
    script = textwrap.dedent("""
        import sys
        from edgeideals.oracle import OracleReport
        from edgeideals.classify import classify_facets
        from edgeideals.closed import IntervalFacets
        import dataclasses
        assert False, "this line is stripped under -O"
        try:
            OracleReport(dim_quotient=4, depth=4, cm=False, scm=True,
                         scm_goodarzi=True, almost_cm=True, approx_cm=True)
        except AssertionError:
            pass
        else:
            sys.exit("inconsistent OracleReport accepted")
        good = classify_facets(IntervalFacets(3, ((1, 3),)))
        try:
            dataclasses.replace(good, approx_cm=not good.almost_cm)
        except AssertionError:
            pass
        else:
            sys.exit("inconsistent Classification accepted")
    """)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(edgeideals.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
