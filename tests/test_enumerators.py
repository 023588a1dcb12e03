from itertools import combinations

import pytest

from edgeideals.closed import IntervalFacets, build_graph, recognize_closed
from edgeideals.enumerators import (
    enumerate_closed_connected,
    enumerate_closed_indecomposable,
    random_closed,
)

from conftest import reverse_facets

# regression pins, first computed by the independent chain counter below
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 132}
INDECOMPOSABLE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 5, 6: 14, 7: 42}


def chains_by_bruteforce(n):
    """Independent oracle: filter all (a, b) chain pairs built from subsets."""
    out = []
    for r in range(1, n + 1):
        for a_set in combinations(range(1, n + 1), r):
            if a_set[0] != 1:
                continue
            for b_set in combinations(range(1, n + 1), r):
                if b_set[-1] != n:
                    continue
                chain = tuple(zip(a_set, b_set))
                if any(a > b for a, b in chain):
                    continue
                if any(a2 > b1 for (_, b1), (a2, _) in zip(chain, chain[1:])):
                    continue
                out.append(chain)
    return sorted(out, key=lambda ch: tuple(x for ab in ch for x in ab))


def test_small_explicit_streams():
    assert [F.facets for F in enumerate_closed_connected(2)] == [((1, 2),)]
    assert [F.facets for F in enumerate_closed_connected(3)] == [
        ((1, 2), (2, 3)),
        ((1, 3),),
    ]
    got4 = {F.facets for F in enumerate_closed_connected(4)}
    assert got4 == {
        ((1, 4),),
        ((1, 3), (2, 4)),
        ((1, 2), (2, 4)),
        ((1, 3), (3, 4)),
        ((1, 2), (2, 3), (3, 4)),
    }
    assert {F.facets for F in enumerate_closed_indecomposable(4)} == {
        ((1, 4),),
        ((1, 3), (2, 4)),
    }
    assert [F.facets for F in enumerate_closed_indecomposable(3)] == [((1, 3),)]
    assert [F.facets for F in enumerate_closed_indecomposable(2)] == [((1, 2),)]
    # one facet is indecomposable vacuously, at n = 1 as at every other n
    assert [F.facets for F in enumerate_closed_indecomposable(1)] == [((1, 1),)]


def test_streams_match_bruteforce_and_counts():
    for n in range(2, 8):
        got = [F.facets for F in enumerate_closed_connected(n)]
        ref = chains_by_bruteforce(n)
        assert got == ref  # same chains, same lexicographic order
        assert len(got) == CONNECTED_COUNTS[n]
        assert len(set(got)) == len(got)
        ind = [F.facets for F in enumerate_closed_indecomposable(n)]
        assert len(ind) == INDECOMPOSABLE_COUNTS[n]


def test_emitted_in_lex_order():
    for n in (5, 6, 7):
        flats = [F.flattened() for F in enumerate_closed_connected(n)]
        assert flats == sorted(flats)


def test_roundtrip_through_recognition():
    for n in range(2, 8):
        for F in enumerate_closed_connected(n):
            _, got = recognize_closed(build_graph(F))
            expect = min(F.flattened(), reverse_facets(F).flattened())
            assert got.flattened() == expect


def test_random_closed_determinism_and_validity():
    pinned = random_closed(5, 0)
    assert pinned.facets == ((1, 3), (2, 4), (3, 5))  # golden, fixed generator
    for seed in range(50):
        F = random_closed(9, seed, density_bias=0.6)
        assert isinstance(F, IntervalFacets) and F.is_connected
        again = random_closed(9, seed, density_bias=0.6)
        assert F == again
    assert random_closed(1, 123).facets == ((1, 1),)


def test_random_closed_bias_extremes():
    assert random_closed(6, 1, density_bias=0.0).facets == tuple(
        (i, i + 1) for i in range(1, 6)
    )
    assert random_closed(6, 1, density_bias=1.0).r <= 3


def test_input_validation():
    # both enumerators check n on the call, not at the first next()
    with pytest.raises(ValueError):
        enumerate_closed_connected(0)
    with pytest.raises(ValueError):
        enumerate_closed_indecomposable(0)
    with pytest.raises(ValueError, match=r"^density_bias must be in \[0, 1\], got 2.5$"):
        random_closed(3, 0, density_bias=2.5)
    # a non-int n is refused before any arithmetic or range() sees it
    for bad in (2.5, 3.0, "3"):
        for call in (lambda: enumerate_closed_connected(bad),
                     lambda: enumerate_closed_indecomposable(bad),
                     lambda: random_closed(bad, 1)):
            with pytest.raises(TypeError) as err:
                call()
            assert str(err.value) == f"n must be an int, got {bad!r}"
