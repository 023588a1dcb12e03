import random

from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals.linalg import rank_bareiss, rank_sparse_pm

from conftest import rank_fraction_gauss


def to_cols(rows):
    cols = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                cols.setdefault(j, {})[i] = v
    return cols


matrices = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=m, max_size=m,
        )
    )
)


@given(matrices)
@settings(max_examples=300, deadline=None)
def test_bareiss_matches_fraction_reference(rows):
    assert rank_bareiss(rows) == rank_fraction_gauss(rows)


@given(matrices)
@settings(max_examples=300, deadline=None)
def test_sparse_matches_fraction_reference(rows):
    assert rank_sparse_pm(to_cols(rows)) == rank_fraction_gauss(rows)


# no entry is +-1, so every pivot is a fraction-free one
unit_free = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 2, -2, 3, -4, 6, -9, 12]), min_size=n, max_size=n),
            min_size=m, max_size=m,
        )
    )
)


@given(unit_free)
@settings(max_examples=300, deadline=None)
def test_sparse_matches_reference_without_unit_entries(rows):
    assert rank_sparse_pm(to_cols(rows)) == rank_fraction_gauss(rows)


def test_edge_cases():
    assert rank_bareiss([]) == 0
    assert rank_bareiss([[0, 0], [0, 0]]) == 0
    assert rank_bareiss([[2]]) == 1
    assert rank_bareiss([[1, 2], [2, 4]]) == 1
    assert rank_sparse_pm({}) == 0
    assert rank_sparse_pm(to_cols([[0, 0], [0, 0]])) == 0
    assert rank_sparse_pm({0: {0: 2}}) == 1  # no unit entry
    assert rank_sparse_pm(to_cols([[1, 2], [2, 4]])) == 1
    assert rank_sparse_pm(to_cols([[2, 4], [3, 6]])) == 1
    assert rank_sparse_pm(to_cols([[2, 3], [4, 5]])) == 2
    # a unit pivot first, then a unit-free residual [[2, 4], [4, 8]] of rank 1
    assert rank_sparse_pm(to_cols([[1, 1, 1], [1, 3, 5], [1, 5, 9]])) == 2


def test_larger_random_sparse_pm():
    rng = random.Random(0)
    for _ in range(30):
        m, n = rng.randint(5, 14), rng.randint(5, 14)
        rows = [
            [rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(n)] for _ in range(m)
        ]
        assert rank_sparse_pm(to_cols(rows)) == rank_fraction_gauss(rows)
