"""Systematic generation of closed graphs for exhaustive sweeps.

A connected closed graph on [n] is the same thing as a facet chain
(a_1,b_1), ..., (a_r,b_r) with 1 = a_1 < ... < a_r, b_1 < ... < b_r = n,
a_i <= b_i and a_{i+1} <= b_i: the graph is the union of the interval
cliques and the intervals are exactly its maximal cliques.  (Why: every
vertex pair inside an interval is an edge, so each interval is a clique;
conversely a clique's minimum u and maximum w are adjacent, so some
interval contains both and hence the whole clique, which also shows two
intervals never contain one another beyond the stated chains.)

Enumeration is over labeled facet chains, not isomorphism classes; the
properties being swept are statements about labeled closed graphs, so
labeled coverage is the right test universe.  Disconnected sweeps are
built compositionally from connected pieces.

The random generator uses splitmix64 so a (n, seed, bias) triple pins the
same chain on any platform or language; no library RNG is involved.
"""

from __future__ import annotations

from typing import Iterator

from .closed import IntervalFacets, is_indecomposable

_MASK64 = (1 << 64) - 1


def _check_n(n) -> None:
    if not isinstance(n, int):
        raise TypeError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ValueError("n >= 1")


def enumerate_closed_connected(n: int) -> Iterator[IntervalFacets]:
    """All connected facet chains on [n], in lexicographic order of the
    flattened tuple (a_1, b_1, a_2, b_2, ...), each exactly once.

    n is checked on the call, before the first chain is asked for.
    """
    _check_n(n)
    return _connected_chains(n)


def _connected_chains(n: int) -> Iterator[IntervalFacets]:
    if n == 1:
        yield IntervalFacets(1, ((1, 1),))
        return

    def extend(chain: list[tuple[int, int]]) -> Iterator[IntervalFacets]:
        a, b = chain[-1]
        if b == n:
            yield IntervalFacets(n, tuple(chain))
            return
        for a2 in range(a + 1, b + 1):          # overlap keeps it connected
            for b2 in range(b + 1, n + 1):
                chain.append((a2, b2))
                yield from extend(chain)
                chain.pop()

    for b1 in range(2, n + 1):
        yield from extend([(1, b1)])


def enumerate_closed_indecomposable(n: int) -> Iterator[IntervalFacets]:
    """Connected chains with every consecutive intersection of size >= 2.

    The condition is vacuous for one facet, so the chain ((1, n),) is
    always yielded, ((1, 1),) at n = 1 included.  n is checked on the call.
    """
    return filter(is_indecomposable, enumerate_closed_connected(n))


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def random_closed(n: int, seed: int, density_bias: float = 0.5) -> IntervalFacets:
    """Deterministic pseudorandom connected facet chain on [n].

    density_bias in [0, 1] skews the jump size of successive upper
    endpoints: 0 forces single steps (many small cliques), 1 allows jumps
    across the whole remaining range (few large cliques).  All arithmetic
    is integral, keyed off splitmix64, so results are reproducible from
    (n, seed, density_bias) alone.
    """
    _check_n(n)
    if not 0.0 <= density_bias <= 1.0:
        raise ValueError(f"density_bias must be in [0, 1], got {density_bias}")
    if n == 1:
        return IntervalFacets(1, ((1, 1),))
    permille = int(round(density_bias * 1000))
    state = seed & _MASK64
    state, u = _splitmix64(state)
    span = 1 + ((n - 2) * permille) // 1000
    b = 2 + u % span
    chain = [(1, b)]
    a = 1
    while b < n:
        state, u = _splitmix64(state)
        a = a + 1 + u % (b - a)
        state, u = _splitmix64(state)
        span = 1 + ((n - b - 1) * permille) // 1000
        b2 = b + 1 + u % span
        chain.append((a, b2))
        b = b2
    return IntervalFacets(n, tuple(chain))
