"""Exact rank of sparse integer matrices.

A matrix is given as a dict of lines {line: {index: value}}.  A line may
be a row or a column: rank(A) = rank(A^T), so the reduction treats every
line it is given alike, and the boundary matrices of the homology engine
go in column by column as they are built.  The reduction is the one run
on boundary matrices in persistent homology (Edelsbrunner-Letscher-
Zomorodian 2002), over Q: each line in turn is reduced against the pivot
lines kept so far, keyed by their lowest index, until it is zero or its
lowest index owns no pivot yet, and then it becomes that index's pivot
line.  The rank is the number of pivot lines.  The boundary matrices
have entries +-1, and a +-1 pivot gives the unimodular update
line - f * pivot line.  Any other pivot p gives the fraction-free update
line * p - f * pivot line (p and f divided by their gcd first), and the
line is then divided by the gcd of its entries.  Everything is Python
integers; no floating point anywhere.  `rank_bareiss` enters the same
reduction with dense rows.
"""

from __future__ import annotations

from math import gcd


def rank_sparse_pm(lines: dict[int, dict[int, int]]) -> int:
    """Rank over Q of a sparse integer matrix given as {line: {index: val}},
    its lines being either all its rows or all its columns."""
    pivots: dict[int, dict[int, int]] = {}
    for line in lines.values():
        line = {c: v for c, v in line.items() if v}
        while line:
            low = min(line)
            pline = pivots.get(low)
            if pline is None:
                pivots[low] = line
                break
            p, f = pline[low], line[low]
            unit = p == 1 or p == -1
            if unit:
                f *= p
            else:
                g = gcd(p, f)
                p, f = p // g, f // g
                line = {c: v * p for c, v in line.items()}
            for c, v in pline.items():
                nv = line.get(c, 0) - f * v
                if nv:
                    line[c] = nv
                else:
                    del line[c]
            if line and not unit:
                g = gcd(*line.values())
                if g > 1:
                    line = {c: v // g for c, v in line.items()}
    return len(pivots)


def rank_bareiss(rows) -> int:
    """Rank over Q of a dense integer matrix given as a list of rows.

    The library itself only calls `rank_sparse_pm`; this is the same
    fraction-free reduction under the name `perfbench/tracing.py` traces.
    """
    return rank_sparse_pm({r: {c: int(v) for c, v in enumerate(row)} for r, row in enumerate(rows)})
