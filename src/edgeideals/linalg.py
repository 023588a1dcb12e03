"""Exact rank of sparse integer matrices.

Boundary matrices of simplicial complexes are sparse with entries +-1, so
one sparse elimination does all the work.  It pivots on a +-1 entry while
one is left, chosen Markowitz-style (least (row length - 1) * (column
count - 1)) to limit fill, and the update is then unimodular.  When no
unit entry is left it pivots on an entry of least absolute value and
updates the other rows fraction-free (row * p - f * pivot row), dividing
each updated row by the gcd of its entries.  Everything is Python
integers; no floating point anywhere.  `rank_bareiss` enters the same
elimination with dense rows.
"""

from __future__ import annotations

from math import gcd


def rank_sparse_pm(cols: dict[int, dict[int, int]]) -> int:
    """Rank over Q of a sparse integer matrix given column-major as
    {col: {row: val}}."""
    rows: dict[int, dict[int, int]] = {}
    for c, col in cols.items():
        for r, v in col.items():
            if v:
                rows.setdefault(r, {})[c] = v
    col_rows: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)

    rank = 0
    while rows:
        best = None
        best_cost = None
        for r, row in rows.items():
            rlen = len(row)
            for c, v in row.items():
                if v == 1 or v == -1:
                    cost = (rlen - 1) * (len(col_rows[c]) - 1)
                    if best_cost is None or cost < best_cost:
                        best, best_cost = (r, c), cost
                        if cost == 0:
                            break
            if best_cost == 0:
                break
        if best is None:  # no unit entry left
            _, best = min((abs(v), (r, c)) for r, row in rows.items() for c, v in row.items())
        pr, pc = best
        prow = rows.pop(pr)
        pval = prow[pc]
        unit = pval == 1 or pval == -1
        for c in prow:
            col_rows[c].discard(pr)
        for r in list(col_rows.get(pc, ())):
            row = rows[r]
            if unit:
                factor = row[pc] * pval  # pval is +-1, so this is integral
            else:
                factor = row[pc]
                for c in row:
                    row[c] *= pval
            for c, v in prow.items():
                nv = row.get(c, 0) - factor * v
                if nv:
                    row[c] = nv
                    col_rows.setdefault(c, set()).add(r)
                else:
                    if c in row:
                        del row[c]
                        col_rows[c].discard(r)
            if not row:
                del rows[r]
            elif not unit:
                g = gcd(*row.values())
                if g > 1:
                    for c in row:
                        row[c] //= g
        col_rows.pop(pc, None)
        rank += 1
    return rank


def rank_bareiss(rows) -> int:
    """Rank over Q of a dense integer matrix given as a list of rows.

    The library itself only calls `rank_sparse_pm`; this is the same
    fraction-free elimination under the name `perfbench/tracing.py` traces.
    """
    cols: dict[int, dict[int, int]] = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                cols.setdefault(c, {})[r] = int(v)
    return rank_sparse_pm(cols)
