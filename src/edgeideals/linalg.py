"""Exact rank of sparse integer matrices.

A matrix is given as a dict of lines {line: {index: value}}.  A line may
be a row or a column: rank(A) = rank(A^T), so the elimination treats every
line it is given as a row, and the boundary matrices of the homology
engine go in column by column as they are built.  These are sparse with
entries +-1, so one sparse elimination does all the work.  It pivots on a
+-1 entry while one is left, chosen Markowitz-style (least (line length
- 1) * (count of lines through the index - 1)) to limit fill, and the
update is then unimodular.  When no unit entry is left it pivots on an
entry of least absolute value and updates the other lines fraction-free
(line * p - f * pivot line), dividing each updated line by the gcd of its
entries.  Everything is Python integers; no floating point anywhere.
`rank_bareiss` enters the same elimination with dense rows.
"""

from __future__ import annotations

from math import gcd


def rank_sparse_pm(lines: dict[int, dict[int, int]]) -> int:
    """Rank over Q of a sparse integer matrix given as {line: {index: val}},
    its lines being either all its rows or all its columns."""
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for r, line in lines.items():
        row = {c: v for c, v in line.items() if v}
        if row:
            rows[r] = row
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
    return rank_sparse_pm({r: {c: int(v) for c, v in enumerate(row)} for r, row in enumerate(rows)})
