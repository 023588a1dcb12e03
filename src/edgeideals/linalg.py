"""Exact rank computation for integer matrices.

Boundary matrices of simplicial complexes are sparse with entries +-1, so
ranks are computed by unimodular sparse elimination (always pivot on a +-1
entry, chosen Markowitz-style to limit fill); whatever survives without a
unit pivot is finished off by dense fraction-free Bareiss elimination.
Everything is Python integers; no floating point anywhere.

`rank_fraction_gauss` is a deliberately naive Fraction-based Gaussian
elimination kept as an independent reference for the property tests.
"""

from __future__ import annotations

from fractions import Fraction


def rank_fraction_gauss(rows) -> int:
    """Reference rank over Q: plain Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def rank_bareiss(rows) -> int:
    """Fraction-free Bareiss elimination with full pivot search."""
    m = [list(map(int, row)) for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    used_cols = []
    for _ in range(min(nrows, ncols)):
        piv = None
        for i in range(r, nrows):
            for j in range(ncols):
                if j in used_cols:
                    continue
                if m[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        m[r], m[pi] = m[pi], m[r]
        pv = m[r][pj]
        for i in range(r + 1, nrows):
            fi = m[i][pj]
            if fi == 0 and pv == prev:
                continue
            row_i = m[i]
            row_r = m[r]
            for j in range(ncols):
                row_i[j] = (row_i[j] * pv - fi * row_r[j]) // prev
        prev = pv
        used_cols.append(pj)
        rank += 1
        r += 1
    return rank


def rank_sparse_pm(cols: dict[int, dict[int, int]]) -> int:
    """Rank of a sparse integer matrix given column-major as {col: {row: val}}.

    Unit (+-1) pivots are eliminated first with unimodular row operations;
    any residual without unit entries goes to Bareiss.
    """
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
    while True:
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
        if best is None:
            break
        pr, pc = best
        prow = rows.pop(pr)
        pval = prow[pc]
        for c in prow:
            col_rows[c].discard(pr)
        for r in list(col_rows.get(pc, ())):
            row = rows[r]
            factor = row[pc] * pval  # pval is +-1, so this is integral
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
        col_rows.pop(pc, None)
        rank += 1

    if rows:
        live_cols = sorted({c for row in rows.values() for c in row})
        idx = {c: j for j, c in enumerate(live_cols)}
        dense = []
        for row in rows.values():
            out = [0] * len(live_cols)
            for c, v in row.items():
                out[idx[c]] = v
            dense.append(out)
        rank += rank_bareiss(dense)
    return rank
