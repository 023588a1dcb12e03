"""Theorem-based classifier vs the Stanley-Reisner homology oracle.

The oracle never looks at the facet-shape theorems: it takes the squarefree
initial ideal of the edge ideal, builds its Stanley-Reisner complex on 2n
vertices, and measures depth, dimension, CM-ness (Reisner) and sequential
CM-ness (Duval, cross-checked by the Goodarzi filtration criterion) by
exact rational homology.  This demo sweeps every connected closed graph on
up to 5 vertices and prints both verdicts side by side, then tabulates the
two-clique depth formula depth = n + a - b + 1.

Run:  python3 demos/oracle_crosscheck.py   (about a second)
"""

import time

from edgeideals import classify_facets, depth_hochster, enumerate_closed_connected
from edgeideals.closed import IntervalFacets
from edgeideals.oracle import oracle_classify_facets, oracle_complex

print("exhaustive sweep, n <= 5: classifier verdicts vs homology verdicts")
hdr = f"{'facets':<34} {'cm':>9} {'scm':>9} {'almost':>9} {'dim':>8}"
print(hdr)
print("-" * len(hdr))
t0 = time.time()
agree = 0
for n in range(2, 6):
    for F in enumerate_closed_connected(n):
        c = classify_facets(F)
        rep = oracle_classify_facets(F)

        def fmt(a, b):
            mark = "=" if a == b else "  MISMATCH"
            return f"{str(a)[0]}{mark}{str(b)[0]}"

        print(f"{str(F.facets):<34} {fmt(c.cm, rep.cm):>9} {fmt(c.scm, rep.scm):>9} "
              f"{fmt(c.almost_cm, rep.almost_cm):>9} {c.krull_dim:>3}={rep.dim_quotient:<3}")
        agree += (c.cm, c.scm, c.almost_cm, c.krull_dim) == (
            rep.cm, rep.scm, rep.almost_cm, rep.dim_quotient,
        )
print(f"... all {agree} graphs agree ({time.time() - t0:.1f}s)")

print()
print("two cliques [1,b] and [a,n]: exact depth of S/J_G is n + a - b + 1")
print(f"{'(n, a, b)':<12} {'oracle depth':>13} {'n + a - b + 1':>14}")
print("-" * 41)
for n, a, b in [(4, 2, 3), (5, 2, 4), (6, 3, 4), (7, 2, 6), (7, 4, 5)]:
    C = oracle_complex(IntervalFacets(n, ((1, b), (a, n))))
    d = depth_hochster(C)
    print(f"{str((n, a, b)):<12} {d:>13} {n + a - b + 1:>14}")
