"""Cut sets, minimal primes, Krull dimension, unmixedness.

Every minimal prime of a binomial edge ideal is encoded by a cut set W:
variables on W plus a maximal-minor ideal on each component of G - W, of
dimension n - |W| + c(W).  For connected closed graphs the cut sets are
unions of consecutive-clique intersections subject to a gap condition;
this demo runs that structural enumeration against the exhaustive one.

Run:  python3 demos/cutsets_and_dimension.py
"""

from edgeideals import (
    CutSetRecord,
    build_graph,
    connected_cutsets,
    cutsets_bruteforce,
    cutsets_structural,
    is_unmixed,
    krull_dimension,
)
from edgeideals.closed import IntervalFacets

F = IntervalFacets(7, ((1, 3), (2, 5), (3, 6), (5, 7)))
G = build_graph(F)

print(f"facets of the clique complex: {F.facets}")
print(f"connected cut sets W_i = F_i n F_(i+1): {connected_cutsets(F)}")
print()

print(f"{'W':<16} {'c(W)':>5} {'dim S/P_W':>10}   components of G - W")
print("-" * 70)
for rec in cutsets_structural(F):
    print(f"{str(list(rec.W)):<16} {rec.c:>5} {rec.dim:>10}   {rec.parts}")

brute = {r.W: (r.c, r.dim) for r in cutsets_bruteforce(G)}
structural = {r.W: (r.c, r.dim) for r in cutsets_structural(F)}
print()
print(f"structural enumeration == exhaustive 2^n sweep: {structural == brute}")

recs = cutsets_structural(F)
print(f"Krull dimension of S/J_G (2n = 14 variables): {krull_dimension(recs, 7)}")
print(f"unmixed: {is_unmixed(recs)}   "
      f"(the cut set [2,3] gives dimension 7, below 8)")
print()

print("filtration: components of dimension > i survive in the i-th ideal")
for i in (5, 6, 7):
    survivors = [list(r.W) for r in sorted(recs, key=CutSetRecord.sort_key) if r.dim > i]
    print(f"  i = {i}: {survivors}")
