"""Seeded inputs and output checks for the benchmark workloads.

Every workload is a fixed list of items, one `edgeideals.cli.run` call
each, that depends only on the workload name and the seed.  The inputs are
bytes in the program's own text formats; the program never sees the seed.
Expected values come from the program's independent code paths and are
computed here, during set-up, outside the timed loop:

  * sweep_n6: `verify` must exit 0 (classifier = oracle on dim, cm, scm,
    almost, approx and the two-clique golden depth) and the oracle must
    report Duval = Goodarzi.
  * classify_stream: the facets must equal the generating chain or its
    reversal, and the verdicts must equal `classify_facets` of the chain.
  * cutsets_stream: the (W, c, dim) set of the brute-force `cutsets` command
    must equal `cutsets_structural` of the chain mapped through the label
    shuffle.

Why these workloads:
  * sweep_n6 has many small Stanley-Reisner complexes (at most 12 vertices)
    that share subcomplexes across graphs, so cache and per-call costs show.
  * classify_stream is the classifier path run at scale; recognition does
    most of its work and the homology layers do none, so it is the bypass
    workload for every oracle optimisation.
  * cutsets_stream is the only workload where the cut-set layer works.
    It stays at n = 16 because the number of cut sets grows exponentially
    with the facet count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from edgeideals.classify import classify_facets
from edgeideals.cli import RunConfig
from edgeideals.closed import IntervalFacets
from edgeideals.cutsets import cutsets_structural
from edgeideals.enumerators import enumerate_closed_connected, random_closed

CLASSIFY_COUNT = 1000
CUTSETS_N = 16
CUTSETS_COUNT = 32

_MASK64 = (1 << 64) - 1

# A check returns None when the output is right, else a one-line reason.
Check = Callable[[int, bytes, bytes], "str | None"]


@dataclass(frozen=True)
class Item:
    config: RunConfig
    data: bytes
    check: Check


class SplitMix64:
    """The benchmark's own generator, so inputs do not depend on Python's."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        return self.next() % k

    def shuffle(self, xs: list) -> list:
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]
        return xs


def facet_text(F: IntervalFacets) -> bytes:
    rows = [f"closed {F.n} {F.r}"] + [f"{a} {b}" for a, b in F.facets]
    return ("\n".join(rows) + "\n").encode()


def shuffled_edge_list(F: IntervalFacets, rng: SplitMix64) -> tuple[bytes, list[int]]:
    """Edge-list text of the chain's graph with labels permuted; perm[v] is v's new label."""
    perm = [0] + rng.shuffle(list(range(1, F.n + 1)))
    edges = set()
    for a, b in F.facets:
        for u in range(a, b + 1):
            for w in range(u + 1, b + 1):
                x, y = perm[u], perm[w]
                edges.add((min(x, y), max(x, y)))
    rows = [str(F.n)] + [f"{u} {w}" for u, w in sorted(edges)]
    return ("\n".join(rows) + "\n").encode(), perm


def _doc(code: int, out: bytes, err: bytes):
    if code != 0:
        return None, f"exit {code}: {err.decode(errors='replace').strip()}"
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"unparsable output: {exc}"


def _verify_check(label: str) -> Check:
    def check(code, out, err):
        doc, why = _doc(code, out, err)
        if why:
            return f"{label}: {why}"
        if not doc["agree"]:
            return f"{label}: mismatches {doc['mismatches']}"
        if doc["oracle"]["scm"] != doc["oracle"]["scm_goodarzi"]:
            return f"{label}: Duval and Goodarzi disagree"
        return None
    return check


VERDICTS = ("unmixed", "cm", "scm", "almost_cm", "approx_cm", "dim")


def _classify_check(F: IntervalFacets) -> Check:
    c = classify_facets(F)
    want = {"unmixed": c.unmixed, "cm": c.cm, "scm": c.scm, "almost_cm": c.almost_cm,
            "approx_cm": c.approx_cm, "dim": c.krull_dim}
    chain = [list(f) for f in F.facets]
    rev = [[F.n + 1 - b, F.n + 1 - a] for a, b in reversed(F.facets)]

    def check(code, out, err):
        doc, why = _doc(code, out, err)
        if why:
            return f"{F.facets}: {why}"
        if doc["facets"] not in (chain, rev):
            return f"{F.facets}: facets {doc['facets']}"
        got = {k: doc[k] for k in VERDICTS}
        return None if got == want else f"{F.facets}: verdicts {got} != {want}"
    return check


def _cutsets_check(F: IntervalFacets, perm: list[int]) -> Check:
    want = {
        (tuple(sorted(perm[v] for v in r.W)), r.c, r.dim) for r in cutsets_structural(F)
    }

    def check(code, out, err):
        doc, why = _doc(code, out, err)
        if why:
            return f"{F.facets}: {why}"
        got = [(tuple(sorted(r["W"])), r["c"], r["dim"]) for r in doc["cutsets"]]
        if len(got) != len(set(got)) or set(got) != want:
            return f"{F.facets}: cut sets differ ({len(got)} got, {len(want)} expected)"
        return None
    return check


def build_items(workload: str, seed: int, smoke: bool = False) -> list[Item]:
    """The items of one workload run, in order; `smoke` shrinks every workload
    to a seconds-long size for the self-tests."""
    rng = SplitMix64(seed)
    if workload == "sweep_n6":
        top = 4 if smoke else 6
        chains = [F for n in range(1, top + 1) for F in enumerate_closed_connected(n)]
        cfg = RunConfig("verify")
        return [Item(cfg, facet_text(F), _verify_check(str(F.facets))) for F in rng.shuffle(chains)]
    if workload == "classify_stream":
        cfg = RunConfig("classify")
        items = []
        for _ in range(20 if smoke else CLASSIFY_COUNT):
            n = 8 + rng.below(57)
            F = random_closed(n, rng.next(), rng.below(1001) / 1000)
            data, _ = shuffled_edge_list(F, rng)
            items.append(Item(cfg, data, _classify_check(F)))
        return items
    if workload == "cutsets_stream":
        # One size, so that the median and the tail item are alike from seed
        # to seed: the brute-force sweep costs about 2^n, and with mixed sizes
        # they would sit where the cost doubles from one size to the next.
        # Each item draws its bias from its own slice of [0, 1].
        cfg = RunConfig("cutsets")
        items = []
        count = 4 if smoke else CUTSETS_COUNT
        for j in range(count):
            F = random_closed(10 if smoke else CUTSETS_N, rng.next(), (j + rng.below(1001) / 1000) / count)
            data, perm = shuffled_edge_list(F, rng)
            items.append(Item(cfg, data, _cutsets_check(F, perm)))
        return rng.shuffle(items)
    raise ValueError(f"unknown workload {workload!r}")
