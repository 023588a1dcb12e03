"""edgeideals benchmark: one command runs a workload, checks it, prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Workloads: sweep_n6, classify_stream, cutsets_stream (see workloads.py for
what each contains and why it exists).

A run repeats rounds of the workload for about T seconds, and at least
MIN_ROUNDS of them.  Each round is a fresh interpreter (perfbench/worker.py)
that runs the seed's fixed item list once, single-threaded, as a closed
loop with one client, so the program's module-global caches start empty and
no round warms another.  Rounds never overlap.  Each item's latency is the
fastest of its rounds, and set-up time the fastest of its probes: on a
shared machine that slows down 1.5-2x in bursts of several seconds, the
fastest of several identical runs is the figure a code change moves.

Every round of a run, and every earlier run of the same code and seed
(recorded in .perfbench_out/), must give the same stdout digest, cache
sizes and, when traced, per-layer counts; otherwise the run reports a
benchmark failure instead of numbers.

--trace 0 prints the end-to-end metrics; before each round, set-up time is
probed by starting fresh interpreters that import the CLI and classify a
one-edge graph.  --trace 1 runs one untraced and one traced round and
prints the per-layer metrics, including the tracing overhead (traced minus
untraced loop wall time).  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it are
for people.
Exit codes: 0 measured (check "correct"), 2 no program to measure or bad
arguments, 3 benchmark failure (nondeterminism or a round that crashed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"   # spans and determinism records, inside the checkout
WORKLOADS = ("sweep_n6", "classify_stream", "cutsets_stream")

MIN_ROUNDS = 3   # an item's fastest of three rounds ignores a slow burst in one
SETUP_PROBES_PER_ROUND = 4
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import edgeideals.cli as c; "
    "code, out, err = c.run(c.RunConfig('classify'), b'2\\n1 2\\n'); "
    "sys.exit(code if out else 1)"
)

# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = (
    ("graphs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("graphs.parse_edge_list.self_s", "s"),
    ("closed.recognize_closed.calls", "count"),
    ("closed.recognize_closed.self_s", "s"),
    ("closed.parse_facet_text.self_s", "s"),
    ("classify.classify_facets.self_s", "s"),
    ("cutsets.cutsets_bruteforce.self_s", "s"),
    ("oracle.oracle_classify_facets.total_s", "s"),
    ("oracle.stanley_reisner_complex.self_s", "s"),
    ("oracle.goodarzi_check.total_s", "s"),
    ("oracle.goodarzi_check.self_s", "s"),
    ("complexes.is_scm_duval.self_s", "s"),
    ("complexes.depth_hochster.calls", "count"),
    ("complexes.depth_hochster.self_s", "s"),
    ("complexes.is_cm_reisner.self_s", "s"),
    ("complexes.profile_cache.entries", "count"),
    ("complexes.cm_cache.entries", "count"),
    ("linalg.rank_sparse_pm.calls", "count"),
    ("linalg.rank_sparse_pm.self_s", "s"),
    ("linalg.rank_sparse_pm.nnz", "count"),
    ("linalg.rank_sparse_pm.max_cols", "count"),
    ("linalg.rank_bareiss.calls", "count"),
    ("linalg.rank_bareiss.self_s", "s"),
    ("linalg.rank_bareiss.cells", "count"),
    ("linalg.unit_pivot_share", "1"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

# Layer figures that are counts of work: they must repeat exactly across
# rounds of the same code and seed.
EXACT_FIELDS = ("calls", "nnz", "max_cols", "cells", "entries", "spans")


class BenchFailure(Exception):
    pass


def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """Highest percentile with at least `beyond` samples above it.

    Returns (percentile, value, samples beyond it), or None when that
    percentile would be the median or lower.  The percentile is a whole
    number, or 99.9 when there are enough samples for it; the value is the
    nearest-rank sample.
    """
    xs = sorted(samples)
    n = len(xs)
    for tenths in (999, *range(990, 500, -10)):
        rank = -(-tenths * n // 1000)   # nearest rank, in exact integer arithmetic
        if n - rank >= beyond:
            # the sample must lie above the median's position, not at it
            return (tenths / 10, xs[rank - 1], n - rank) if 2 * rank > n + 1 else None
    return None


def _spawn(args, root):
    return subprocess.run(args, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=170)


def probe_setup(root: str, probes: int) -> list[float]:
    """Wall seconds from starting a fresh interpreter until its first cli.run
    has returned and it has exited, once per probe."""
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        proc = _spawn([sys.executable, "-I", "-c", SETUP_CODE], root)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchFailure(f"set-up probe exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
    return times


def run_round(root: str, workload: str, seed: int, spans: str | None = None) -> dict:
    """One round in a fresh interpreter; traced when a span file is given."""
    args = [sys.executable, "-I", os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed)]
    proc = _spawn(args + (["--spans", spans] if spans else []), root)
    if proc.returncode != 0:
        raise BenchFailure(f"round exited {proc.returncode}: {proc.stderr.decode()[-800:]}")
    res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    res["traced"] = spans is not None
    return res


def run_rounds(root, workload, seed, seconds, trace) -> tuple[list[dict], list[float]]:
    """The rounds of a run, one after another, and the set-up probe times.

    A traced run is one untraced and one traced round.  An untraced run has
    at least MIN_ROUNDS rounds and starts another while the longest round so
    far still fits in `seconds`.  Set-up probes go before every round, after
    one untimed start that may compile bytecode."""
    if trace:
        spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
        return [run_round(root, workload, seed), run_round(root, workload, seed, spans)], []
    probe_setup(root, 1)
    rounds, setup_times = [], []
    start = perf_counter()
    longest = 0.0
    while len(rounds) < MIN_ROUNDS or perf_counter() - start + longest <= seconds:
        t0 = perf_counter()
        setup_times += probe_setup(root, SETUP_PROBES_PER_ROUND)
        rounds.append(run_round(root, workload, seed))
        longest = max(longest, perf_counter() - t0)
    return rounds, setup_times


def code_hash(root: str) -> str:
    """Digest of the program's sources, naming 'the same code' across runs."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, files in os.walk(src):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _fingerprint(res: dict) -> dict:
    fp = {"stdout sha256": res["digest"], "cache entries": res["cache_entries"]}
    if res["traced"]:
        fp["per-layer counts"] = exact_counts(res)
    return fp


def _compare(a: dict, b: dict, where: str):
    for key in sorted(a.keys() & b.keys()):
        if a[key] != b[key]:
            raise BenchFailure(f"{key} differs {where}: {a[key]} vs {b[key]}")


def check_repeatable(rounds: list[dict], record_path: str):
    """Same code and seed must give the same stdout and the same work counts,
    between the rounds of this run and against the record that earlier runs
    of the same code and seed left in `record_path`."""
    fp = _fingerprint(rounds[0])
    for r in rounds[1:]:
        other = _fingerprint(r)
        _compare(fp, other, "between rounds")
        fp.update(other)
    if os.path.exists(record_path):
        with open(record_path) as fh:
            record = json.load(fh)
        _compare(record, fp, "from an earlier run of the same code and seed")
        fp = {**record, **fp}
    os.makedirs(os.path.dirname(record_path), exist_ok=True)
    with open(record_path, "w") as fh:
        json.dump(fp, fh, indent=1)


def layer_value(res: dict, metric: str):
    """One per-layer figure of a traced round; None if the program no longer
    has the thing it measures (the cache globals)."""
    if metric in ("complexes.profile_cache.entries", "complexes.cm_cache.entries"):
        return res["cache_entries"].get(metric)
    if metric == "linalg.unit_pivot_share":
        # 0 when rank_sparse_pm is never called
        sparse = layer_value(res, "linalg.rank_sparse_pm.calls")
        bareiss = layer_value(res, "linalg.rank_bareiss.calls")
        return 1 - bareiss / sparse if sparse else 0.0
    if metric == "trace.spans":
        return res["spans"]
    span, field = metric.rsplit(".", 1)
    if field in ("calls", "self_s", "total_s"):
        return res["layers"].get(span, {}).get(field, 0)
    return res["sizes"].get(span, {}).get(field, 0)


def exact_counts(res: dict) -> dict:
    return {m: layer_value(res, m) for m, _ in PER_LAYER if m.rsplit(".", 1)[1] in EXACT_FIELDS}


def end_to_end_metrics(rounds, setup_times) -> tuple[dict, list[str]]:
    best = [min(lat) for lat in zip(*(r["latencies_ms"] for r in rounds))]
    values = {
        "graphs_per_s": len(best) / (sum(best) / 1e3),
        "latency_p50_ms": statistics.median(best),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024,
        "setup_s": min(setup_times),
    }
    walls = " ".join(f"{r['wall_s']:.3f}" for r in rounds)
    notes = [f"{len(rounds)} rounds of {len(best)} items; item latency = fastest of its rounds",
             f"loop wall s per round {walls}",
             f"setup_s probes {' '.join(f'{t:.4f}' for t in setup_times)}"]
    # The tail is printed, not bounded: on sweep_n6 the seed's order moves
    # cache work between items, which shifts the tail item by about 20 %.
    tail = tail_percentile(best)
    if tail is not None:
        p, value, beyond = tail
        notes.append(f"latency_tail_ms {value:.6g} ms: p{p:g} of {len(best)} items, {beyond} beyond it")
    else:
        notes.append(f"latency_tail_ms omitted: {len(best)} items leave no percentile "
                     f"above the median with {TAIL_BEYOND} beyond it")
    units = dict(END_TO_END)
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    return metrics, notes


def per_layer_metrics(rounds) -> tuple[dict, list[str]]:
    plain, traced = rounds
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = traced["wall_s"] - plain["wall_s"]
        else:
            value = layer_value(traced, name)
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}
    notes = [f"loop wall {plain['wall_s']:.4f} s untraced, {traced['wall_s']:.4f} s traced",
             f"spans written to {traced['span_file']}"]
    if traced["missing_targets"]:
        notes.append(f"not traced (no longer in the program): {', '.join(traced['missing_targets'])}")
    shares = sorted(((row["self_s"] / traced["wall_s"], span) for span, row in traced["layers"].items()),
                    reverse=True)
    notes.append("self time share of traced wall: "
                 + ", ".join(f"{span} {share:.1%}" for share, span in shares))
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "edgeideals", "cli.py")):
        sys.stderr.write("error: run from a checkout of the repository; src/edgeideals/cli.py is missing\n")
        return 2
    try:
        rounds, setup_times = run_rounds(root, args.workload, args.seed, args.seconds, args.trace)
        check_repeatable(rounds, os.path.join(
            root, OUT_DIR, f"record-{args.workload}-seed{args.seed}-{code_hash(root)}.json"))
    except (BenchFailure, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failure: {exc}\n")
        return 3

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        metrics, notes = per_layer_metrics(rounds)
    else:
        metrics, notes = end_to_end_metrics(rounds, setup_times)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"stdout sha256 {rounds[0]['digest']}")
    for line in notes:
        print(line)
    print(f"fail_ratio {failed / attempted:g} ({failed} of {attempted} items)")
    for r in rounds:
        for why in r["failures"]:
            print(f"FAILED {why}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
