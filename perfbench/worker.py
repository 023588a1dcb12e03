"""One round of one workload, in the interpreter that runs this file.

    python3 -I perfbench/worker.py --workload NAME --seed N [--spans PATH]

Builds the seeded items and their expected values, then runs them as a
closed loop with one client: each `edgeideals.cli.run` call starts when the
previous one has returned.  Outputs are checked after the loop, outside the
timed region.  Prints one JSON object describing the round on stdout.
With --spans the layer wrappers are installed around the loop and the
spans are written to PATH (relative to the checkout) when the round ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def import_program():
    """Import the package from src/ of the checkout and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "edgeideals", "cli.py")):
        raise SystemExit(f"no program to measure: {src}/edgeideals/cli.py is missing")
    sys.path.insert(0, src)
    import edgeideals.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"edgeideals imported from {cli.__file__}, not from {src}")
    return cli


def run_items(cli, items, tracer=None) -> dict:
    """Time the closed loop over items; then check every output."""
    outputs = []
    latencies_ms = []
    run_start = perf_counter()
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.item = idx
        t0 = perf_counter()
        try:
            result = cli.run(item.config, item.data)
        except Exception as exc:  # a crash is a failed item, not a harness error
            result = exc
        latencies_ms.append((perf_counter() - t0) * 1e3)
        outputs.append(result)
    wall_s = perf_counter() - run_start

    digest = hashlib.sha256()
    failures = []
    for idx, (item, result) in enumerate(zip(items, outputs)):
        if isinstance(result, Exception):
            failures.append(f"item {idx}: raised {result!r}")
            continue
        code, out, err = result
        digest.update(out)
        why = item.check(code, out, err)
        if why is not None:
            failures.append(f"item {idx}: {why}")
    return {
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures[:5],
        "wall_s": wall_s,
        "latencies_ms": latencies_ms,
        "digest": digest.hexdigest(),
    }


def cache_entries() -> dict[str, int]:
    """Sizes of the oracle's module-global caches, if the program still has them."""
    from edgeideals import complexes

    out = {}
    for metric, attr in (("complexes.profile_cache.entries", "_profile_cache"),
                         ("complexes.cm_cache.entries", "_cm_cache")):
        cache = getattr(complexes, attr, None)
        if cache is not None:
            out[metric] = len(cache)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", help="trace the layers and write the spans here")
    args = ap.parse_args(argv)

    cli = import_program()
    sys.path.insert(0, HERE)
    import workloads

    items = workloads.build_items(args.workload, args.seed)
    tracer = None
    if args.spans:
        from tracing import Tracer, layer_totals

        tracer = Tracer()
        tracer.install()
    try:
        res = run_items(cli, items, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    res["cache_entries"] = cache_entries()
    res["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        res["layers"] = layer_totals(tracer.spans)
        res["sizes"] = tracer.sizes
        res["spans"] = len(tracer.spans)
        res["missing_targets"] = tracer.missing
        os.makedirs(os.path.dirname(os.path.join(ROOT, args.spans)), exist_ok=True)
        tracer.write(os.path.join(ROOT, args.spans))
        res["span_file"] = args.spans
    sys.stdout.write(json.dumps(res) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
