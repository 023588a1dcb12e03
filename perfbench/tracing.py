"""Layer spans recorded from outside the program.

`Tracer.install` replaces each traced function at the module attribute its
callers resolve (for example `edgeideals.cli.recognize_closed`, which is
what `cli.run` looks up) with a wrapper that records a span: name, start,
end, parent span and item id.  Spans stay in memory until the run ends.
Untimed runs never install the wrappers.

A span is named after the module that defines the function, so
`edgeideals.oracle.depth_hochster` records as `complexes.depth_hochster`.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (module whose attribute the callers resolve, attribute name)
TARGETS = (
    ("edgeideals.cli", "run"),
    ("edgeideals.cli", "parse_edge_list"),
    ("edgeideals.cli", "parse_facet_text"),
    ("edgeideals.cli", "recognize_closed"),
    ("edgeideals.cli", "classify_facets"),
    ("edgeideals.cli", "oracle_classify_facets"),
    ("edgeideals.cli", "cutsets_bruteforce"),
    ("edgeideals.oracle", "stanley_reisner_complex"),
    ("edgeideals.oracle", "depth_hochster"),
    ("edgeideals.oracle", "is_cm_reisner"),
    ("edgeideals.oracle", "is_scm_duval"),
    ("edgeideals.oracle", "goodarzi_check"),
    ("edgeideals.complexes", "rank_sparse_pm"),
    ("edgeideals.linalg", "rank_bareiss"),
)


def _sparse_size(acc, cols, *_args, **_kw):
    acc["nnz"] = acc.get("nnz", 0) + sum(map(len, cols.values()))
    acc["max_cols"] = max(acc.get("max_cols", 0), len(cols))


def _dense_size(acc, rows, *_args, **_kw):
    acc["cells"] = acc.get("cells", 0) + (len(rows) * len(rows[0]) if rows else 0)


# Work a call is handed, read from its arguments before the span starts.
SIZES = {"linalg.rank_sparse_pm": _sparse_size, "linalg.rank_bareiss": _dense_size}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent index or -1, item)
        self.sizes: dict[str, dict[str, int]] = {}
        self.item = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, size_of = self.spans, self._stack, SIZES.get(name)
        acc = self.sizes.setdefault(name, {})

        def traced(*args, **kwargs):
            if size_of:
                size_of(acc, *args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.item)

        return traced

    def install(self, targets=TARGETS):
        for modname, attr in targets:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path: str):
        with open(path, "w") as fh:
            for name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, item]) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s (sum of durations) and self_s (each
    span's duration minus the part of it that its child spans cover)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out: dict[str, dict[str, float]] = {}
    for idx, (name, t0, t1, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += t1 - t0
        inner = [(max(s, t0), min(e, t1)) for s, e in children.get(idx, ()) if e > t0 and s < t1]
        row["self_s"] += (t1 - t0) - _covered(inner)
    return out
