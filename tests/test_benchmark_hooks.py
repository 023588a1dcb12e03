"""The hooks that the benchmark harness in perfbench/ reads from the program.

perfbench/worker.py reports the sizes of two of the oracle's module-global
caches, and perfbench/tracing.py wraps each traced function at the module
attribute its callers resolve.  The harness reports only what it finds, so
a renamed cache or function would drop a declared metric without an error;
these tests load the harness files as they are and pin both hooks.
"""

import importlib.util
import os

from edgeideals.closed import IntervalFacets
from edgeideals.oracle import oracle_classify_facets

from conftest import SEVEN_NOT_SCM, cold_memos

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name: str):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worker_reads_both_cache_sizes():
    oracle_classify_facets(SEVEN_NOT_SCM)
    entries = _load("worker").cache_entries()
    assert set(entries) == {"complexes.profile_cache.entries", "complexes.cm_cache.entries"}
    assert all(count > 0 for count in entries.values()), entries


def test_tracer_finds_and_sees_every_oracle_layer():
    tracer = _load("tracing").Tracer()
    # empty memos, so that every layer really runs whatever ran before
    with cold_memos():
        try:
            tracer.install()
            assert tracer.missing == []
            # a path chain: on ((1,3),(2,4)) every homology core is a sphere,
            # read off its minimal nonfaces without a rank; this one has
            # cores that reach the ranks
            oracle_classify_facets(IntervalFacets(7, ((1, 3), (2, 4), (3, 5), (4, 6), (5, 7))))
        finally:
            tracer.uninstall()
    seen = {span[0] for span in tracer.spans}
    assert seen >= {
        "oracle.stanley_reisner_complex",
        "complexes.depth_hochster",
        "complexes.is_cm_reisner",
        "complexes.is_scm_duval",
        "oracle.goodarzi_check",
        "linalg.rank_sparse_pm",
    }, seen
