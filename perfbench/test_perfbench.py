"""Self-tests of the benchmark harness (not of the program).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a checkout.  They cover the tail-percentile rule, the
self-time arithmetic, failure counting against a check broken on purpose
inside the harness, a seconds-long smoke size of every workload, and the
agreement of BENCHMARK.json with the metrics the harness prints.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402
from worker import run_items  # noqa: E402

import edgeideals.cli as cli  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_omitted_when_it_would_be_the_median_or_lower(self):
        for n in (1, 9, 10, 20, 21):
            self.assertIsNone(run.tail_percentile(range(n)), n)

    def test_smallest_sample_count_gives_a_percentile_above_the_median(self):
        self.assertEqual(run.tail_percentile(range(22)), (54, 11, 10))

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(range(1000)), (99, 989, 10))
        self.assertEqual(run.tail_percentile(range(100)), (90, 89, 10))
        self.assertEqual(run.tail_percentile(range(10000)), (99.9, 9989, 10))

    def test_order_of_samples_does_not_matter(self):
        xs = [float((7 * i) % 101) for i in range(101)]
        self.assertEqual(run.tail_percentile(xs), run.tail_percentile(sorted(xs)))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ("a", 0.0, 10.0, -1, 0),
            ("b", 1.0, 4.0, 0, 0),
            ("c", 2.0, 3.0, 1, 0),
            ("d", 5.0, 9.0, 0, 0),
            ("a", 20.0, 21.0, -1, 1),
        ]
        t = layer_totals(spans)
        self.assertEqual(t["a"], {"calls": 2, "total_s": 11.0, "self_s": 4.0})
        self.assertEqual(t["b"]["self_s"], 2.0)
        self.assertEqual(t["c"]["self_s"], 1.0)
        self.assertEqual(t["d"]["self_s"], 4.0)

    def test_overlapping_children_are_counted_once(self):
        spans = [("p", 0.0, 10.0, -1, 0), ("x", 1.0, 6.0, 0, 0), ("y", 4.0, 8.0, 0, 0)]
        self.assertEqual(layer_totals(spans)["p"]["self_s"], 3.0)

    def test_tracer_records_parents_items_and_sizes(self):
        tracer = Tracer()

        def inner(cols):
            return len(cols)

        traced_inner = tracer.wrap("linalg.rank_sparse_pm", inner)

        def outer():
            return traced_inner({0: {0: 1, 1: -1}, 1: {1: 1}})

        traced_outer = tracer.wrap("cli.run", outer)
        tracer.item = 7
        self.assertEqual(traced_outer(), 2)
        n_out, s0, s1, parent_out, _ = tracer.spans[0]
        n_in, _, _, parent_in, item_in = tracer.spans[1]
        self.assertEqual((n_out, parent_out), ("cli.run", -1))
        self.assertEqual((n_in, parent_in, item_in), ("linalg.rank_sparse_pm", 0, 7))
        self.assertEqual(tracer.sizes["linalg.rank_sparse_pm"], {"nnz": 3, "max_cols": 2})
        totals = layer_totals(tracer.spans)
        self.assertLessEqual(totals["cli.run"]["self_s"], s1 - s0)

    def test_install_and_uninstall_restore_the_program(self):
        before = cli.recognize_closed
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.recognize_closed, before)
            code, _, _ = cli.run(cli.RunConfig("classify"), b"3\n1 2\n2 3\n")
        finally:
            tracer.uninstall()
        self.assertEqual(code, 0)
        self.assertIs(cli.recognize_closed, before)
        names = {s[0] for s in tracer.spans}
        self.assertLessEqual({"cli.run", "graphs.parse_edge_list", "closed.recognize_closed",
                              "classify.classify_facets"}, names)
        self.assertEqual(tracer.missing, [])


class FailureCounting(unittest.TestCase):
    def test_broken_check_and_bad_input_count_as_failures(self):
        items = workloads.build_items("classify_stream", seed=3, smoke=True)
        # The harness, not the program, is wrong here: item 0 is checked
        # against another item's expected values.
        other = workloads.build_items("classify_stream", seed=4, smoke=True)[0]
        items[0] = workloads.Item(items[0].config, items[0].data, other.check)
        items.append(workloads.Item(items[1].config, b"3\n1 9\n", items[1].check))
        res = run_items(cli, items)
        self.assertEqual(res["attempted"], len(items))
        self.assertEqual(res["failed"], 2)
        self.assertTrue(res["failures"][0].startswith("item 0:"))
        self.assertTrue(res["failures"][1].startswith(f"item {len(items) - 1}: "))


class Smoke(unittest.TestCase):
    def test_every_workload_at_smoke_size(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                items = workloads.build_items(name, seed=11, smoke=True)
                res = run_items(cli, items)
                self.assertEqual(res["failures"], [])
                self.assertGreater(res["attempted"], 0)

    def test_inputs_depend_on_the_seed_only(self):
        for name in run.WORKLOADS:
            smoke = name.endswith("_stream")   # building those computes expected values
            a = [i.data for i in workloads.build_items(name, 5, smoke)]
            b = [i.data for i in workloads.build_items(name, 5, smoke)]
            c = [i.data for i in workloads.build_items(name, 6, smoke)]
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(ROOT, ".perfbench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep_n6", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
