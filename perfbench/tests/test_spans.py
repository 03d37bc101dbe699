"""Trace arithmetic on synthetic span trees, plus BENCHMARK.json consistency.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def span(name, start, end, parent=None, pass_id=0, extra=None):
    return [name, start, end, parent, pass_id, extra]


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # 0 root [0, 10]
        #   1 child [1, 4]
        #     2 grandchild [2, 3]
        #   3 child [5, 9]
        tree = [span("root", 0.0, 10.0),
                span("a", 1.0, 4.0, parent=0),
                span("b", 2.0, 3.0, parent=1),
                span("c", 5.0, 9.0, parent=0)]
        self.assertEqual(spans.self_times(tree), [3.0, 2.0, 1.0, 4.0])

    def test_self_times_sum_to_root_duration(self):
        tree = [span("root", 0.0, 10.0),
                span("a", 1.0, 4.0, parent=0),
                span("b", 2.0, 3.0, parent=1),
                span("c", 5.0, 9.0, parent=0)]
        self.assertAlmostEqual(sum(spans.self_times(tree)), 10.0)

    def test_overlapping_children_count_once(self):
        tree = [span("root", 0.0, 10.0),
                span("a", 1.0, 6.0, parent=0),
                span("b", 4.0, 8.0, parent=0)]
        self.assertEqual(spans.self_times(tree)[0], 3.0)

    def test_child_outside_parent_is_clipped(self):
        tree = [span("root", 0.0, 2.0), span("a", 1.0, 5.0, parent=0)]
        self.assertEqual(spans.self_times(tree)[0], 1.0)

    def test_leaf_self_time_is_duration(self):
        self.assertEqual(spans.self_times([span("x", 2.0, 2.5)]), [0.5])


class TracerTest(unittest.TestCase):
    def test_nested_calls_record_parent_and_pass(self):
        tracer = spans.Tracer()
        tracer.pass_id = 3
        inner = tracer.wrap("m.inner", lambda: 1)
        outer = tracer.wrap("m.outer", lambda: inner() + inner())
        self.assertEqual(outer(), 2)
        self.assertEqual([(r[0], r[3], r[4]) for r in tracer.spans],
                         [("m.outer", None, 3), ("m.inner", 0, 3),
                          ("m.inner", 0, 3)])
        self.assertTrue(all(r[1] <= r[2] for r in tracer.spans))

    def test_raising_call_is_recorded_and_reraised(self):
        tracer = spans.Tracer()

        def boom():
            raise ValueError("no")
        with self.assertRaises(ValueError):
            tracer.wrap("m.boom", boom)()
        self.assertEqual(tracer.spans[0][5], {"raised": True})
        # the stack unwound: the next call is top-level again
        tracer.wrap("m.ok", lambda: None)()
        self.assertIsNone(tracer.spans[1][3])


class CoverageTest(unittest.TestCase):
    def test_share_of_pass_in_top_level_spans(self):
        tree = [span("a", 1.0, 4.0, pass_id=0),
                span("b", 2.0, 3.0, parent=0, pass_id=0),   # nested: no gain
                span("c", 6.0, 8.0, pass_id=0),
                span("d", 0.0, 10.0, pass_id=1)]            # other pass
        self.assertAlmostEqual(spans.coverage(tree, {0: (0.0, 10.0)}), 0.5)

    def test_pools_passes(self):
        tree = [span("a", 0.0, 10.0, pass_id=0),
                span("b", 20.0, 25.0, pass_id=1)]
        cov = spans.coverage(tree, {0: (0.0, 10.0), 1: (20.0, 30.0)})
        self.assertAlmostEqual(cov, 0.75)


class TraceViewTest(unittest.TestCase):
    def setUp(self):
        # two passes of: run -> fit_outer -> fit_inner, plus one step span
        self.tree = []
        for pid, base in ((0, 0.0), (1, 100.0)):
            root = len(self.tree)
            self.tree += [
                span("experiments.run_experiment", base, base + 10.0,
                     pass_id=pid),
                span("fitting.fit_rabi_sweep", base + 1.0, base + 3.0,
                     parent=root, pass_id=pid,
                     extra={"converged": True, "flagged": pid == 1}),
                span("fitting.fit_damped_cosine", base + 1.5, base + 2.5,
                     parent=root + 1, pass_id=pid,
                     extra={"converged": False, "flagged": True}),
                span("dynamics.evolve", base + 4.0, base + 4.0 + 2 * (pid + 1),
                     parent=root, pass_id=pid, extra={"steps": 50}),
            ]
        self.view = metrics.TraceView(self.tree, [0, 1])

    def test_module_self_time_is_median_over_passes(self):
        self.assertAlmostEqual(self.view.self_s(lambda n: n.startswith("fitting.")),
                               2.0)
        # evolve: 2 s in pass 0, 4 s in pass 1
        self.assertAlmostEqual(self.view.self_s(lambda n: n == "dynamics.evolve"),
                               3.0)

    def test_outermost_skips_nested_fits(self):
        outer = self.view.outermost(lambda n: n.startswith("fitting."))
        self.assertEqual([self.tree[i][0] for i in outer],
                         ["fitting.fit_rabi_sweep"] * 2)

    def test_counts_and_ratios(self):
        ctx = type("Ctx", (), {"view": self.view})()
        values = {name: value for name, _, _, value, _ in metrics.PER_LAYER
                  if name.startswith("fitting.") and name != "fitting.self_s"}
        self.assertEqual(values["fitting.calls"](ctx), 1.0)
        self.assertEqual(values["fitting.converged_ratio"](ctx), 1.0)
        self.assertEqual(values["fitting.flagged_ratio"](ctx), 0.5)
        self.assertEqual(self.view.extra_sum(lambda n: n == "dynamics.evolve",
                                             "steps"), 50)

    def test_percentile(self):
        self.assertEqual(spans.percentile([4.0, 1.0, 3.0, 2.0], 50), 2.5)
        self.assertAlmostEqual(spans.percentile(list(range(11)), 90), 9.0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(BENCH.parent / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["per_layer"]],
                         [m[:3] for m in metrics.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
