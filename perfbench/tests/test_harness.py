"""Self-tests of the benchmark harness (no binary needed).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import traced  # noqa: E402


def span(name, start, end, parent=-1):
    return {"name": name, "start_us": start, "end_us": end, "parent": parent}


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        samples = list(range(1, 101))
        p, value, n = stats.tail_percentile(samples)
        self.assertEqual((p, value, n), (90, 90, 100))
        # The run sizes the benchmark uses.
        self.assertEqual(stats.tail_percentile(range(320))[0], 96)
        self.assertEqual(stats.tail_percentile(range(64))[0], 84)
        self.assertEqual(stats.tail_percentile(range(400))[0], 97)

    def test_at_least_ten_beyond_for_every_size(self):
        for n in range(11, 600):
            p, value, _ = stats.tail_percentile(range(n))
            self.assertGreaterEqual(n - 1 - value, 10, n)
            # One percentile higher would leave fewer than ten beyond.
            if p < 99:
                rank = -(-(p + 1) * n // 100)
                self.assertLess(n - rank, 10, n)

    def test_too_few_samples(self):
        self.assertEqual(stats.tail_percentile(range(10)), (None, None, 10))

    def test_unsorted_input(self):
        samples = [5.0, 1.0, 4.0] + [2.0] * 20
        self.assertEqual(stats.tail_percentile(samples)[1], 2.0)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.1, 2.9, 3.0, 3.4, 2.7, 3.3, 3.2, 2.8, 3.05, 3.15]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_constant_series_has_no_spread(self):
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            span("root", 0, 100),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),  # overlaps a: the union counts once
            span("a.child", 15, 20, 1),
        ]
        self.assertEqual(stats.self_times(spans), [50, 25, 30, 5])

    def test_child_outside_parent_is_clipped(self):
        spans = [span("root", 0, 10), span("late", 5, 30, 0)]
        self.assertEqual(stats.self_times(spans), [5, 25])

    def test_by_name_sums_in_milliseconds(self):
        spans = [
            span("root", 0, 10_000),
            span("memo", 0, 2_000, 0),
            span("memo", 4_000, 5_000, 0),
        ]
        self.assertEqual(stats.self_time_by_name(spans), {"root": 7.0, "memo": 3.0})

    def test_adopted_spans_nest_under_the_process_span(self):
        rec = traced.Recorder()
        parent = rec.add("tracer process", 1_000, 9_000, -1)
        rec.adopt([span("tracer", 0, 5_000), span("kernels.cost", 100, 600, 0)], parent)
        self.assertEqual(rec.spans[1]["parent"], parent)
        self.assertEqual(rec.spans[2]["parent"], 1)
        self.assertEqual(rec.spans[2]["start_us"], 1_100)
        self.assertEqual(rec.subtree(parent), {0, 1, 2})


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(inputs.sweep_plan(7), inputs.sweep_plan(7))
        self.assertEqual(inputs.serve_sequence(7, 300), inputs.serve_sequence(7, 300))

    def test_seeds_differ(self):
        plans = {json.dumps(inputs.sweep_plan(seed)) for seed in range(10)}
        self.assertGreater(len(plans), 1)
        self.assertNotEqual(inputs.serve_sequence(1, 50), inputs.serve_sequence(2, 50))

    def test_sweep_sizes_stay_executable(self):
        for seed in range(50):
            plan = inputs.sweep_plan(seed)
            self.assertEqual([w for w, _, _ in plan], list(inputs.SWEEP_SIZES))
            for workload, sizes, _ in plan:
                _, lo, hi = inputs.SWEEP_SIZES[workload]
                self.assertTrue(all(lo <= s <= hi for s in sizes), (workload, sizes))
                if workload == "minibude":
                    self.assertTrue(all(s & (s - 1) == 0 for s in sizes), sizes)

    def test_serve_misses_are_distinct_and_hot_share_holds(self):
        sequence = inputs.serve_sequence(3, 1000)
        misses = [inputs.request_key(r) for r, hot in sequence if not hot]
        self.assertEqual(len(misses), len(set(misses)))
        hot_keys = {inputs.request_key(r) for r in inputs.HOT_SET}
        self.assertFalse(hot_keys & set(misses))
        share = sum(hot for _, hot in sequence) / len(sequence)
        self.assertAlmostEqual(share, inputs.HOT_SHARE, delta=0.05)

    def test_serve_run_exercises_eviction(self):
        count = run.SERVE_REQUESTS_PER_SECOND * 1
        for seed in range(20):
            sequence = inputs.serve_sequence(seed, count * 10)
            self.assertGreater(inputs.distinct_keys(sequence), run.SERVE_CACHE_ENTRIES)


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_the_harness(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END.items())
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], traced.PER_LAYER
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
