"""Tests of the A/B runner's pure parts (tools/ab_bench.py): the run schedule,
result parsing, the failure rule and the per-metric summary with its base IQR.

    python3 -m unittest discover -s tools -p 'test_ab_bench.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_bench as ab  # noqa: E402


def result(correct=True, failed=0, **values):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()}}


class Schedule(unittest.TestCase):
    def test_pairs_share_a_seed_and_alternate_order(self):
        sched = ab.schedule(4, 100)
        self.assertEqual([s[1] for s in sched], [100, 101, 102, 103])
        self.assertEqual([s[2] for s in sched], [("base", "change"), ("change", "base"),
                                                 ("base", "change"), ("change", "base")])
        for _, _, order in sched:
            self.assertEqual(sorted(order), ["base", "change"])


class Parsing(unittest.TestCase):
    def test_last_nonempty_line_is_the_result(self):
        out = 'perfbench: building\n{"ignored": 1}\n{"correct": true, "metrics": {}}\n\n'
        self.assertEqual(ab.parse_result(out), {"correct": True, "metrics": {}})

    def test_no_output_is_an_error(self):
        with self.assertRaises(ValueError):
            ab.parse_result("\n  \n")

    def test_a_run_counts_only_when_correct_and_clean(self):
        self.assertIsNone(ab.run_failed(result()))
        self.assertEqual(ab.run_failed(result(correct=False)), "not correct")
        self.assertIn("2 of 10", ab.run_failed(result(failed=2)))


class Summary(unittest.TestCase):
    def test_medians_and_ratio_spread(self):
        pairs = [
            (result(steps_per_s=100.0, p99_us=1000.0), result(steps_per_s=200.0, p99_us=900.0)),
            (result(steps_per_s=110.0, p99_us=1000.0), result(steps_per_s=165.0, p99_us=1100.0)),
            (result(steps_per_s=90.0, p99_us=1000.0), result(steps_per_s=180.0, p99_us=1000.0)),
        ]
        rows = {r["name"]: r for r in ab.summarize(pairs, {"steps_per_s": "higher",
                                                           "p99_us": "lower"})}
        s = rows["steps_per_s"]
        self.assertEqual((s["base"], s["change"], s["pairs"]), (100.0, 180.0, 3))
        self.assertAlmostEqual(s["ratio"], 2.0)       # ratios 2.0, 1.5, 2.0
        self.assertAlmostEqual(s["ratio_min"], 1.5)
        self.assertAlmostEqual(s["ratio_max"], 2.0)
        self.assertEqual(s["better_pairs"], 3)
        self.assertAlmostEqual(s["base_iqr"], 10.0)   # quartiles 95 and 105
        p = rows["p99_us"]
        self.assertAlmostEqual(p["ratio"], 1.0)       # ratios 0.9, 1.1, 1.0
        self.assertEqual(p["better_pairs"], 1)        # only 0.9 is lower
        self.assertEqual(p["base_iqr"], 0.0)

    def test_base_iqr_is_the_quartile_distance_of_the_base_runs(self):
        # Ten base runs 1..10: quartiles 3.25 and 7.75 by linear interpolation.
        pairs = [(result(steps_per_s=float(v)), result(steps_per_s=100.0))
                 for v in (7, 3, 10, 1, 5, 9, 2, 8, 4, 6)]
        row = ab.summarize(pairs)[0]
        self.assertAlmostEqual(row["base_iqr"], 4.5)
        self.assertEqual(ab.iqr([42.0]), 0.0)
        # The summary prints it beside the base median.
        header, line = ab.format_rows([row]).splitlines()
        self.assertIn("base IQR", header)
        self.assertEqual(line.split()[:4], ["steps_per_s", "5.5", "4.5", "100"])

    def test_lower_is_better_and_missing_metrics(self):
        pairs = [(result(skills_s=4.0, only_base=1.0), result(skills_s=3.0)),
                 (result(skills_s=5.0), result(skills_s=3.5, only_change=2.0))]
        rows = {r["name"]: r for r in ab.summarize(pairs, {"skills_s": "lower"})}
        self.assertEqual(rows["skills_s"]["better_pairs"], 2)
        # A metric one side never reports has no pairs to compare.
        self.assertNotIn("only_base", rows)
        self.assertNotIn("only_change", rows)

    def test_zero_base_values_give_no_ratio(self):
        rows = ab.summarize([(result(queue=0.0), result(queue=3.0))])
        self.assertEqual(rows[0]["change"], 3.0)
        self.assertNotIn("ratio", rows[0])
        self.assertNotIn("better_pairs", rows[0])  # no direction known
        self.assertIn("queue", ab.format_rows(rows))

    def test_directions_come_from_benchmark_json(self):
        better = ab.directions(ab.ROOT)
        self.assertEqual(better.get("steps_per_s"), "higher")
        self.assertEqual(better.get("p99_us"), "lower")


if __name__ == "__main__":
    unittest.main()
