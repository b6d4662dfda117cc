"""Tests of the A/B runner's rules (tools/ab_bench.py): the run schedule,
result parsing, the failure rule, the per-metric summary with its base IQR,
and the bench_json workload's snapshots, directions, failures and flags.

    python3 -m unittest discover -s tools -p 'test_ab_bench.py'
"""

import contextlib
import io
import json
import os
import sys
import tempfile
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


def snapshots(ns=None, steps=None):
    """bench_json's two snapshot documents for the given entry values."""
    return [{"kind": "nn_ops_ns_per_iter",
             "benchmarks": [{"name": k, "real_time_ns": v, "iterations": 10}
                            for k, v in (ns or {}).items()]},
            {"kind": "train_steps_per_sec",
             "benchmarks": [{"name": k, "steps_per_sec": v} for k, v in (steps or {}).items()]}]


# A stand-in bench_json: MODE "ok" writes both snapshots, "nn_only" one of
# them, "silent" none, and "fail" exits 3 after writing both.
FAKE_BENCH_JSON = """#!{python}
import json, sys
out = dict(zip(sys.argv[1::2], sys.argv[2::2]))
docs = {docs}
if "{mode}" != "silent":
    json.dump(docs[0], open(out["--nn-out"], "w"))
if "{mode}" in ("ok", "fail"):
    json.dump(docs[1], open(out["--train-out"], "w"))
sys.exit(3 if "{mode}" == "fail" else 0)
"""


class BenchJson(unittest.TestCase):
    def test_snapshots_become_one_result(self):
        res = ab.snapshot_result(snapshots({"BM_MlpForward/1": 400}, {"dqn": 3e4}))
        self.assertIsNone(ab.run_failed(res))
        self.assertEqual(res["metrics"], {
            "BM_MlpForward/1": {"value": 400.0, "unit": "real_time_ns"},
            "dqn": {"value": 30000.0, "unit": "steps_per_sec"}})
        for entry in ({"name": "x"}, {"name": "x", "real_time_ns": 1, "steps_per_sec": 2}):
            with self.assertRaises(ValueError):
                ab.snapshot_result([{"benchmarks": [entry]}])

    def test_direction_comes_from_the_unit_key(self):
        pairs = [(ab.snapshot_result(snapshots({"op": 100.0}, {"sim": 1000.0})),
                  ab.snapshot_result(snapshots({"op": 80.0}, {"sim": 1200.0}))),
                 (ab.snapshot_result(snapshots({"op": 100.0}, {"sim": 1000.0})),
                  ab.snapshot_result(snapshots({"op": 120.0}, {"sim": 800.0})))]
        better = ab.unit_directions(pairs)
        self.assertEqual(better, {"op": "lower", "sim": "higher"})
        rows = {r["name"]: r for r in ab.summarize(pairs, better)}
        self.assertEqual(rows["op"]["better_pairs"], 1)   # 80 < 100 only
        self.assertEqual(rows["sim"]["better_pairs"], 1)  # 1200 > 1000 only

    def test_an_entry_on_one_side_has_no_row_and_is_named(self):
        pairs = [(ab.snapshot_result(snapshots({"op": 1.0, "gone": 2.0})),
                  ab.snapshot_result(snapshots({"op": 1.0}, {"new": 3.0})))]
        self.assertEqual([r["name"] for r in ab.summarize(pairs, ab.unit_directions(pairs))],
                         ["op"])
        self.assertEqual(ab.one_sided(pairs), (["gone"], ["new"]))

    def run_fake(self, modes):
        """run_bench_json over stand-in binaries, one per mode, in one
        output directory; the last run's result."""
        with tempfile.TemporaryDirectory() as tmp:
            for mode in modes:
                binary = os.path.join(tmp, f"bench_json_{mode}")
                with open(binary, "w") as f:
                    f.write(FAKE_BENCH_JSON.format(
                        python=sys.executable, mode=mode,
                        docs=json.dumps(snapshots({"op": 5.0}, {"sim": 7.0}))))
                os.chmod(binary, 0o755)
                with contextlib.redirect_stderr(io.StringIO()):
                    res = ab.run_bench_json(tmp, binary, tmp)
            return res

    def test_a_run_without_both_snapshots_or_a_zero_exit_fails_the_ab(self):
        self.assertEqual(self.run_fake(["ok"])["metrics"]["sim"]["value"], 7.0)
        for modes in (["fail"], ["nn_only"], ["silent"], ["ok", "silent"]):
            with self.assertRaises(ab.NoResult, msg=modes):
                self.run_fake(modes)

    def test_perfbench_flags_are_refused(self):
        base = ["--base", "HEAD", "--workload", "bench_json"]
        args = ab.parse_args(base)
        self.assertEqual((args.seconds, args.seed, args.trace), (None, None, None))
        for flag in (["--seconds", "5"], ["--seed", "3"], ["--trace", "0"]):
            with self.assertRaises(SystemExit, msg=flag), \
                    contextlib.redirect_stderr(io.StringIO()):
                ab.parse_args(base + flag)
        args = ab.parse_args(["--base", "HEAD", "--workload", "coop3_b16"])
        self.assertEqual((args.seconds, args.seed, args.trace), (12.0, 1, 0))


if __name__ == "__main__":
    unittest.main()
