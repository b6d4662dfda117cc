"""Tests of the benchmark's own rules (perfbench/metrics.py) and of its
contract with BENCHMARK.json (perfbench/run.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as m  # noqa: E402


def node(name, total_us, count=1, children=()):
    return {"name": name, "count": count, "total_us": total_us, "children": list(children)}


def step(rate, latencies, sent=None, received=None, failed=0, late=(0.0, 0.0), wall_s=1.0):
    n = len(latencies)
    return {"rate": rate, "latency_us": list(latencies), "gen_late_us": [0.0] * n,
            "sent": n if sent is None else sent, "received": n if received is None else received,
            "failed": failed, "late_first_us": late[0], "late_second_us": late[1],
            "wall_s": wall_s}


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(m.percentile(values, 50), 50)
        self.assertEqual(m.percentile(values, 99), 99)
        self.assertEqual(m.percentile(values, 100), 100)
        self.assertEqual(m.percentile(values[::-1], 99), 99)  # order does not matter
        self.assertEqual(m.percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            m.percentile([], 50)

    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(m.beyond(1000, 99), 10)
        self.assertTrue(m.supported(1000, 99))
        self.assertEqual(m.beyond(999, 99), 9)
        self.assertFalse(m.supported(999, 99))
        self.assertTrue(m.supported(20, 50))
        self.assertFalse(m.supported(0, 50))

    def test_windows_fold_the_tail_into_the_last(self):
        ws = m.windows(list(range(2500)), 1000)
        self.assertEqual([len(w) for w in ws], [1000, 1500])
        self.assertEqual(m.windows(list(range(999)), 1000), [])

    def test_median_p99_skips_groups_that_cannot_support_p99(self):
        quiet = [100.0] * 1000
        stalled = [100.0] * 900 + [9000.0] * 100
        p99, groups = m.median_p99([quiet, quiet, stalled, [1.0] * 10])
        self.assertEqual((p99, groups), (100.0, 3))
        self.assertEqual(m.median_p99([[1.0] * 50]), (None, 0))


class Ladder(unittest.TestCase):
    def test_a_step_passes_only_within_the_limit(self):
        self.assertTrue(m.step_passes(step(1000, [500.0] * 2000), limit_us=2000))
        self.assertFalse(m.step_passes(step(1000, [2500.0] * 2000), limit_us=2000))
        # Too few samples for p99: not judged a pass.
        self.assertFalse(m.step_passes(step(1000, [500.0] * 999), limit_us=2000))

    def test_failures_count_as_misses(self):
        self.assertFalse(m.step_passes(step(1000, [500.0] * 2000, failed=1), limit_us=2000))
        # A request sent but never answered fails the step.
        self.assertFalse(m.step_passes(step(1000, [500.0] * 2000, sent=2001), limit_us=2000))

    def test_a_growing_backlog_fails_the_step(self):
        growing = step(1000, [500.0] * 2000, late=(10.0, 1500.0))
        self.assertTrue(m.backlog_grows(growing, limit_us=2000))
        self.assertFalse(m.step_passes(growing, limit_us=2000))
        steady = step(1000, [500.0] * 2000, late=(400.0, 900.0))
        self.assertFalse(m.backlog_grows(steady, limit_us=2000))

    def test_max_rate_is_the_highest_passing_step(self):
        steps = [
            step(4000, [1500.0] * 4000, wall_s=1.0),
            step(16000, [2500.0] * 4000, wall_s=0.25),   # deadline regime: misses
            step(48000, [400.0] * 4800, wall_s=0.1),     # passes
            step(52800, [500.0] * 5280, wall_s=0.101),   # passes: reported
            step(58080, [9000.0] * 5808, wall_s=0.1),    # overloaded
        ]
        self.assertAlmostEqual(m.max_rate(steps, limit_us=2000), 5280 / 0.101)
        self.assertEqual(m.max_rate(steps[1:2], limit_us=2000), 0.0)

    def test_merge_steps(self):
        a = step(4000, [1.0] * 3, late=(2.0, 4.0), wall_s=0.5)
        b = step(4000, [2.0] * 5, failed=1, late=(4.0, 8.0), wall_s=0.25)
        merged = m.merge_steps([a, b])
        self.assertEqual(merged["latency_us"], [1.0] * 3 + [2.0] * 5)
        self.assertEqual((merged["sent"], merged["failed"], merged["wall_s"]), (8, 1, 0.75))
        self.assertEqual((merged["late_first_us"], merged["late_second_us"]), (3.0, 6.0))


class PhaseTree(unittest.TestCase):
    def tree(self):
        # stage2 (100 us over 4 env steps)
        #   rollout 60: sim_step 10, select 30 (nn_forward 20), accumulate 5
        #   learn 38: merge 3, update 35 (opponent_update 15 (nn_forward 4,
        #             nn_backward 6), replay 2, nn_forward 8, nn_backward 5)
        return [
            node("stage2", 100.0, children=[
                node("rollout", 60.0, children=[
                    node("sim_step", 10.0, count=4),
                    node("select", 30.0, count=4, children=[node("nn_forward", 20.0, count=8)]),
                    node("accumulate", 5.0, count=4),
                ]),
                node("learn", 38.0, children=[
                    node("merge", 3.0),
                    node("update", 35.0, count=2, children=[
                        node("opponent_update", 15.0, count=2, children=[
                            node("nn_forward", 4.0, count=2),
                            node("nn_backward", 6.0, count=2),
                        ]),
                        node("replay", 2.0, count=2),
                        node("nn_forward", 8.0, count=4),
                        node("nn_backward", 5.0, count=4),
                    ]),
                ]),
            ]),
            # Work outside the timed call must not leak into the stage-2 layers.
            node("act_rows", 50.0, children=[node("nn_forward", 50.0, count=10)]),
        ]

    def test_self_time_is_total_minus_children(self):
        agg = m.by_name(self.tree())
        self.assertAlmostEqual(agg["select"]["self_us"], 10.0)
        self.assertAlmostEqual(agg["rollout"]["self_us"], 15.0)
        self.assertAlmostEqual(agg["update"]["self_us"], 35.0 - 15.0 - 2.0 - 8.0 - 5.0)
        # A name at several paths sums over all of them.
        self.assertAlmostEqual(agg["nn_forward"]["total_us"], 20.0 + 4.0 + 8.0 + 50.0)
        self.assertEqual(agg["nn_forward"]["count"], 24)

    def test_coverage_counts_the_named_children_of_the_root(self):
        self.assertAlmostEqual(m.coverage(self.tree(), "stage2", 100e-6), 0.98)
        self.assertEqual(m.coverage(self.tree(), "stage1", 1.0), 0.0)

    def test_stage2_layers_per_env_step(self):
        layers = m.stage2_layers(self.tree(), steps=4)
        ns = lambda us: us * 1e3 / 4  # noqa: E731
        self.assertAlmostEqual(layers["sim.step_ns"], ns(10.0))
        self.assertAlmostEqual(layers["rollout.total_ns"], ns(60.0))
        self.assertAlmostEqual(layers["rollout.select_ns"], ns(10.0))
        self.assertAlmostEqual(layers["rollout.accumulate_ns"], ns(5.0))
        self.assertAlmostEqual(layers["learner.update_ns"], ns(35.0))
        self.assertAlmostEqual(layers["learner.update_calls"], 0.5)
        self.assertAlmostEqual(layers["learner.high_ns"], ns(20.0))
        self.assertAlmostEqual(layers["opponent.update_ns"], ns(15.0))
        self.assertAlmostEqual(layers["learner.replay_ns"], ns(2.0))
        self.assertAlmostEqual(layers["learner.merge_ns"], ns(3.0))
        # Only the stage-2 subtree: the act_rows root is excluded.
        self.assertAlmostEqual(layers["nn.forward_ns"], ns(32.0))
        self.assertAlmostEqual(layers["nn.forward_calls"], 14 / 4)
        self.assertAlmostEqual(layers["nn.forward_ns_per_call"], 32.0 * 1e3 / 14)
        self.assertAlmostEqual(layers["nn.backward_ns_per_call"], 11.0 * 1e3 / 6)
        # Absent phases read zero.
        self.assertEqual(layers["opponent.predict_ns"], 0.0)
        self.assertEqual(layers["rollout.skills_ns"], 0.0)

    def test_serial_path_reports_act_as_its_rollout(self):
        tree = [node("stage2", 10.0, children=[node("act", 6.0), node("update", 3.0)])]
        self.assertAlmostEqual(m.stage2_layers(tree, steps=2)["rollout.total_ns"], 3000.0)

    def test_stage1_layers_per_stage1_step(self):
        tree = [node("stage1", 100.0, children=[
            node("skill_episode", 100.0, count=2, children=[
                node("sim_step", 10.0, count=20),
                node("update", 80.0, count=10, children=[node("replay", 5.0, count=10)]),
            ]),
        ])]
        layers = m.stage1_layers(tree)
        self.assertAlmostEqual(layers["skills.update_ns"], 80.0 * 1e3 / 20)
        self.assertAlmostEqual(layers["skills.update_calls"], 0.5)
        self.assertAlmostEqual(layers["skills.sim_ns"], 500.0)
        self.assertEqual(m.stage1_layers([])["skills.update_ns"], 0.0)


class Contract(unittest.TestCase):
    """run.py reports exactly the metrics BENCHMARK.json declares."""

    @classmethod
    def setUpClass(cls):
        import json
        import run
        cls.runner = run
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def served(self):
        ref = step(4000, [600.0] * 1024)
        ref["server"] = {"metrics": {"histograms": {}}, "phases": []}
        sat = step(0, [300.0] * 1000)
        return {"warmup": sat, "reference": [ref, ref], "saturation": [sat], "steps": []}

    def train_raw(self):
        chunk = {"episodes": 2, "steps": 20, "seconds": 0.01, "digest": "0", "failed": 0}
        pass_ = {"skills_s": 1.0, "skills_digest": "0", "stage1_phases": [],
                 "warmup_failed": 0, "chunks": [chunk], "stage2_phases": []}
        return {"kind": "train", "setup_s": [0.001], "main": pass_, "replay": pass_,
                "skills_again_s": 1.0, "serve_setup_s": [0.1], "passes": [self.served()]}

    def serve_raw(self):
        return {"kind": "serve", "setup_s": [0.1], "skills_s": 1.0, "skills_again_s": 1.0,
                "passes": [self.served(), self.served()]}

    def declared(self, key):
        return {m_["name"]: m_["unit"] for m_ in self.bench[key]}

    def reported(self, summarize, raw):
        _, attempted, failed, values = summarize(raw)
        self.assertGreaterEqual(attempted, 1)
        self.assertEqual(failed, 0)
        return {name: v["unit"] for name, v in values.items()}

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(self.runner.WORKLOADS))

    def test_end_to_end_metrics(self):
        want = self.declared("end_to_end")
        self.assertEqual(self.reported(self.runner.train_e2e, self.train_raw()), want)
        self.assertEqual(self.reported(self.runner.serve_e2e, self.serve_raw()), want)

    def test_per_layer_metrics(self):
        want = self.declared("per_layer")
        self.assertEqual(self.reported(self.runner.train_layers, self.train_raw()), want)
        self.assertEqual(self.reported(self.runner.serve_layers, self.serve_raw()), want)


if __name__ == "__main__":
    unittest.main()
