"""Tests of the benchmark's own arithmetic (stats.py).

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import math
import os
import unittest

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_rep(traced, best=2.5, check="", exhausted=0, samples=20):
    rep = {
        "traced": traced, "train_s": 4.0, "round_s": [1.0, 1.5],
        "total_samples": samples, "history_size": samples, "invalid": 5,
        "exhausted": exhausted, "best_step_s": best, "best_sample": 7,
        "sim_hours": 0.5, "check": check, "env_evaluations": samples,
        "env_cache_hits": 2, "sim_runs": 18, "sim_delta_hits": 3,
        "sim_delta_fallbacks": 15, "arena_acquires": 100,
        "arena_pool_hits": 75, "arena_fresh_allocs": 25,
        "queue_wait_s": 0.02, "queue_waits": 20, "ticket_busy_s": 0.6, "nn_params": 1234,
        "graph_ops": 500, "graph_edges": 900,
    }
    if traced:
        rep["train_s"] = 5.0
        rep["layers"] = {
            "sample_s": 0.5, "sample_ms": [20.0, 30.0, 40.0],
            "to_placement_s": 0.25, "score_s": 1.0, "score_calls": 80,
            "eval_batch_s": 0.5, "evaluated": samples, "update_s": 3.5,
        }
    return rep


def make_record(reps):
    return {
        "workload": "gnmt-eagle", "seed": 3, "threads": 2,
        "samples_per_rep": 20,
        "setups": [{"total_s": t, "build_s": t / 2, "metis_s": 0.0,
                    "agent_init_s": t / 4} for t in (0.3, 0.1, 0.2)],
        "reps": reps,
        "setup_medians": [0.25, 0.15, 0.2],
        "metis_probe_s": [0.02, 0.01, 0.03],
        "replay": {"run_ms": [2.0, 4.0, 3.0], "events": 600, "runs": 3},
        "peak_rss_kb": 2048.0,
    }


class TailTest(unittest.TestCase):
    def test_value_has_exactly_ten_rounds_beyond_it(self):
        for n in (11, 12, 20, 37, 100):
            values = [float(v) for v in range(n, 0, -1)]
            value, pct, count = stats.tail(values)
            self.assertEqual(count, n)
            self.assertEqual(sum(v > value for v in values), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_named_percentiles(self):
        self.assertEqual(stats.tail(range(1, 21))[:2], (10, 50.0))
        self.assertEqual(stats.tail(range(1, 101))[:2], (90, 90.0))

    def test_too_few_rounds_report_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        self.assertEqual(stats.tail([float(v) for v in range(10)])[:2],
                         (9.0, 100.0))

    def test_no_rounds_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class FailureCountTest(unittest.TestCase):
    def test_clean_run(self):
        record = make_record([make_rep(False), make_rep(True)])
        self.assertEqual(stats.count_failures(record), (40, 0, []))
        self.assertTrue(stats.result(record, trace=False)["correct"])

    def test_exhausted_evaluations_fail_one_sample_each(self):
        record = make_record([make_rep(False, exhausted=3), make_rep(False)])
        attempted, failed, problems = stats.count_failures(record)
        self.assertEqual((attempted, failed, problems), (40, 3, []))
        self.assertFalse(stats.result(record, trace=False)["correct"])

    def test_failed_output_check_fails_the_whole_repetition(self):
        record = make_record([make_rep(False),
                              make_rep(False, check="bad", exhausted=2)])
        attempted, failed, problems = stats.count_failures(record)
        self.assertEqual((attempted, failed), (40, 20))
        self.assertEqual(len(problems), 1)

    def test_differing_best_placement_fails_the_repetition(self):
        record = make_record([make_rep(False), make_rep(True, best=2.4),
                              make_rep(False)])
        attempted, failed, problems = stats.count_failures(record)
        self.assertEqual((attempted, failed), (60, 20))
        self.assertIn("differs", problems[0])


class MetisTest(unittest.TestCase):
    def test_setup_metis_time_wins_over_the_probe(self):
        record = make_record([make_rep(False), make_rep(True)])
        for setup, metis in zip(record["setups"], (0.5, 0.7, 0.6)):
            setup["metis_s"] = metis
        values = stats.result(record, True)["metrics"]
        self.assertEqual(values["partition.metis_s"]["value"], 0.6)


class MetricsTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)
        self.record = make_record(
            [make_rep(False), make_rep(True), make_rep(False)])

    def check_printed(self, trace, declared):
        metrics = stats.result(self.record, trace)["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in declared])
        for entry in declared:
            metric = metrics[entry["name"]]
            self.assertEqual(metric["unit"], entry["unit"], entry["name"])
            self.assertTrue(math.isfinite(metric["value"]), entry["name"])

    def test_end_to_end_names_and_units_match_benchmark_json(self):
        self.check_printed(False, self.spec["end_to_end"])

    def test_per_layer_names_and_units_match_benchmark_json(self):
        self.check_printed(True, self.spec["per_layer"])

    def test_end_to_end_values(self):
        values = {k: v["value"] for k, v in
                  stats.result(self.record, False)["metrics"].items()}
        self.assertEqual(values["samples_per_s"], 40 / 8.0)
        self.assertEqual(values["round_s.p50"], 1.25)
        self.assertEqual(values["round_s.tail"], 1.5)  # 4 rounds: the max
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertEqual(values["peak_rss_mb"], 2.0)
        self.assertEqual(values["best_step_s"], 2.5)

    def test_traced_run_adds_up(self):
        values = {k: v["value"] for k, v in
                  stats.result(self.record, True)["metrics"].items()}
        parts = (values["core.sample_s"] + values["core.to_placement_s"] +
                 values["core.eval_batch_s"] + values["rl.update_s"] +
                 values["rl.other_s"])
        self.assertAlmostEqual(parts, values["rl.train_s"])
        self.assertAlmostEqual(values["rl.backward_s"] +
                               values["core.score_s"], values["rl.update_s"])
        self.assertEqual(values["rl.other_s"], 0.25)
        self.assertEqual(values["core.sample_ms.p50"], 30.0)
        self.assertEqual(values["core.eval_ms_per_sample"], 25.0)
        self.assertEqual(values["core.worker_occupancy"], 0.6)
        self.assertEqual(values["core.eval_queue_wait_s.mean"], 0.001)
        self.assertEqual(values["partition.metis_s"], 0.02)
        self.assertEqual(values["core.cache_hit_ratio"], 0.1)
        self.assertEqual(values["sim.delta.hit_ratio"], 3 / 18)
        self.assertEqual(values["sim.events_per_run"], 200)
        self.assertEqual(values["sim.events_per_s"], 600 / 0.009)
        self.assertEqual(values["nn.arena.pool_hit_ratio"], 0.75)
        # 20 samples in 5 s traced against 40 in 8 s untraced.
        self.assertEqual(values["trace.samples_per_s_ratio"], 4.0 / 5.0)


if __name__ == "__main__":
    unittest.main()
