"""Tests of the benchmark's own statistics, result file and metric tables.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import struct
import tempfile
import unittest
from pathlib import Path

import metrics
from stats import (highest_percentile, median, percentile, quartiles, read_result, spread,
                   write_result)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(highest_percentile(19))
        self.assertEqual(highest_percentile(20), 50.0)
        self.assertEqual(highest_percentile(99), 50.0)
        self.assertEqual(highest_percentile(100), 90.0)
        self.assertEqual(highest_percentile(999), 90.0)
        self.assertEqual(highest_percentile(1000), 99.0)
        self.assertEqual(highest_percentile(10000), 99.9)

    def test_nearest_rank_percentile(self):
        values = list(range(100, 0, -1))
        self.assertEqual(percentile(values, 90), 90)
        self.assertEqual(percentile(values, 100), 100)
        self.assertEqual(percentile([3.0], 50), 3.0)
        self.assertEqual(percentile([5, 1, 3], 50), 3)
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1], 0)


class MedianAndQuartiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            median([])

    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(spread(list(range(1, 11))), 5.5 / 5.5)
        self.assertEqual(spread([2.0] * 10), 0.0)
        with self.assertRaises(ValueError):
            quartiles([1.0])


class ResultFile(unittest.TestCase):
    RESULT = {
        "workload": "cifar10_dp4", "seed": 7, "trace": 0, "correct": True,
        "attempted": 123, "failed": 0,
        "metrics": {"step_ms_p50": {"value": 95.123456789012345, "unit": "ms"}},
        "checks": {"loss_finite": True}, "provenance": {"nproc": 4},
        "loss_hash": "0123456789abcdef",
    }

    def test_round_trip_is_exact(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "result.json")
            write_result(path, self.RESULT)
            self.assertEqual(read_result(path), self.RESULT)

    def test_incomplete_results_are_refused(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "result.json")
            with self.assertRaises(ValueError):
                write_result(path, {k: v for k, v in self.RESULT.items() if k != "failed"})
            bad = dict(self.RESULT, metrics={"x": {"value": 1}})
            Path(path).write_text(json.dumps(bad))
            with self.assertRaises(ValueError):
                read_result(path)


def bits(value):
    return struct.pack(">f", value).hex()


class EndToEnd(unittest.TestCase):
    def raw(self, first_losses=(2.5, 2.5), closed_digest="0000000000000002", grad_norm=0.5,
            step_ms=None):
        def session(role, first, steps):
            times = step_ms if step_ms is not None and steps else [10.0] * steps
            return {"role": role, "setup_s": 0.5, "attempted": steps + 1, "error": None,
                    "losses": [bits(first)] + [bits(2.0)] * steps,
                    "step_ms": times, "cpu_s_at": [0.0032 * (i + 1) for i in range(len(times))],
                    "wall_s": steps / 100.0, "cpu_s": 0.0032 * steps,
                    "flow": {"enqueued": 6 * steps, "claimed": 4 * steps,
                             "credit_wait_us": 0, "peak_occupancy_bytes": 0},
                    "params_digest_opened": "0000000000000001",
                    "params_digest_closed": closed_digest, "grad_norm_closed": grad_norm}
        return {"peak_rss_kb": 2048,
                "config": {"global_batch": 32, "classes": 10}, "counts": {"msgs_per_step": 10},
                "sessions": [session("setup", first_losses[0], 0),
                             session("timed", first_losses[1], 100)]}

    def test_metrics_and_checks(self):
        values, checks = metrics.end_to_end([self.raw(), self.raw()])
        self.assertTrue(all(checks.values()), checks)
        self.assertAlmostEqual(values["samples_per_s"], 3200.0)
        self.assertEqual(values["step_ms_p90"], 10.0)
        self.assertEqual(values["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(values["cpu_ms_per_sample"], 0.1)
        self.assertEqual(set(values), set(metrics.END_TO_END))

    def test_loss_must_end_lower_or_uninformed(self):
        uninformed = 2.3226
        self.assertTrue(metrics.ends_lower([3.0] * 10 + [1.0] * 10, uninformed))
        self.assertTrue(metrics.ends_lower([2.29] * 10 + [2.305] * 10, uninformed))
        self.assertFalse(metrics.ends_lower([3.0] * 20, uninformed))
        self.assertFalse(metrics.ends_lower([2.5] * 10 + [2.6] * 10, uninformed))
        self.assertFalse(metrics.ends_lower([1.0] * 3, uninformed))

    def test_times_come_from_the_fastest_window(self):
        # 150 steps: a slow stretch, then 100 fast steps with one 30 ms step.
        times = [40.0] * 50 + [5.0] * 89 + [30.0] + [5.0] * 10
        values, checks = metrics.end_to_end([self.raw(step_ms=times), self.raw()])
        self.assertTrue(checks["full_window_per_process"], checks)
        self.assertAlmostEqual(values["samples_per_s"], 3200 * 1000.0 / (99 * 5.0 + 30.0))
        self.assertEqual(values["step_ms_p50"], 5.0)
        self.assertEqual(values["step_ms_p90"], 5.0)
        self.assertAlmostEqual(values["cpu_ms_per_sample"], 0.1)
        self.assertEqual(highest_percentile(metrics.WINDOW_STEPS), 90.0)

    def test_a_process_without_a_full_window_fails(self):
        values, checks = metrics.end_to_end([self.raw(step_ms=[10.0] * 99), self.raw()])
        self.assertIsNone(values)
        self.assertFalse(checks["full_window_per_process"])

    def test_differing_first_loss_fails(self):
        _, checks = metrics.end_to_end([self.raw(), self.raw(first_losses=(2.5, 2.4))])
        self.assertFalse(checks["setup_first_loss_bitwise"])

    def test_training_that_does_not_move_fails(self):
        # The losses pass the uninformed-loss slack; the parameters do not.
        _, checks = metrics.end_to_end([self.raw(closed_digest="0000000000000001")])
        self.assertTrue(checks["loss_decreases"])
        self.assertFalse(checks["params_move"])
        _, checks = metrics.end_to_end([self.raw(grad_norm=0.0)])
        self.assertFalse(checks["gradient_nonzero"])
        _, checks = metrics.end_to_end([self.raw(grad_norm=-1.0)])
        self.assertFalse(checks["gradient_nonzero"])


class MetricTables(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        for key, table in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
            declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
            self.assertEqual(declared, table)


if __name__ == "__main__":
    unittest.main()
