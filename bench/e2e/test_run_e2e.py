#!/usr/bin/env python3
"""Self-test of run_e2e.py --compare on synthetic result sets."""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run_e2e  # noqa: E402

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "goodput", "unit": "MB/s", "better": "higher", "bound": 0.1},
        {"name": "latency", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
}


def runs(goodput, latency, failed=0):
    return [{"workload": "w", "attempted": 10, "failed": failed,
             "metrics": {"goodput": {"value": g, "unit": "MB/s"},
                         "latency": {"value": l, "unit": "ms"}}}
            for g, l in zip(goodput, latency)]


def noisy(center, spread, n=10):
    """n values alternating around center by +-spread, mildly jittered."""
    return [center + (spread if i % 2 else -spread) * (1 + 0.1 * (i % 3))
            for i in range(n)]


def verdicts(parent, change):
    rows, failed_rose = run_e2e.compare(SPEC, parent, change)
    return {r["metric"]: r["verdict"] for r in rows}, failed_rose


class CompareTest(unittest.TestCase):
    def test_clear_win(self):
        parent = runs(noisy(100, 1), noisy(10, 0.1))
        change = runs(noisy(120, 1), noisy(10, 0.1))
        got, failed_rose = verdicts(parent, change)
        self.assertEqual(got["goodput"], "gain")
        self.assertEqual(got["latency"], "no change")
        self.assertFalse(failed_rose)

    def test_within_noise_tie(self):
        parent = runs(noisy(100, 2), noisy(10, 0.2))
        change = runs(noisy(101, 2), noisy(10.1, 0.2))
        got, _ = verdicts(parent, change)
        self.assertEqual(got, {"goodput": "no change", "latency": "no change"})

    def test_regression_past_bound(self):
        parent = runs(noisy(100, 1), noisy(10, 0.1))
        change = runs(noisy(100, 1), noisy(12, 0.1))
        got, _ = verdicts(parent, change)
        self.assertEqual(got["latency"], "regression")
        self.assertEqual(got["goodput"], "no change")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = runs(noisy(100, 20), noisy(10, 0.1))
        change = runs(noisy(95, 20), noisy(10, 0.1))
        got, _ = verdicts(parent, change)
        self.assertEqual(got["goodput"], "unresolved")

    def test_higher_failed_share_is_flagged_and_voids_a_gain(self):
        parent = runs(noisy(100, 1), noisy(10, 0.1))
        change = runs(noisy(120, 1), noisy(10, 0.1), failed=1)
        got, failed_rose = verdicts(parent, change)
        self.assertTrue(failed_rose)
        self.assertEqual(got["fail_ratio"], "failed share rose")
        self.assertEqual(got["goodput"], "gain void: failed share rose")

    def test_no_gain_below_ten_pairs(self):
        parent = runs(noisy(100, 1, 9), noisy(10, 0.1, 9))
        change = runs(noisy(120, 1, 9), noisy(10, 0.1, 9))
        got, _ = verdicts(parent, change)
        self.assertEqual(got["goodput"], "better, no claimable gain")


if __name__ == "__main__":
    unittest.main()
