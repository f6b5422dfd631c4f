#!/usr/bin/env python3
"""Tests of perfbench/compare.py: quartile spread, fingerprint refusal, and
the regression verdict.

    python3 perfbench/test_compare.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

PRINT = {"build_type": "Release", "compiler": "GNU 12.2.0", "cpu_model": "x",
         "flags": "-O3 -DNDEBUG", "nproc": 4}


def run(workload, value, fingerprint=PRINT, correct=True, trace=0):
    return {"workload": workload, "trace": trace, "fingerprint": dict(fingerprint),
            "result": {"correct": correct, "attempted": 1, "failed": 0,
                       "metrics": {"events_per_s": {"value": value, "unit": "1/s"},
                                   "setup_s": {"value": 1.0, "unit": "s"}}}}


BOUNDS = {"events_per_s": {"name": "events_per_s", "better": "higher", "bound": 0.2},
          "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25}}


class CompareTest(unittest.TestCase):
    def test_spread_is_interquartile_range_over_median(self):
        middle, q1, q3, share = compare.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(middle, 5.5)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(share, 1.0)

    def test_summary_skips_traced_and_failed_runs(self):
        records = [run("w", 100), run("w", 110), run("w", 1, correct=False),
                   run("w", 1, trace=1)]
        summary = compare.summarize(records)
        self.assertEqual(summary["w"]["events_per_s"]["runs"], 2)
        self.assertEqual(summary["w"]["events_per_s"]["median"], 105)

    def test_differing_fingerprints_are_refused(self):
        foreign = dict(PRINT, nproc=1)
        with self.assertRaises(compare.FingerprintMismatch):
            compare.common_fingerprint([run("w", 100), run("w", 100, foreign)])

    def test_check_refuses_a_baseline_from_another_machine(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "baseline.json")
            with open(baseline, "w") as f:
                json.dump({"fingerprint": dict(PRINT, compiler="GNU 13.1.0"),
                           "workloads": {}}, f)
            with self.assertRaises(compare.FingerprintMismatch):
                compare.cmd_check([run("w", 100), run("w", 100)], BOUNDS, baseline)

    def test_regression_verdict_follows_direction_and_bound(self):
        bound = BOUNDS["events_per_s"]
        self.assertAlmostEqual(compare.worse_by(bound, 100.0, 75.0), 0.25)
        self.assertAlmostEqual(compare.worse_by(bound, 100.0, 125.0), -0.25)
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "baseline.json")
            compare.cmd_record([run("w", 100), run("w", 100)], baseline)
            slower = [run("w", 75), run("w", 75)]
            self.assertEqual(compare.cmd_check(slower, BOUNDS, baseline), 1)
            steady = [run("w", 90), run("w", 90)]
            self.assertEqual(compare.cmd_check(steady, BOUNDS, baseline), 0)


if __name__ == "__main__":
    unittest.main()
