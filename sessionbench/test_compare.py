#!/usr/bin/env python3
"""Tests of compare.py's verdicts: python3 sessionbench/test_compare.py"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

# Ten seeds whose values spread by 30% of their median: quartiles 0.85 and
# 1.15 around a median of 1.0.
WIDE = {seed: value for seed, value in
        enumerate([0.7, 0.85, 0.85, 0.9, 0.95, 1.05, 1.1, 1.15, 1.15, 1.3])}


def scaled(runs, factor):
    return {seed: value * factor for seed, value in runs.items()}


def write_records(directory, workload, metric, runs):
    for seed, value in runs.items():
        record = {"workload": workload, "seed": seed, "trace": False,
                  "metrics": {metric: {"value": value, "unit": "s"}}}
        with open(Path(directory) / ("%s-%d.json" % (workload, seed)),
                  "w") as f:
            json.dump(record, f)


class VerdictTest(unittest.TestCase):
    def test_wide_parent_spread(self):
        won, spread, worse, result = compare.verdict(
            WIDE, scaled(WIDE, 1.4), "lower", 0.1)
        self.assertAlmostEqual(spread, 0.3)
        self.assertAlmostEqual(worse, 0.4)
        self.assertEqual(result, "regression")

    def test_small_change_within_wide_spread_is_unresolved(self):
        result = compare.verdict(WIDE, scaled(WIDE, 1.05), "lower", 0.1)[3]
        self.assertEqual(result, "unresolved")

    def test_small_change_within_bound_is_unchanged(self):
        steady = {seed: 1.0 + 0.001 * seed for seed in range(10)}
        result = compare.verdict(steady, scaled(steady, 1.05), "lower",
                                 0.1)[3]
        self.assertEqual(result, "unchanged")

    def test_gain(self):
        result = compare.verdict(WIDE, scaled(WIDE, 0.6), "lower", 0.1)[3]
        self.assertEqual(result, "gain")

    def test_higher_is_better(self):
        result = compare.verdict(WIDE, scaled(WIDE, 0.6), "higher", 0.1)[3]
        self.assertEqual(result, "regression")

    def test_quality_is_compared_seed_by_seed(self):
        parent = {1: 0.9, 2: 0.8, 3: 0.7}
        self.assertEqual(
            compare.quality_verdict(parent, dict(parent), "higher")[3],
            "unchanged")
        one_worse = {**parent, 2: 0.79}
        self.assertEqual(
            compare.quality_verdict(parent, one_worse, "higher")[3],
            "regression")
        one_better = {**parent, 2: 0.81}
        self.assertEqual(
            compare.quality_verdict(parent, one_better, "higher")[3], "gain")

    def test_regression_exits_1(self):
        # A non-quality end-to-end metric of BENCHMARK.json. Its bound is
        # below WIDE's spread, so the regression must win over 'unresolved'.
        with open(compare.ROOT / "BENCHMARK.json") as f:
            metric = next(m for m in json.load(f)["end_to_end"]
                          if m["name"] not in compare.QUALITY and
                          m["better"] == "lower")
        self.assertLess(metric["bound"], 0.3)
        with tempfile.TemporaryDirectory() as parent_dir, \
                tempfile.TemporaryDirectory() as change_dir:
            write_records(parent_dir, "ag_reuse", metric["name"], WIDE)
            write_records(change_dir, "ag_reuse", metric["name"],
                          scaled(WIDE, 1 + metric["bound"] + 0.15))
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = compare.main(["compare.py", parent_dir, change_dir])
        self.assertEqual(code, 1)
        self.assertIn("regression", out.getvalue())


if __name__ == "__main__":
    unittest.main()
