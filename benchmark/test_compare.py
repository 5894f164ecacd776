"""Unit tests for compare.py (run: python3 -m unittest test_compare)."""

import json
import os
import statistics
import tempfile
import unittest

import compare

LOWER = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
HIGHER = {"name": "throughput_per_s", "better": "higher", "bound": 0.1}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}


def report(workload, seed, started, **metrics):
    return {"schema": "sealpaa.benchmark-run", "workload": workload,
            "seed": seed, "traced": False, "started_unix": started,
            "metrics": metrics}


def pairs_of(parent_values, change_values, name="peak_rss_mb"):
    """Alternating pairs: even seeds ran the parent first."""
    pairs = []
    for seed, (p, c) in enumerate(zip(parent_values, change_values)):
        first, second = (0, 1) if seed % 2 == 0 else (1, 0)
        pairs.append((report("w", seed, 10 * seed + first, **{name: p}),
                      report("w", seed, 10 * seed + second, **{name: c})))
    return pairs


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        q1, median, q3 = compare.quartiles(values)
        self.assertEqual([q1, median, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(compare.spread(values), (q3 - q1) / median)

    def test_single_value_has_no_spread(self):
        self.assertEqual(compare.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(compare.spread([2.0]), 0.0)


class CompareMetricTest(unittest.TestCase):
    def test_clear_gain(self):
        parent = [10.0 + 0.01 * i for i in range(10)]
        change = [8.0 + 0.01 * i for i in range(10)]
        row = compare.compare_metric(pairs_of(parent, change), LOWER)
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], "gain")

    def test_gain_needs_nine_of_ten_wins(self):
        parent = [10.0 + 0.01 * i for i in range(10)]
        change = [8.0] * 8 + [11.0, 11.0]
        row = compare.compare_metric(pairs_of(parent, change), LOWER)
        self.assertEqual(row["wins"], 8)
        self.assertEqual(row["verdict"], "no regression")

    def test_ties_count_for_neither_side(self):
        parent = [10.0] * 10
        row = compare.compare_metric(pairs_of(parent, list(parent)), LOWER)
        self.assertEqual(row["wins"], 0)
        self.assertEqual(row["verdict"], "no regression")

    def test_regression_beyond_bound(self):
        parent = [100.0 + i for i in range(10)]
        change = [80.0 + i for i in range(10)]
        row = compare.compare_metric(
            pairs_of(parent, change, "throughput_per_s"), HIGHER)
        self.assertEqual(row["verdict"], "regression")

    def test_wide_spread_is_unresolved(self):
        parent = [5.0, 15.0] * 5
        change = [6.0, 16.0] * 5
        row = compare.compare_metric(pairs_of(parent, change), LOWER)
        self.assertEqual(row["verdict"], "unresolved")

    def test_wide_spread_resolves_when_every_run_wins(self):
        parent = [20.0, 30.0] * 5
        change = [5.0, 8.0] * 5
        row = compare.compare_metric(pairs_of(parent, change), LOWER)
        self.assertEqual(row["verdict"], "gain")

    def test_too_few_pairs(self):
        row = compare.compare_metric(pairs_of([1.0] * 9, [1.0] * 9), LOWER)
        self.assertTrue(row["verdict"].startswith("too few pairs"))

    def test_pairs_must_alternate(self):
        pairs = [(report("w", s, 0, peak_rss_mb=1.0),
                  report("w", s, 1, peak_rss_mb=1.0)) for s in range(10)]
        row = compare.compare_metric(pairs, LOWER)
        self.assertEqual(row["verdict"], "pairs did not alternate")


class RepeatabilityTest(unittest.TestCase):
    def runs(self, name, values):
        return [report("w", s, s, **{name: v}) for s, v in enumerate(values)]

    def test_steady_sets_pass(self):
        a = self.runs("peak_rss_mb", [10.0, 10.1, 9.9, 10.05, 10.0])
        b = self.runs("peak_rss_mb", [10.02, 10.0, 9.95, 10.1, 10.03])
        self.assertTrue(compare.repeatability_row(a, b, LOWER)["ok"])

    def test_drift_beyond_bound_fails(self):
        a = self.runs("peak_rss_mb", [10.0, 10.1, 9.9, 10.05, 10.0])
        b = self.runs("peak_rss_mb", [12.0, 12.1, 11.9, 12.05, 12.0])
        row = compare.repeatability_row(a, b, LOWER)
        self.assertGreater(row["drift"], LOWER["bound"])
        self.assertFalse(row["ok"])

    def test_wide_spread_fails_every_metric(self):
        wide = [1.0, 2.0, 1.0, 2.0, 1.5]
        for spec in (LOWER, SETUP):
            runs = self.runs(spec["name"], wide)
            self.assertFalse(compare.repeatability_row(runs, runs, spec)["ok"])


class LoadReportsTest(unittest.TestCase):
    def test_skips_traced_and_foreign_files(self):
        with tempfile.TemporaryDirectory() as directory:
            keep = report("w", 1, 0, peak_rss_mb=1.0)
            traced = dict(keep, traced=True)
            for name, body in (("a.json", json.dumps(keep)),
                               ("b.json", json.dumps(traced)),
                               ("c.json", "{not json"),
                               ("d.json", json.dumps({"schema": "x"}))):
                with open(os.path.join(directory, name), "w",
                          encoding="utf-8") as handle:
                    handle.write(body)
            self.assertEqual(compare.load_reports(directory), [keep])

    def test_pairs_by_seed(self):
        parent = [report("w", s, 0) for s in (3, 1, 2)]
        change = [report("w", s, 1) for s in (2, 3, 9)]
        pairs = compare.pair_runs(parent, change)
        self.assertEqual([p["seed"] for p, _ in pairs], [2, 3])
        self.assertTrue(all(p["seed"] == c["seed"] for p, c in pairs))


if __name__ == "__main__":
    unittest.main()
