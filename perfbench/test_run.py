"""Tests of run.py's result checking against BENCHMARK.json.

    python3 perfbench/test_run.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCH = {
    "end_to_end": [{"name": "certify_s", "unit": "s", "better": "lower", "bound": 0.2}],
    "per_layer": [{"name": "certify.core.plan_s", "unit": "s", "better": "lower"}],
}


def result(metrics, **kw):
    r = {"correct": True, "attempted": 2, "failed": 0, "metrics": metrics}
    r.update(kw)
    return r


class CheckResult(unittest.TestCase):
    def test_good_result_passes(self):
        ok = result({"certify_s": {"value": 0.5, "unit": "s"}})
        self.assertEqual(run.check_result(ok, BENCH, trace=0), [])

    def test_trace_selects_per_layer_names(self):
        ok = result({"certify.core.plan_s": {"value": 0.1, "unit": "s"}})
        self.assertEqual(run.check_result(ok, BENCH, trace=1), [])
        self.assertTrue(run.check_result(ok, BENCH, trace=0))

    def test_missing_and_extra_metrics_are_named(self):
        bad = result({"other_s": {"value": 1, "unit": "s"}})
        problems = " ".join(run.check_result(bad, BENCH, trace=0))
        self.assertIn("missing metrics: certify_s", problems)
        self.assertIn("not in BENCHMARK.json: other_s", problems)

    def test_unit_and_value_are_checked(self):
        bad = result({"certify_s": {"value": 1, "unit": "ms"}})
        self.assertIn("unit", run.check_result(bad, BENCH, trace=0)[0])
        bad = result({"certify_s": {"value": "1", "unit": "s"}})
        self.assertIn("not a number", run.check_result(bad, BENCH, trace=0)[0])

    def test_counts_must_be_whole_numbers(self):
        bad = result({"certify_s": {"value": 1, "unit": "s"}}, attempted=0)
        self.assertIn("no chain was attempted", run.check_result(bad, BENCH, trace=0))
        bad = result({"certify_s": {"value": 1, "unit": "s"}}, failed=1.5)
        self.assertIn("failed is not a whole number", run.check_result(bad, BENCH, trace=0))

    def test_extra_top_level_key_is_refused(self):
        bad = result({"certify_s": {"value": 1, "unit": "s"}}, note="x")
        self.assertEqual(len(run.check_result(bad, BENCH, trace=0)), 1)

    def test_repository_benchmark_lists_are_well_formed(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)
        for m in bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
