"""Self-tests of run.py and BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests -p "test_*.py"

With PERFBENCH_BIN pointing at a built perfbench binary (ctest sets it), each
workload also runs for one second, traced and untraced, and its output must
carry every metric BENCHMARK.json names, with its unit.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_names_units_and_bounds(self):
        names = set()
        for key in ("workloads", "end_to_end", "per_layer"):
            for entry in self.spec[key]:
                self.assertRegex(entry["name"], NAME)
                self.assertNotIn(entry["name"], names)
                names.add(entry["name"])
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertLessEqual(m["bound"], 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in self.spec["end_to_end"])}])


class CheckMetricsTest(unittest.TestCase):
    expected = [{"name": "a_ms", "unit": "ms"}, {"name": "b", "unit": "count"}]

    def test_accepts_exact_set(self):
        metrics = {"a_ms": {"value": 1.5, "unit": "ms"}, "b": {"value": 3, "unit": "count"}}
        self.assertEqual(run.check_metrics(metrics, self.expected), [])

    def test_reports_missing_extra_and_wrong_unit(self):
        metrics = {"a_ms": {"value": 1.5, "unit": "s"}, "c": {"value": 1, "unit": "count"}}
        problems = run.check_metrics(metrics, self.expected)
        self.assertIn("missing metric b", problems)
        self.assertIn("unexpected metric c", problems)
        self.assertTrue(any("a_ms has unit" in p for p in problems))


@unittest.skipUnless(os.environ.get("PERFBENCH_BIN"), "PERFBENCH_BIN not set")
class OutputTest(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        spec = run.load_spec()
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                with tempfile.TemporaryDirectory() as tmp:
                    proc = subprocess.run(
                        [os.environ["PERFBENCH_BIN"], "--workload", workload, "--seed", "1",
                         "--seconds", "1", "--trace", str(trace), "--data-dir",
                         os.path.join(tmp, "data")],
                        stdout=subprocess.PIPE, text=True, timeout=170)
                self.assertEqual(proc.returncode, 0, (workload, trace))
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                expected = spec["per_layer"] if trace else spec["end_to_end"]
                self.assertEqual(run.check_metrics(result["metrics"], expected), [],
                                 (workload, trace))


if __name__ == "__main__":
    unittest.main()
