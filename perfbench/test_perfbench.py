"""Smoke test of the benchmark harness, so it cannot rot.

    python3 -m unittest discover -s perfbench

Runs the seconds-scale sizes of every workload, untraced and traced,
through perfbench/report.py, and checks that each run is correct and
reports exactly the metrics BENCHMARK.json declares, with their units.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _declared(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_declared_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "report.json"
            proc = subprocess.run(
                [sys.executable, str(HERE / "report.py"), "--smoke",
                 "--seconds", "1", "--out", str(out)],
                capture_output=True, text=True, timeout=600)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            report = json.loads(out.read_text())

        self.assertEqual(set(report["workloads"]),
                         {w["name"] for w in spec["workloads"]})
        self.assertEqual(set(report["env"]),
                         {"numba", "numpy", "python", "nproc",
                          "blas_threads", "commit"})
        for name, runs in report["workloads"].items():
            for key, declared in (("end_to_end", _declared(spec, "end_to_end")),
                                  ("per_layer", _declared(spec, "per_layer"))):
                with self.subTest(workload=name, metrics=key):
                    result = runs[key]
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 3)
                    self.assertEqual({k: v["unit"] for k, v
                                      in result["metrics"].items()}, declared)
            for m in runs["end_to_end"]["metrics"].values():
                self.assertGreater(m["value"], 0)

    def test_exits_nonzero_without_package_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "nmin-glass-4x4", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
