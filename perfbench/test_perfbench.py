#!/usr/bin/env python3
"""Tests of the benchmark itself: stream invariants and exact wire_repeat
cache counts.

Run from the repository root:  python3 perfbench/test_perfbench.py
Builds perfbench/ like run.py does (into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench).
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(run.ROOT, root)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(os.path.join(build_root(), "perfbench"))
        cls.work_dir = os.path.join(build_root(), "perfbench_test")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work_dir, ignore_errors=True)

    def measure(self, workload, seed, seconds, trace):
        out = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--work-dir", self.work_dir],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_stream_invariants(self):
        out = subprocess.run([self.binary, "--check-streams"],
                             capture_output=True, text=True, timeout=170)
        self.assertEqual(out.returncode, 0, out.stdout)

    def test_wire_repeat_cache_counts_are_exact(self):
        # Different run lengths complete different numbers of passes; the
        # ratios must not move, and nothing may be evicted.
        short = self.measure("wire_repeat", 3, 1, 1)
        long = self.measure("wire_repeat", 3, 2, 1)
        for m in (short, long):
            self.assertEqual(m["service.cache_evictions"], 0)
            self.assertEqual(m["service.cache_hit_ratio"], 0.6)
            self.assertEqual(m["failed_fraction"], 0)
        self.assertEqual(short["service.neighbor_seed_ratio"],
                         long["service.neighbor_seed_ratio"])

    def test_end_to_end_metrics_are_reported(self):
        m = self.measure("paper_mix", 2, 1, 0)
        self.assertEqual(sorted(m), sorted([
            "throughput_items_per_s", "latency_p50_ms", "latency_p90_ms",
            "setup_s", "peak_rss_mb"]))
        for name, value in m.items():
            self.assertGreater(value, 0, name)


if __name__ == "__main__":
    unittest.main()
