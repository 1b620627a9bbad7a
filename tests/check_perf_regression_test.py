#!/usr/bin/env python3
"""Tests for scripts/check_perf_regression.py, the bench JSON perf gate.

Every case copies the committed BENCH_*.json baselines from the repository
root into two temporary directories, doctors the "fresh" copy, and runs the
gate on the pair as a subprocess. A case that expects a failure also checks
that the gate named the doctored field, so a crash (also exit 1) cannot
pass for a gate decision.

Usage: python3 tests/check_perf_regression_test.py
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(REPO_ROOT, "scripts", "check_perf_regression.py")


def copy_baselines(directory):
    os.mkdir(directory)
    paths = glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
    if not paths:
        raise RuntimeError(f"no BENCH_*.json baselines in {REPO_ROOT}")
    for path in paths:
        shutil.copy(path, directory)


class PerfGateTest(unittest.TestCase):

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="perf_gate_test_")
        self.baseline = os.path.join(self.tmp, "baseline")
        self.fresh = os.path.join(self.tmp, "fresh")
        copy_baselines(self.baseline)
        copy_baselines(self.fresh)

    def reset_fresh(self):
        shutil.rmtree(self.fresh)
        copy_baselines(self.fresh)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def edit(self, name, mutate):
        """Applies mutate(doc) to the fresh copy of `name`."""
        path = os.path.join(self.fresh, name)
        with open(path) as f:
            doc = json.load(f)
        mutate(doc)
        with open(path, "w") as f:
            json.dump(doc, f)

    def run_gate(self):
        result = subprocess.run(
            [sys.executable, GATE, "--baseline", self.baseline,
             "--fresh", self.fresh],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return result.returncode, result.stdout

    def assert_passes(self, expect_in_output=None):
        code, output = self.run_gate()
        self.assertEqual(code, 0, output)
        self.assertIn("perf gate: ok", output)
        if expect_in_output is not None:
            self.assertIn(expect_in_output, output)

    def assert_fails_on(self, fragment):
        code, output = self.run_gate()
        self.assertEqual(code, 1, output)
        fail_lines = [l for l in output.splitlines()
                      if l.lstrip().startswith("FAIL")]
        self.assertTrue(any(fragment in l for l in fail_lines),
                        f"no FAIL line names {fragment!r}:\n{output}")

    # Each entry: (file, label the gate prints, function returning the
    # dict that holds the flag, flag key).
    FLAGS = [
        ("BENCH_stream.json", "answers_identical",
         lambda doc: doc, "answers_identical"),
        ("BENCH_stream.json", "].identical",
         lambda doc: doc["rows"][0], "identical"),
        ("BENCH_serve.json", "thread_scaling.answers_identical",
         lambda doc: doc["thread_scaling"], "answers_identical"),
        ("BENCH_serve.json", "warm_vs_cold[",
         lambda doc: doc["warm_vs_cold"][0], "identical"),
        ("BENCH_store.json", "segment_io.round_trip_identical",
         lambda doc: doc["segment_io"], "round_trip_identical"),
        ("BENCH_sparsifier.json", "within_epsilon",
         lambda doc: doc["frontier"][0], "within_epsilon"),
        ("BENCH_cutquery.json", "same_subset",
         lambda doc: doc["enumerate_decode"][0], "same_subset"),
    ]

    def test_baselines_against_themselves_pass(self):
        self.assert_passes()

    def test_missing_flag_fails(self):
        for name, label, holder, key in self.FLAGS:
            with self.subTest(file=name, flag=label):
                self.reset_fresh()
                self.edit(name, lambda doc: holder(doc).pop(key))
                self.assert_fails_on(label)

    def test_false_flag_fails(self):
        for name, label, holder, key in self.FLAGS:
            with self.subTest(file=name, flag=label):
                self.reset_fresh()
                self.edit(name,
                          lambda doc: holder(doc).__setitem__(key, False))
                self.assert_fails_on(label)

    def test_vanished_tracked_row_fails(self):
        self.edit("BENCH_stream.json",
                  lambda doc: doc.__setitem__("rows", doc["rows"][:1]))
        self.assert_fails_on("is missing from the fresh run")

    def test_row_without_its_metric_fails(self):
        self.edit("BENCH_serve.json",
                  lambda doc: doc["warm_vs_cold"][0].pop("ms_warm"))
        self.assert_fails_on("ms_warm is missing from the fresh run")

    def test_vanished_tracked_object_fails(self):
        self.edit("BENCH_serve.json", lambda doc: doc.pop("foreach_decode"))
        self.assert_fails_on("foreach_decode.ms_warm is missing")

    def test_vanished_row_only_warns_on_machine_mismatch(self):
        def drop_rows_and_change_machine(doc):
            doc["warm_vs_cold"] = doc["warm_vs_cold"][:1]
            doc["machine"]["hardware_concurrency"] += 1
        self.edit("BENCH_serve.json", drop_rows_and_change_machine)
        self.assert_passes(expect_in_output="WARN  BENCH_serve.json "
                                            "warm_vs_cold[")

    def test_slower_timing_fails_when_machine_matches(self):
        self.edit("BENCH_serve.json",
                  lambda doc: doc["warm_vs_cold"][0].__setitem__(
                      "ms_warm", doc["warm_vs_cold"][0]["ms_warm"] * 1.5))
        self.assert_fails_on("warm_vs_cold[")

    def test_slower_timing_warns_when_machine_differs(self):
        def slow_down_and_change_machine(doc):
            doc["warm_vs_cold"][0]["ms_warm"] *= 1.5
            doc["machine"]["hardware_concurrency"] += 1
        self.edit("BENCH_serve.json", slow_down_and_change_machine)
        self.assert_passes(expect_in_output="WARN  BENCH_serve.json "
                                            "warm_vs_cold[")

    def test_fwht_below_floor_fails(self):
        def slow_fwht(doc):
            doc["dispatch_path"] = "avx2"
            for row in doc["rows"]:
                if row["kernel"] == "fwht_i64" and row["n"] >= 4096:
                    row["speedup"] = 2.0
        self.edit("BENCH_simd.json", slow_fwht)
        self.assert_fails_on("fwht_i64")

    def test_stream_below_floor_fails(self):
        self.edit("BENCH_stream.json",
                  lambda doc: doc.__setitem__("best_updates_per_sec",
                                              900_000.0))
        self.assert_fails_on("best_updates_per_sec")


if __name__ == "__main__":
    unittest.main()
