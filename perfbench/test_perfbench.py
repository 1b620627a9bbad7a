#!/usr/bin/env python3
"""The benchmark's own tests: a smoke size of every workload.

    python3 perfbench/test_perfbench.py

Each test runs perfbench/run.py (which builds first) with --smoke and a
one-second measurement, then checks the result line against
BENCHMARK.json, the correctness checks, the input seeding, and that no
scratch directory or worker process outlives a run, including runs that
fail on purpose.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "scratch")
WORKLOADS = ["cluster_warm", "sketch_cold", "register_restart", "ingest"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def inputs_digest(proc):
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("inputs_digest="):
            return line.split("=", 1)[1]
    raise AssertionError("no inputs_digest line:\n" + proc.stdout)


def leftover_workers():
    found = subprocess.run(["pgrep", "-f", "dcs_server --listen unix:"],
                           capture_output=True, text=True)
    return found.stdout.split()


class PerfbenchTest(unittest.TestCase):
    maxDiff = None

    def assertLeftNothing(self):
        entries = os.listdir(SCRATCH) if os.path.isdir(SCRATCH) else []
        self.assertEqual(entries, [], "scratch directories survived the run")
        self.assertEqual(leftover_workers(), [], "a dcs_server survived")

    def assertMetrics(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_reports_every_metric_with_its_unit(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)
        for workload in WORKLOADS:
            for trace, declared in ((0, spec["end_to_end"]),
                                    (1, spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertIn("perfbench: machine cpu=", proc.stdout)
                    result = result_of(proc)
                    self.assertMetrics(result, declared)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)
                    self.assertLeftNothing()

    def test_two_seeds_make_different_inputs_and_both_pass(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = run(workload, seed=1), run(workload, seed=2)
                self.assertEqual(first.returncode, 0, first.stderr)
                self.assertEqual(second.returncode, 0, second.stderr)
                self.assertNotEqual(inputs_digest(first),
                                    inputs_digest(second))
                self.assertEqual(inputs_digest(first),
                                 inputs_digest(run(workload, seed=1)))

    def test_traced_layers_are_isolated(self):
        metrics = {w: result_of(run(w, trace=1))["metrics"]
                   for w in WORKLOADS}
        value = lambda w, name: metrics[w][name]["value"]
        self.assertGreaterEqual(value("cluster_warm", "cache.hit_ratio"), 0.99)
        self.assertEqual(value("sketch_cold", "cache.hit_ratio"), 0)
        self.assertGreater(value("sketch_cold", "cache.lookups"), 0)
        for workload in ("sketch_cold", "ingest"):
            self.assertEqual(value(workload, "wire.request_bytes"), 0)
            self.assertEqual(value(workload, "wire.response_bytes"), 0)
        self.assertLess(value("cluster_warm", "service.answer_batch_us"),
                        value("cluster_warm", "cluster.rpc_us") / 10)
        self.assertGreater(value("register_restart", "client.reattached"), 0)
        self.assertGreater(value("register_restart", "store.open_ms"), 0)
        self.assertGreater(value("ingest", "agm.add_edge_ns"), 0)

    def test_a_failed_check_prints_no_result_and_cleans_up(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, extra=["--break-check"])
                self.assertEqual(proc.returncode, 1, proc.stdout)
                self.assertIn("correctness check failed", proc.stderr)
                self.assertNotIn('"correct"', proc.stdout)
                self.assertLeftNothing()

    def test_a_failed_spawn_prints_no_result_and_cleans_up(self):
        for workload in ("cluster_warm", "register_restart"):
            with self.subTest(workload=workload):
                proc = run(workload, extra=["--server", "no-such-server"])
                self.assertEqual(proc.returncode, 1, proc.stdout)
                self.assertIn("not executable", proc.stderr)
                self.assertNotIn('"correct"', proc.stdout)
                self.assertLeftNothing()

    def test_without_the_library_sources_the_run_fails(self):
        alone = os.path.join(ROOT, ".bench_build", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("ingest", cwd=alone,
                       script=os.path.join(alone, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
