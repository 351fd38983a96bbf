"""Tests of the benchmark's own machinery: the percentile helper, the steal
adjustment, the one-shot failure accounting, the output check, and the
CPU/RSS readers.

    python3 -m unittest discover -s perfbench/tests

The output-check tests build granii-perfbench and granii-cli into
.bench_build/ on first use, like run.py does.
"""

import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_refuses_tail_with_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(run.BenchError):
            run.percentile([float(i) for i in range(99)], 0.9)
        with self.assertRaises(run.BenchError):
            run.percentile([float(i) for i in range(19)], 0.5)

    def test_matches_statistics_quantiles_when_the_tail_is_full(self):
        samples = [float((i * 37) % 101) for i in range(100)]
        expected = statistics.quantiles(samples, n=10, method="exclusive")[8]
        self.assertAlmostEqual(run.percentile(samples, 0.9), expected)
        self.assertEqual(run.percentile(samples, 0.5), statistics.median(samples))


class StealAdjustmentTest(unittest.TestCase):
    def test_removes_the_delay_steal_explains(self):
        stolen = [float(10 * (i % 13)) for i in range(100)]
        wall = [300.0 + (i % 7) + 0.5 * s for i, s in enumerate(stolen)]
        adjusted, slope = run.steal_adjusted(wall, stolen)
        self.assertAlmostEqual(slope, 0.5, places=6)
        self.assertAlmostEqual(statistics.median(adjusted), 303.0)

    def test_unrelated_steal_and_quiet_runs_leave_samples_as_measured(self):
        stolen = [0.0] * 50 + [10.0] * 50
        wall = [400.0 - 30.0 * (s > 0) for s in stolen]  # noise, not steal
        adjusted, slope = run.steal_adjusted(wall, stolen)
        self.assertEqual(slope, 0.0)
        self.assertEqual(adjusted, wall)
        self.assertEqual(run.steal_adjusted([5.0, 6.0], [0.0, 0.0])[0], [5.0, 6.0])

    def test_slope_is_at_most_one(self):
        stolen = [float(10 * (i % 5)) for i in range(100)]
        wall = [300.0 + 2.0 * s for s in stolen]
        self.assertEqual(run.steal_slope(wall, stolen), 1.0)


class FailureAccountingTest(unittest.TestCase):
    def test_every_run_of_a_wrong_configuration_fails(self):
        runs = [(0, "a"), (1, "b"), (0, "a"), (1, "b")]
        failed, differs = run.count_failures(runs, {0: "a", 1: "b"}, {1})
        self.assertEqual((failed, differs), (2, 0))

    def test_changed_bytes_and_missing_outputs_fail(self):
        runs = [(0, "a"), (0, "x"), (0, None)]
        failed, differs = run.count_failures(runs, {0: "a"}, set())
        self.assertEqual((failed, differs), (2, 1))


class ResourceReaderTest(unittest.TestCase):
    def setUp(self):
        self.dir = os.path.join(run.BUILD, "tests", "readers-%d" % os.getpid())
        os.makedirs(self.dir, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def test_cpu_and_rss_include_child_processes(self):
        # The shell runs python as its own child and waits for it, so the
        # work happens two levels below the reader.
        burn = ("import time; b = bytearray(160 << 20); b[::4096] = b'x' * len(b[::4096]); "
                "t = time.process_time()\nwhile time.process_time() - t < 0.3: pass")
        argv = ["bash", "-c", 'python3 -c "$0"; true', burn]
        code, wall, cpu, rss_kb = run.spawn_and_wait(
            argv, dict(os.environ), self.dir,
            os.path.join(self.dir, "out"), os.path.join(self.dir, "err"))
        self.assertEqual(code, 0)
        self.assertGreaterEqual(cpu, 0.25)
        self.assertGreaterEqual(wall, 0.25)
        self.assertGreaterEqual(rss_kb, 150 << 10)


class OutputCheckTest(unittest.TestCase):
    """An injected wrong output row counts as a failure."""

    @classmethod
    def setUpClass(cls):
        cls.bench, cls.cli = run.ensure_built()
        cls.dir = os.path.join(run.BUILD, "tests", "check-%d" % os.getpid())
        os.makedirs(cls.dir, exist_ok=True)
        run.run_json([cls.bench, "generate", "--kind", "rmat", "--nodes", "2000",
                      "--edges", "16000", "--seed", "5", "--out", cls.dir],
                     cls.dir, "generate")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def check(self, model, inject):
        out = os.path.join(self.dir, model + ".bin")
        argv = run.cli_argv(self.cli, (model, self.dir, 32, 16), out)
        code, _, _, _ = run.spawn_and_wait(argv, run.child_env(self.dir), self.dir,
                                           os.path.join(self.dir, "cli.out"),
                                           os.path.join(self.dir, "cli.err"))
        self.assertEqual(code, 0)
        manifest = os.path.join(self.dir, "manifest.txt")
        with open(manifest, "w") as f:
            f.write("%s %s 32 16 %d %s\n" % (os.path.join(run.MODELS, model + ".gnn"),
                                             self.dir, run.CLI_PARAM_SEED, out))
        argv = [self.bench, "check", "--manifest", manifest]
        result, _ = run.run_json(argv + (["--inject-fault"] if inject else []),
                                 self.dir, "check")
        return result

    def test_correct_outputs_pass(self):
        for model in ("gcn", "gat", "gin", "sage", "sgc", "tagcn"):
            result = self.check(model, inject=False)
            self.assertEqual((result["checked"], result["failed"]), (1, 0), model)

    def test_one_percent_error_in_one_row_is_a_failure(self):
        # The injected fault moves one entry of one checked row by 1% of
        # that row's scale; the check measures errors against the same scale.
        for model in ("sage", "sgc"):
            result = self.check(model, inject=True)
            self.assertEqual((result["checked"], result["failed"]), (1, 1), model)
            self.assertEqual(result["failed_lines"], [0])
            self.assertAlmostEqual(result["max_error"], 0.01, delta=1e-3)


class InjectedFaultEndToEndTest(unittest.TestCase):
    """A wrong output row in a timed workload fails the run: the result line
    reads "correct": false with the failure counted, and the exit status is
    1. Runs gat-train-warm, the cheapest warm workload (about 30 s)."""

    def test_warm_workload_reports_the_failure(self):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", "gat-train-warm", "--seed", "3",
                             "--inject-fault"])
        result = json.loads(stdout.getvalue().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], run.REQUESTS)


if __name__ == "__main__":
    unittest.main()
