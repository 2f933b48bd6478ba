"""Tests of the benchmark itself (not of the package).

Run from the repository root::

    python3 -m pytest -q bench        # or: python3 -m unittest discover -s bench

Each workload is run at its smallest size (one round) untraced and traced,
and every metric named in BENCHMARK.json must appear with its unit. The
checker must also be able to fail: a deliberately wrong expectation has to
raise the failed ratio and make the run's outputs count as incorrect. The
package defects the workloads avoid are kept visible as expected failures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import SUPPORT_RTOL, WORKLOADS, Request, Workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(workload: str, trace: int) -> dict:
    """One run of at most one round per pass; returns the last-line result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.01",
                         "--trace", str(trace)])
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue().strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):

    def check(self, result: dict, declared: list) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = _run(workload, 0)
                self.check(result, SPEC["end_to_end"])
                for name in ("requests_per_s", "latency_p50_ms", "setup_s"):
                    self.assertGreater(result["metrics"][name]["value"], 0.0)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(_run(workload, 1), SPEC["per_layer"])


class CheckerCanFail(unittest.TestCase):

    def setUp(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=run.OUT_DIR)
        self.addCleanup(shutil.rmtree, self.workdir)
        sys.path.insert(0, run.SRC)
        self.cli = run._import_package()

    def test_wrong_expectation_raises_failed_ratio(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                requests = Workload(workload, 3, self.workdir).round(0)
                honest = run.summarize([run.issue(self.cli, r) for r in requests], len(requests))
                # Expect the exit code of the opposite verdict for one request.
                victim = next(r for r in requests if r.expect.code in (0, 2))
                wrong = dataclasses.replace(victim, expect=dataclasses.replace(
                    victim.expect, code=2 - victim.expect.code))
                outcome = run.issue(self.cli, wrong)
                self.assertIsNotNone(outcome.problem)
                lying = run.summarize([run.issue(self.cli, r) for r in requests
                                       if r is not victim] + [outcome], len(requests))
                self.assertEqual(honest["failed"], 0)
                self.assertGreater(lying["failed_ratio"], honest["failed_ratio"])
                self.assertFalse(run._result(lying, {})["correct"])

    def test_wrong_value_is_caught(self):
        grid = oracle.uniform_grid(-2.0, 3.0, 16)
        argv = ["certify", "--method", "theoremA", "--system", "poly:3",
                "--f", "monomial:3", "--grid", "-2.0:3.0:16", "--format", "structured"]
        # x^4 instead of x^3: same verdict, different minimum.
        wrong = oracle.theorem_a(grid, grid, 3, 5000,
                                 lambda t: 2.0 * float(oracle.vandermonde(t)),
                                 "structured", True)
        request = Request(0, "wrong minimum", tuple(argv), "structured", wrong)
        outcome = run.issue(self.cli, request)
        self.assertIn("min_value", outcome.problem or "")


class KnownDefects(unittest.TestCase):
    """Two package defects the workloads are built to avoid, so that no
    request fails. Each test asserts the correct answer and is expected to
    fail until the defect is fixed."""

    def setUp(self):
        sys.path.insert(0, run.SRC)
        self.cli = run._import_package()

    def main(self, argv: list) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.cli.main(argv, out)
        return code, out.getvalue(), err.getvalue()

    ZERO_TEST = ["classify", "--system", "poly:5", "--grid", "-2.0:3.0:80",
                 "--budget", "2000", "--seed", "1", "--format", "structured"]

    @unittest.expectedFailure
    def test_zero_test_calls_a_fine_vandermonde_grid_singular(self):
        code, text, _ = self.main(self.ZERO_TEST)
        self.assertEqual(code, 0)
        self.assertEqual(json.loads(text)["classification"]["verdict"], "positive")

    def test_workloads_refuse_the_zero_test_region(self):
        grid = oracle.uniform_grid(-2.0, 3.0, 80)
        with self.assertRaises(ValueError):
            oracle.classify_positive(grid, grid, 5, 2000, "positive")

    def support(self, *extra: str) -> list:
        return ["support", "--system", "poly:3", "--interval", "-2.0:3.0",
                "--f", "monomial:3", "--knots", "-0.011,0.84",
                "--grid", "-1.9:2.9:200", "--format", "structured", *extra]

    @unittest.expectedFailure
    def test_limit_estimate_converges_at_the_default_tolerance(self):
        code, _, err = self.main(self.support())
        self.assertEqual(code, 0, err)

    def test_limit_estimate_converges_at_the_workload_tolerance(self):
        grid = oracle.uniform_grid(-1.9, 2.9, 200)
        expect = oracle.support_monomial(grid, 3, [-0.011, 0.84], "structured")
        code, text, err = self.main(self.support("--rtol", SUPPORT_RTOL))
        self.assertIsNone(oracle.judge(expect, "structured", code, text, err))


class Independence(unittest.TestCase):

    def test_oracle_never_imports_the_package(self):
        code = ("import sys; sys.path.insert(0, %r); import oracle, workloads; "
                "print(any(m.startswith('chebconvex') for m in sys.modules))" % BENCH_DIR)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60)
        self.assertEqual(out.stdout.strip(), "False")

    def test_refuses_without_the_package(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "pointwise", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
