#!/usr/bin/env python3
"""End-to-end tests for scripts/bench_compare.py (ctest-invoked, stdlib
unittest — the container has no pytest).

Covers the acceptance matrix of the perf-gate:
  * a byte-identical rerun passes,
  * a synthetic 2x median regression fails (exit 1),
  * jitter below the noise allowance (< 3 x CV) passes,
  * jitter above it fails,
  * a benchmark dropped from the candidate fails,
  * cross-machine comparisons downgrade to advisory (exit 0) unless
    --strict-machine is passed, and so do reports whose audit settings
    differ (a report without the field matches any),
  * malformed reports exit 2.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "bench_compare.py")


def make_report(medians: dict[str, float], cv: float = 0.02,
                cpu: str = "Test CPU", build: str = "Release",
                audit: bool | None = None) -> dict:
    """A minimal vodb-bench-v1 report with the given per-benchmark medians
    (with an "audit" field unless `audit` is None)."""
    benches = []
    for name, median in medians.items():
        benches.append({
            "name": name,
            "iterations": 1024,
            "repetitions": 9,
            "ns_per_iter": {
                "min": median * 0.97,
                "max": median * 1.05,
                "mean": median * 1.01,
                "median": median,
                "stddev": median * cv,
                "cv": cv,
            },
        })
    report = {
        "schema": "vodb-bench-v1",
        "machine": {
            "hostname": "testhost",
            "cpu_model": cpu,
            "core_count": 4,
            "governor": "performance",
        },
        "git_sha": "0" * 40,
        "build_type": build,
        "benchmarks": benches,
    }
    if audit is not None:
        report["audit"] = audit
    return report


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name: str, doc) -> str:
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f, indent=2)
        return path

    def run_compare(self, baseline: str, candidate: str, *extra: str):
        return subprocess.run(
            [sys.executable, SCRIPT, "--baseline", baseline,
             "--candidate", candidate, *extra],
            capture_output=True, text=True, check=False)

    BASE = {"table_lookup": 6.8, "bubbleup_insert": 435.0,
            "run_day_static": 6.07e7}

    def test_identical_rerun_passes(self):
        base = self.write("base.json", make_report(self.BASE))
        # Byte-identical: literally the same content.
        cand = self.write("cand.json", make_report(self.BASE))
        proc = self.run_compare(base, cand)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("no regressions", proc.stderr)

    def test_two_x_regression_fails(self):
        base = self.write("base.json", make_report(self.BASE))
        slowed = dict(self.BASE, table_lookup=self.BASE["table_lookup"] * 2)
        cand = self.write("cand.json", make_report(slowed))
        proc = self.run_compare(base, cand)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("table_lookup", proc.stderr)
        self.assertIn("REGRESSED", proc.stdout)

    def test_sub_noise_jitter_passes(self):
        # cv = 8% => allowance = max(10%, 24%) = 24%; +20% must pass.
        base = self.write("base.json", make_report(self.BASE, cv=0.08))
        jittered = {k: v * 1.20 for k, v in self.BASE.items()}
        cand = self.write("cand.json", make_report(jittered, cv=0.08))
        proc = self.run_compare(base, cand)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_beyond_noise_jitter_fails(self):
        # Same 8% cv but a +30% move exceeds the 24% allowance.
        base = self.write("base.json", make_report(self.BASE, cv=0.08))
        slowed = {k: v * 1.30 for k, v in self.BASE.items()}
        cand = self.write("cand.json", make_report(slowed, cv=0.08))
        proc = self.run_compare(base, cand)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)

    def test_tight_cv_uses_flat_threshold(self):
        # cv = 0.5% => allowance = flat 10%; +12% fails, +8% passes.
        base = self.write("base.json", make_report(self.BASE, cv=0.005))
        cand_bad = self.write(
            "cand_bad.json",
            make_report({k: v * 1.12 for k, v in self.BASE.items()},
                        cv=0.005))
        self.assertEqual(self.run_compare(base, cand_bad).returncode, 1)
        cand_ok = self.write(
            "cand_ok.json",
            make_report({k: v * 1.08 for k, v in self.BASE.items()},
                        cv=0.005))
        self.assertEqual(self.run_compare(base, cand_ok).returncode, 0)

    def test_improvement_passes(self):
        base = self.write("base.json", make_report(self.BASE))
        faster = {k: v * 0.5 for k, v in self.BASE.items()}
        cand = self.write("cand.json", make_report(faster))
        self.assertEqual(self.run_compare(base, cand).returncode, 0)

    def test_missing_benchmark_fails(self):
        base = self.write("base.json", make_report(self.BASE))
        dropped = {k: v for k, v in self.BASE.items() if k != "table_lookup"}
        cand = self.write("cand.json", make_report(dropped))
        proc = self.run_compare(base, cand)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing from", proc.stderr)

    def test_new_benchmark_is_noted_not_failed(self):
        base = self.write("base.json", make_report(self.BASE))
        grown = dict(self.BASE, brand_new=12.0)
        cand = self.write("cand.json", make_report(grown))
        proc = self.run_compare(base, cand)
        self.assertEqual(proc.returncode, 0)
        self.assertIn("new benchmark", proc.stdout)

    def test_cross_machine_regression_is_advisory(self):
        base = self.write("base.json", make_report(self.BASE, cpu="CPU A"))
        slowed = {k: v * 2 for k, v in self.BASE.items()}
        cand = self.write("cand.json", make_report(slowed, cpu="CPU B"))
        proc = self.run_compare(base, cand)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("ADVISORY", proc.stderr)
        # --strict-machine turns the same comparison into a failure.
        strict = self.run_compare(base, cand, "--strict-machine")
        self.assertEqual(strict.returncode, 1)

    def test_build_type_mismatch_is_advisory(self):
        base = self.write("base.json", make_report(self.BASE, build="Release"))
        slowed = {k: v * 2 for k, v in self.BASE.items()}
        cand = self.write("cand.json",
                          make_report(slowed, build="RelWithDebInfo"))
        proc = self.run_compare(base, cand)
        self.assertEqual(proc.returncode, 0)
        self.assertIn("build_type differs", proc.stderr)

    def test_audit_mismatch_is_advisory(self):
        base = self.write("base.json", make_report(self.BASE, audit=True))
        slowed = {k: v * 2 for k, v in self.BASE.items()}
        cand = self.write("cand.json", make_report(slowed, audit=False))
        proc = self.run_compare(base, cand)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("audit differs", proc.stderr)
        self.assertIn("ADVISORY", proc.stderr)
        strict = self.run_compare(base, cand, "--strict-machine")
        self.assertEqual(strict.returncode, 1)

    def test_missing_audit_field_compares_as_before(self):
        # A report without the field (the committed baseline predates it)
        # matches either setting, so a regression against it still gates.
        base = self.write("base.json", make_report(self.BASE))
        slowed = {k: v * 2 for k, v in self.BASE.items()}
        for audit in (True, False):
            cand = self.write("cand.json", make_report(slowed, audit=audit))
            proc = self.run_compare(base, cand)
            self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
            self.assertNotIn("audit differs", proc.stderr)
            self.assertNotIn("ADVISORY", proc.stderr)

    def test_malformed_reports_exit_2(self):
        good = self.write("good.json", make_report(self.BASE))
        not_json = self.write("bad.json", "{not json")
        self.assertEqual(self.run_compare(good, not_json).returncode, 2)
        wrong_schema = self.write(
            "wrong.json", dict(make_report(self.BASE), schema="v999"))
        self.assertEqual(self.run_compare(wrong_schema, good).returncode, 2)
        no_benches = copy.deepcopy(make_report(self.BASE))
        del no_benches["benchmarks"]
        missing = self.write("missing.json", no_benches)
        self.assertEqual(self.run_compare(missing, good).returncode, 2)

    def test_committed_baseline_is_loadable_and_self_compares_clean(self):
        """The repo's committed baseline must parse and pass against
        itself — guards against hand-edits corrupting the anchor."""
        baseline = os.path.join(REPO_ROOT, "bench", "baselines",
                                "BENCH_baseline.json")
        self.assertTrue(os.path.exists(baseline),
                        "bench/baselines/BENCH_baseline.json not committed")
        proc = self.run_compare(baseline, baseline)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
