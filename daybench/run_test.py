#!/usr/bin/env python3
"""Tests of run.py's own arithmetic (python3 daybench/run_test.py)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class AuditTaxTest(unittest.TestCase):
    def test_median_of_ratios_over_common_passes(self):
        # The audited build ran two passes, the measured build four: only
        # the two shared days count.
        self.assertAlmostEqual(run.audit_tax([3.0, 8.0], [1.0, 2.0, 9.0, 9.0]),
                               3.5)
        self.assertAlmostEqual(run.audit_tax([6.0, 4.0, 10.0], [2.0, 2.0, 2.0]),
                               3.0)

    def test_no_common_pass_gives_zero(self):
        self.assertEqual(run.audit_tax([], [1.0]), 0.0)


class DeclaredMetricsTest(unittest.TestCase):
    def test_declared_metrics_carry_their_units(self):
        declared = [{"name": "run_s", "unit": "s"},
                    {"name": "setup_s", "unit": "s"}]
        got = run.declared_metrics({"run_s": 1.5, "setup_s": 0.25,
                                    "extra": 7.0}, declared)
        self.assertEqual(got, {"run_s": {"value": 1.5, "unit": "s"},
                               "setup_s": {"value": 0.25, "unit": "s"}})

    def test_missing_metric_raises(self):
        with self.assertRaises(KeyError):
            run.declared_metrics({}, [{"name": "run_s", "unit": "s"}])


if __name__ == "__main__":
    unittest.main()
