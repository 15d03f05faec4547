#!/usr/bin/env python3
"""Regression tests for scripts/ember_lint.py.

Runs the linter against fixture files with known violations and asserts
the exact (line, rule) findings, the clean fixture stays clean, the
whole src/ tree lints clean, and exit codes behave. Registered in ctest
as EmberLint.SelfTest / EmberLint.SrcClean.
"""

import re
import subprocess
import sys
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
LINT = REPO / "scripts" / "ember_lint.py"
FIXTURES = REPO / "tests" / "lint" / "fixtures"

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[a-z-]+)\]")


def run_lint(*paths):
    proc = subprocess.run(
        [sys.executable, str(LINT), *map(str, paths)],
        capture_output=True, text=True, cwd=REPO, check=False)
    findings = []
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.append((int(m.group("line")), m.group("rule")))
    return proc.returncode, findings


class EmberLintSelfTest(unittest.TestCase):
    def test_violations_fixture_reports_every_rule(self):
        rc, findings = run_lint(FIXTURES / "violations.cpp")
        self.assertEqual(rc, 1)
        expected = [
            (18, "naked-new"),
            (20, "naked-delete"),
            (25, "atomic-memory-order"),
            (26, "atomic-memory-order"),
            (36, "neighbor-span-index"),
            (38, "neighbor-span-index"),
            (48, "obs-span-early-return"),
            (56, "timer-switch-exhaustive"),
            (64, "timer-switch-exhaustive"),
            (81, "obs-span-early-return"),
        ]
        self.assertEqual(findings, expected)

    def test_backend_include_fixture_reports_private_headers(self):
        rc, findings = run_lint(FIXTURES / "backend_include.cpp")
        self.assertEqual(rc, 1)
        self.assertEqual(findings, [(4, "comm-backend-include"),
                                    (5, "comm-backend-include")])

    def test_intrinsics_include_fixture_reports_confined_headers(self):
        rc, findings = run_lint(FIXTURES / "intrinsics_include.cpp")
        self.assertEqual(rc, 1)
        self.assertEqual(findings, [(5, "simd-intrinsics-include"),
                                    (6, "simd-intrinsics-include"),
                                    (7, "simd-intrinsics-include")])

    def test_steploop_io_fixture_reports_blocking_output(self):
        rc, findings = run_lint(FIXTURES / "steploop_io.cpp")
        self.assertEqual(rc, 1)
        self.assertEqual(findings, [(29, "blocking-io-in-steploop"),
                                    (31, "blocking-io-in-steploop"),
                                    (34, "blocking-io-in-steploop"),
                                    (36, "blocking-io-in-steploop")])

    def test_intrinsics_include_allowed_inside_snap_simd(self):
        # The rule keys off the path: the real per-ISA TUs include
        # immintrin.h and must stay clean.
        rc, findings = run_lint(REPO / "src" / "snap" / "simd")
        self.assertEqual((rc, findings), (0, []))

    def test_every_rule_has_fixture_coverage(self):
        _, findings = run_lint(FIXTURES / "violations.cpp",
                               FIXTURES / "bare_allow.cpp",
                               FIXTURES / "backend_include.cpp",
                               FIXTURES / "intrinsics_include.cpp",
                               FIXTURES / "steploop_io.cpp")
        covered = {rule for _, rule in findings}
        listed = subprocess.run(
            [sys.executable, str(LINT), "--list-rules"],
            capture_output=True, text=True, cwd=REPO, check=True).stdout
        all_rules = {line.split()[0] for line in listed.splitlines() if line}
        self.assertEqual(covered, all_rules)

    def test_clean_fixture_is_clean(self):
        rc, findings = run_lint(FIXTURES / "clean.cpp")
        self.assertEqual((rc, findings), (0, []))

    def test_allow_without_reason_is_reported(self):
        rc, findings = run_lint(FIXTURES / "bare_allow.cpp")
        self.assertEqual(rc, 1)
        self.assertEqual(findings, [(6, "naked-new")])

    def test_src_tree_is_clean(self):
        rc, findings = run_lint(REPO / "src")
        self.assertEqual(findings, [])
        self.assertEqual(rc, 0)

    def test_unknown_path_exits_2(self):
        rc, _ = run_lint(REPO / "no" / "such" / "dir")
        self.assertEqual(rc, 2)


if __name__ == "__main__":
    unittest.main()
