#!/usr/bin/env python3
"""Self-test for tools/lint_invariants.py.

Runs the linter against tests/lint_fixtures/ (a mini repo tree with one
seeded violation per rule plus non-violations in sanctioned dirs) and
asserts:
  * every seeded violation is flagged at the right file:line,
  * sanctioned-dir twins and commented-out patterns are NOT flagged,
  * a waiver entry suppresses exactly one finding,
  * stale and ambiguous waivers fail the run,
  * --json output round-trips.
Registered with ctest as lint_invariants_selftest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINTER = os.path.join(REPO_ROOT, "tools", "lint_invariants.py")
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")

EXPECTED = [
    ("no-raw-threads", "src/core/uses_thread.cc"),
    ("scoped-cache-stats", "src/eval/stats_diff.cc"),
    ("rng-discipline", "src/core/uses_rand.cc"),  # srand(7)
    ("rng-discipline", "src/core/uses_rand.cc"),  # rand() x2
    ("rng-discipline", "src/core/uses_rand.cc"),
    ("rng-discipline", "src/core/uses_rand.cc"),  # std::random_device
    ("baseline-layering", "bench/uses_baseline.cc"),
    ("gemm-reference", "src/core/uses_gemm_ref.cc"),
    ("nolint-reason", "src/core/bad_nolint.cc"),
    ("no-hot-path-logging", "src/linalg/hot_log.cc"),
    ("no-hot-path-logging", "src/serve/batcher.cc"),
    ("obs-no-serve-include", "src/obs/includes_serve.cc"),
    ("release-path-csr-features", "src/core/reads_dense_features.cc"),
]


def run_linter(*extra_args, waivers="/nonexistent-waivers.json"):
    cmd = [sys.executable, LINTER, "--root", FIXTURES,
           "--waivers", waivers, *extra_args]
    return subprocess.run(cmd, capture_output=True, text=True, check=False)


def write_waivers(entries):
    f = tempfile.NamedTemporaryFile(
        mode="w", suffix=".json", delete=False, encoding="utf-8")
    json.dump({"waivers": entries}, f)
    f.close()
    return f.name


class LintInvariantsTest(unittest.TestCase):
    def findings(self, waivers="/nonexistent-waivers.json"):
        proc = run_linter("--json", waivers=waivers)
        payload = json.loads(proc.stdout)
        return proc, payload

    def test_flags_every_seeded_violation(self):
        proc, payload = self.findings()
        self.assertEqual(proc.returncode, 1)
        got = sorted((f["rule"], f["file"]) for f in payload["findings"])
        self.assertEqual(got, sorted(EXPECTED))

    def test_sanctioned_dirs_and_comments_not_flagged(self):
        _, payload = self.findings()
        files = {f["file"] for f in payload["findings"]}
        self.assertNotIn("src/serve/ok_thread.cc", files)
        # stats_diff.cc seeds one live violation and one commented-out copy.
        stats_hits = [f for f in payload["findings"]
                      if f["rule"] == "scoped-cache-stats"]
        self.assertEqual(len(stats_hits), 1)
        # The strand() decoy must not count as rand().
        rand_hits = [f for f in payload["findings"]
                     if f["rule"] == "rng-discipline"]
        self.assertEqual(len(rand_hits), 4)
        for f in rand_hits:
            self.assertNotIn("decoy", f["text"])
        # no-hot-path-logging applies ONLY to the batcher and src/linalg/:
        # the cold-path GCON_LOG fixture and batcher.cc's commented-out
        # copy must not count.
        hot_log_hits = [f for f in payload["findings"]
                        if f["rule"] == "no-hot-path-logging"]
        self.assertEqual(len(hot_log_hits), 2)
        self.assertNotIn("src/core/cold_log.cc", files)
        # obs-no-serve-include: the live serve/ include only — not the
        # obs/ include beside it, nor the commented-out copy.
        layering_hits = [f for f in payload["findings"]
                         if f["rule"] == "obs-no-serve-include"]
        self.assertEqual(len(layering_hits), 1)
        self.assertIn("serve/batcher.h", layering_hits[0]["text"])
        # release-path-csr-features: the live dense call only — not the
        # CSR read, the commented-out copy, or a `features` data member.
        dense_hits = [f for f in payload["findings"]
                      if f["rule"] == "release-path-csr-features"]
        self.assertEqual(len(dense_hits), 1)
        self.assertIn("graph.features()", dense_hits[0]["text"])

    def test_waiver_suppresses_exactly_one_finding(self):
        waivers = write_waivers([{
            "rule": "no-raw-threads",
            "file": "src/core/uses_thread.cc",
            "contains": "std::thread worker",
            "reason": "fixture: prove one waiver removes one finding",
        }])
        try:
            proc, payload = self.findings(waivers=waivers)
            self.assertEqual(proc.returncode, 1)  # others remain
            self.assertEqual(payload["waiver_errors"], [])
            got = sorted((f["rule"], f["file"]) for f in payload["findings"])
            expected = sorted(EXPECTED)
            expected.remove(("no-raw-threads", "src/core/uses_thread.cc"))
            self.assertEqual(got, expected)
        finally:
            os.unlink(waivers)

    def test_waiving_everything_is_clean(self):
        entries = [
            {"rule": "no-raw-threads", "file": "src/core/uses_thread.cc",
             "contains": "std::thread worker", "reason": "fixture"},
            {"rule": "scoped-cache-stats", "file": "src/eval/stats_diff.cc",
             "contains": "before", "reason": "fixture"},
            {"rule": "rng-discipline", "file": "src/core/uses_rand.cc",
             "contains": "srand(7)", "reason": "fixture"},
            {"rule": "rng-discipline", "file": "src/core/uses_rand.cc",
             "contains": "int a = rand()", "reason": "fixture"},
            {"rule": "rng-discipline", "file": "src/core/uses_rand.cc",
             "contains": "int b = rand()", "reason": "fixture"},
            {"rule": "rng-discipline", "file": "src/core/uses_rand.cc",
             "contains": "std::random_device", "reason": "fixture"},
            {"rule": "baseline-layering", "file": "bench/uses_baseline.cc",
             "contains": "baselines/gcn.h", "reason": "fixture"},
            {"rule": "gemm-reference", "file": "src/core/uses_gemm_ref.cc",
             "contains": "GemmReference(a, b, c, n)", "reason": "fixture"},
            {"rule": "nolint-reason", "file": "src/core/bad_nolint.cc",
             "contains": "return x + 1;", "reason": "fixture"},
            {"rule": "no-hot-path-logging", "file": "src/linalg/hot_log.cc",
             "contains": "fringe tile", "reason": "fixture"},
            {"rule": "no-hot-path-logging", "file": "src/serve/batcher.cc",
             "contains": "dispatching batch", "reason": "fixture"},
            {"rule": "obs-no-serve-include",
             "file": "src/obs/includes_serve.cc",
             "contains": "serve/batcher.h", "reason": "fixture"},
            {"rule": "release-path-csr-features",
             "file": "src/core/reads_dense_features.cc",
             "contains": "graph.features()", "reason": "fixture"},
        ]
        waivers = write_waivers(entries)
        try:
            proc, payload = self.findings(waivers=waivers)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertEqual(payload["findings"], [])
            self.assertEqual(payload["waiver_errors"], [])
        finally:
            os.unlink(waivers)

    def test_stale_waiver_fails(self):
        waivers = write_waivers([{
            "rule": "no-raw-threads",
            "file": "src/core/uses_thread.cc",
            "contains": "this-line-does-not-exist",
            "reason": "fixture",
        }])
        try:
            proc, payload = self.findings(waivers=waivers)
            self.assertEqual(proc.returncode, 1)
            self.assertEqual(len(payload["waiver_errors"]), 1)
            self.assertIn("stale waiver", payload["waiver_errors"][0])
        finally:
            os.unlink(waivers)

    def test_ambiguous_waiver_fails(self):
        # "rand()" appears on two seeded lines; the waiver must refuse to
        # silently pick one.
        waivers = write_waivers([{
            "rule": "rng-discipline",
            "file": "src/core/uses_rand.cc",
            "contains": "rand()",
            "reason": "fixture",
        }])
        try:
            proc, payload = self.findings(waivers=waivers)
            self.assertEqual(proc.returncode, 1)
            self.assertTrue(any("ambiguous waiver" in e
                                for e in payload["waiver_errors"]),
                            payload["waiver_errors"])
        finally:
            os.unlink(waivers)

    def test_waiver_without_reason_is_config_error(self):
        waivers = write_waivers([{
            "rule": "no-raw-threads",
            "file": "src/core/uses_thread.cc",
            "contains": "std::thread worker",
            "reason": "  ",
        }])
        try:
            proc = run_linter(waivers=waivers)
            self.assertEqual(proc.returncode, 2)
            self.assertIn("reason", proc.stderr)
        finally:
            os.unlink(waivers)

    def test_real_repo_is_clean(self):
        proc = subprocess.run(
            [sys.executable, LINTER], capture_output=True, text=True,
            check=False)
        self.assertEqual(proc.returncode, 0,
                         f"stdout={proc.stdout}\nstderr={proc.stderr}")


if __name__ == "__main__":
    unittest.main()
