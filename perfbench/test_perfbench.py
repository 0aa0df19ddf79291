#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py (which builds the benchmark on first use)
with short runs:
  - the same seed gives the same inputs and the same exact counts;
  - a different seed changes the inputs;
  - a deliberately broken backend shows up as failed ops that were still
    attempted and measured, not as missing samples.
"""

import json
import os
import re
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
ROOT = os.path.dirname(os.path.dirname(RUN))
WORKLOADS = ["agent-http", "durable-writes", "align-loop"]


def bench(workload, seed, *extra, seconds=2, trace=0):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output (exit {proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    notes = [line for line in lines[:-1] if line.startswith("note: ")]
    return proc.returncode, result, notes


def digest(notes):
    for line in notes:
        m = re.match(r"note: inputs digest: (\d+)$", line)
        if m:
            return m.group(1)
    raise AssertionError(f"no inputs digest in {notes}")


def counts(result, prefix):
    return {k: v["value"] for k, v in result["metrics"].items() if k.startswith(prefix)}


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first, notes_a = bench(workload, 7, "--inputs-only")
                _, second, notes_b = bench(workload, 7, "--inputs-only")
                self.assertEqual(digest(notes_a), digest(notes_b))
                self.assertEqual(first["metrics"], second["metrics"])

    def test_different_seed_changes_inputs(self):
        # align-loop's input is a constant by design (README.md), so that its
        # digest and counts compare across seeds.
        for workload in ["agent-http", "durable-writes"]:
            with self.subTest(workload=workload):
                _, _, notes_a = bench(workload, 7, "--inputs-only")
                _, _, notes_b = bench(workload, 8, "--inputs-only")
                self.assertNotEqual(digest(notes_a), digest(notes_b))

    def test_exact_counts_repeat(self):
        for workload, prefix in [("align-loop", "align."),
                                 ("durable-writes", "persist.recovered_records")]:
            with self.subTest(workload=workload):
                code_a, first, _ = bench(workload, 3, trace=1)
                code_b, second, _ = bench(workload, 4, trace=1)
                self.assertEqual((code_a, code_b), (0, 0))
                exact = {k: v for k, v in counts(first, prefix).items()
                         if not k.endswith(("_ms", "_per_s"))}
                self.assertTrue(exact)
                self.assertEqual(exact, {k: counts(second, prefix)[k] for k in exact})


class BrokenBackendTest(unittest.TestCase):
    def test_failures_are_counted_ops(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, notes = bench(workload, 5, "--break-backend")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLessEqual(result["failed"], result["attempted"])
                # Every attempted op, failed or not, has its latency sample.
                measured = [int(m.group(1)) for line in notes
                            for m in [re.search(r"untraced (?:ops|loops): (\d+)", line)] if m]
                self.assertEqual(measured, [result["attempted"]])

    def test_healthy_run_is_correct(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _ = bench(workload, 5)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
