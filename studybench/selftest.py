"""The benchmark's own tests, on tiny inputs (about a minute).

Run from the repository root::

    python3 studybench/selftest.py

They check that every metric ``BENCHMARK.json`` names is printed with its
unit by each workload, traced and untraced; that a wrong reference digest
is counted as a failure; and that traced self times add up to the traced
wall time, both online and recomputed from the dumped spans.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import load_spans  # noqa: E402

WORKLOAD_NAMES = ("study-cold", "study-warm", "serve-mixed")
WRONG = "0" * 32


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def run_tiny(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def context(trace: bool = False, **wrong: str) -> workloads.Context:
    """A tiny-scale context; ``wrong`` maps a workload to the config
    whose reference is replaced by a wrong digest."""
    ctx = workloads.Context(root=ROOT, seed=5, seconds=1.0, trace=trace,
                            scale=workloads.TINY)
    for key in wrong.values():
        ctx.references[key] = WRONG
    return ctx


class TestMetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in WORKLOAD_NAMES:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run_tiny(workload, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], result)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: metric["unit"]
                             for name, metric in result["metrics"].items()}
                    self.assertEqual(units, declared(kind))
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)


class TestWrongReference(unittest.TestCase):
    def test_cold_digest_mismatch_fails(self):
        key = (7, workloads.TINY.cold_sites, "none", "none")
        outcome = workloads.study_cold(context(cold=key))
        self.assertGreaterEqual(outcome.failed, 1)
        self.assertTrue(any(WRONG in p for p in outcome.problems))

    def test_warm_digest_mismatch_fails(self):
        seed = random.Random(5).choice(workloads.TINY.warm_seeds)
        key = (seed, workloads.TINY.warm_sites, "none", "none")
        outcome = workloads.study_warm(context(warm=key))
        self.assertEqual(outcome.failed, outcome.attempted)

    def test_serve_digest_mismatch_fails(self):
        key = (7, workloads.TINY.serve_sites, "none", "none")
        outcome = workloads.serve_mixed(context(serve=key))
        self.assertGreaterEqual(outcome.failed, 1)
        self.assertTrue(any(WRONG in p for p in outcome.problems))


class TestSelfTimes(unittest.TestCase):
    def test_self_times_add_up_to_wall_time(self):
        ctx = context(trace=True)
        outcome = workloads.study_cold(ctx)
        self.assertEqual(outcome.failed, 0, outcome.problems)
        self_total = outcome.detail["trace.self_s_total"][0]
        roots = outcome.detail["trace.op.study.s"][0]
        wall = outcome.detail["trace.op_s_total"][0]
        self.assertAlmostEqual(self_total, roots, delta=1e-6 * roots)
        self.assertAlmostEqual(roots, wall, delta=0.01 * wall)

        # Recompute self time per span from the dump: duration minus the
        # children's durations (one thread, so children never overlap).
        spans = load_spans(ctx.out / "spans-study-cold")
        children: dict[int, float] = {}
        for parent, start, end in zip(spans["parent"], spans["start"],
                                      spans["end"]):
            children[parent] = children.get(parent, 0.0) + end - start
        recomputed = sum(
            end - start - children.get(span_id, 0.0)
            for span_id, start, end in zip(spans["id"], spans["start"],
                                           spans["end"])
        )
        self.assertAlmostEqual(recomputed, roots, delta=1e-6 * roots)
        self.assertNotIn(0, spans["op"])


if __name__ == "__main__":
    unittest.main()
