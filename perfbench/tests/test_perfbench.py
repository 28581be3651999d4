"""Tests of the benchmark itself.  Run from the root of the checkout:

    python3 -m unittest discover -s perfbench/tests

The end-to-end runs use the ``session`` workload, the cheaper one; the
whole module takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import session  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _traced_cold_pass(seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "library",
         "--seed", str(seed), "--mode", "cold", "--trace"],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


class TracedCounts(unittest.TestCase):
    def test_same_seed_gives_identical_call_counts(self):
        first, second = _traced_cold_pass(5), _traced_cold_pass(5)
        self.assertEqual(first["failures"], [])
        calls = [{name: s["calls"] for name, s in r["trace"]["layers"].items()} for r in (first, second)]
        self.assertEqual(calls[0], calls[1])
        self.assertGreater(calls[0]["bcd.bcd_multiply"], 0)
        self.assertGreater(calls[0]["series.det"], 0)
        # Self times partition the traced time: none negative, and together
        # no more than the pass.
        self_times = [s["self_s"] for s in first["trace"]["layers"].values()]
        self.assertGreaterEqual(min(self_times), 0.0)
        self.assertLessEqual(sum(self_times), first["cold_s"])


class Seeds(unittest.TestCase):
    def test_different_seeds_change_inputs_not_case_count(self):
        builders = {
            "identity": workloads.identity,
            "square": workloads.square,
            "kernel": workloads.kernel,
            "session": session.commands,
        }
        for name, build in builders.items():
            with self.subTest(workload=name):
                labels = {seed: [case.label for case in build(seed)] for seed in (1, 2)}
                self.assertEqual(len(labels[1]), len(labels[2]))
                self.assertNotEqual(labels[1], labels[2])
                self.assertEqual(labels[1], [case.label for case in build(1)])


class Resolution(unittest.TestCase):
    def test_every_named_layer_resolves_and_uninstall_restores(self):
        from stablechar import bcd, embeddings, partitions

        original = bcd.bcd_multiply
        init = partitions.Partition.__init__
        t = tracer.Tracer()
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            t.install()
        try:
            self.assertEqual(t.absent, set())
            self.assertEqual(stderr.getvalue(), "")
            # Names bound by ``from .bcd import bcd_multiply`` are rebound too.
            self.assertIs(embeddings.bcd_multiply, bcd.bcd_multiply)
            self.assertIsNot(bcd.bcd_multiply, original)
        finally:
            t.uninstall()
        self.assertIs(bcd.bcd_multiply, original)
        self.assertIs(embeddings.bcd_multiply, original)
        self.assertIs(partitions.Partition.__init__, init)

    def test_missing_layer_is_absent_with_a_warning(self):
        gone = tracer.Layer("schur.gone", "schur", "_gone", ("calls", "self_s"))
        marked = tracer.Layer("schur.marked", "schur", "skew_expand", ("hit_ratio",), miss_marker="schur.gone")
        with mock.patch.object(tracer, "LAYERS", tracer.LAYERS + (gone, marked)):
            t = tracer.Tracer()
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                t.install()
            t.uninstall()
            values, absent = tracer.metrics([t.raw()])
        expected = {"schur.gone.calls", "schur.gone.self_s", "schur.marked.hit_ratio"}
        self.assertEqual(absent, expected)
        self.assertFalse(expected & set(values))
        self.assertIn("schur._gone not found", stderr.getvalue())

    def test_benchmark_json_names_the_tracer_metrics(self):
        units = {**tracer.metric_units(), **run.EXTRA_LAYER_UNITS}
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, units)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))


class EndToEnd(unittest.TestCase):
    def _result(self, trace: str) -> dict:
        done = _run_bench("--workload", "session", "--seed", "3", "--seconds", "0", "--trace", trace)
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.splitlines()
        info = json.loads(lines[-2])["info"]
        self.assertEqual(info["nproc"], os.cpu_count())
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        return result

    def test_untraced_run_reports_every_end_to_end_metric(self):
        metrics = self._result("0")["metrics"]
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         {name: m["unit"] for name, m in metrics.items()})
        self.assertGreater(metrics["cold_s"]["value"], 0)

    def test_traced_run_reports_every_per_layer_metric(self):
        metrics = self._result("1")["metrics"]
        self.assertEqual({m["name"] for m in SPEC["per_layer"]}, set(metrics))

    def test_fails_without_the_engine_source(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            done = _run_bench("--workload", "session", "--seconds", "1", cwd=Path(bare))
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
