"""Self-tests of the benchmark, at smoke size.

    python3 bench/test_bench.py

They run bench/run.py through its command line (with --smoke for tiny
inputs) and check the output contract against BENCHMARK.json, that traced
counts repeat exactly, that the rewrite table never reaches the realize
layers, and that the benchmark refuses to run without the confalg sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def result(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


class ContractTest(unittest.TestCase):
    def test_workloads_match_the_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_end_to_end_metrics_and_units(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                res = result(workload, 0)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                units = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(units, expected("end_to_end"))
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_counts_repeat_and_match_the_spec(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = result(workload, 1), result(workload, 1)
                self.assertTrue(first["correct"])  # includes traced == untraced digests
                units = {k: v["unit"] for k, v in first["metrics"].items()}
                self.assertEqual(units, expected("per_layer"))
                for name, m in first["metrics"].items():
                    if m["unit"] in ("count", "ratio"):
                        self.assertEqual(m["value"], second["metrics"][name]["value"], name)

    def test_rewrite_table_bypasses_the_realize_layers(self):
        res = result("table-rewrite", 1)
        self.assertTrue(res["correct"])
        m = {k: v["value"] for k, v in res["metrics"].items()}
        touched = {
            k: v for k, v in m.items()
            if k.startswith(("pseudo.", "ncpoly.", "hopf.")) and not k.endswith("self_s") and v
        }
        self.assertEqual(touched, {})
        self.assertGreater(m["freeconf.cprod_rw.calls"], 0)
        realize = {k: v["value"] for k, v in result("table-realize", 1)["metrics"].items()}
        self.assertGreater(realize["pseudo.pprod.calls"], 0)
        self.assertGreater(realize["hopf.decompose.calls"], 0)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", "cli-requests", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        import spans

        tracer = spans.Tracer()
        inner = tracer.span("ncpoly.mul", lambda: sum(range(20000)))
        outer = tracer.span("pseudo.pprod", lambda: (inner(), inner()))
        outer()
        totals = tracer.layer_totals()
        self.assertEqual(totals["ncpoly.mul"]["calls"], 2)
        self.assertEqual(totals["pseudo.pprod"]["calls"], 1)
        whole = tracer.span_end[0] - tracer.span_start[0]
        covered = totals["ncpoly.mul"]["self_s"] + totals["pseudo.pprod"]["self_s"]
        self.assertAlmostEqual(covered, whole, places=9)
        self.assertEqual(list(tracer.span_parent), [-1, 0, 0])


if __name__ == "__main__":
    unittest.main()
