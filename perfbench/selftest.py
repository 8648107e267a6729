"""The benchmark's own tests, on its --smoke inputs (about a minute).

    python3 perfbench/selftest.py

Not named test_*.py, so the repository's pytest run does not collect it.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Contract(unittest.TestCase):
    def check_line(self, line, kind):
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()}, expected)

    def test_workloads_untraced(self):
        # smoke rounds: ex1 3 starts, chain 1 start + ramp, CLI 1 start +
        # its repeat + the log-edge run, which fails until it is mended
        for workload, failed_share in (("ex1-multistart", 0), ("chain-stiff", 0),
                                       ("chain-text-cli", 1 / 3)):
            with self.subTest(workload=workload):
                line = smoke(workload, 0)
                self.check_line(line, "end_to_end")
                self.assertEqual(line["failed"] / line["attempted"], failed_share)
                for metric in line["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_workloads_traced(self):
        for workload in ("ex1-multistart", "chain-text-cli"):
            with self.subTest(workload=workload):
                line = smoke(workload, 1)
                self.check_line(line, "per_layer")
                self.assertGreater(line["metrics"]["problems.evaluate.calls"]["value"], 0)

    def test_refuses_without_sources(self):
        bare = HERE / "_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "ex1-multistart", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Tracing(unittest.TestCase):
    def test_self_times_partition_the_root(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(20000)))
        outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
        outer()
        self.assertEqual(tracer.calls["inner"], 3)
        self.assertAlmostEqual(tracer.self_time_total(), tracer.root_s, delta=1e-9)
        ids = {span[0] for span in tracer.spans}
        self.assertTrue(all(span[4] in ids for span in tracer.spans if span[4] != -1))

    def test_absent_name_is_reported(self):
        saved = list(spans.WRAPPED)
        spans.WRAPPED.append(("nlpflow.integrate", "no_such_function", "gone"))
        try:
            with spans.Tracer().installed() as tracer:
                pass
        finally:
            spans.WRAPPED[:] = saved
        self.assertEqual(tracer.absent, ["nlpflow.integrate.no_such_function"])


class Oracles(unittest.TestCase):
    def test_example1_optimum_and_paper_multipliers(self):
        spec = oracle.example1()
        pi, active = oracle.min_norm_multipliers(spec, oracle.EX1_OPTIMUM)
        self.assertEqual(list(active), [oracle.EX1_PAPER_ROW])
        np.testing.assert_allclose(pi, oracle.EX1_PAPER_MULTIPLIERS, atol=1e-9)
        pi_i = np.zeros(5)
        pi_i[oracle.EX1_PAPER_ROW] = pi[2]
        self.assertEqual(oracle.kkt_failures(spec, oracle.EX1_OPTIMUM, pi[:2], pi_i), [])
        self.assertNotEqual(oracle.kkt_failures(spec, oracle.EX1_OPTIMUM + 1e-4,
                                                pi[:2], pi_i), [])

    def test_log_edge_solution(self):
        self.assertEqual(oracle.kkt_failures(oracle.log_edge(), [0.05], [], [20.0]), [])
        self.assertNotEqual(oracle.kkt_failures(oracle.log_edge(), [0.05], [], [19.0]), [])

    def test_chain_ones_is_kkt(self):
        n = 7
        self.assertEqual(oracle.kkt_failures(oracle.chain(), np.ones(n), np.zeros(n - 1),
                                             np.zeros(2 * n)), [])


if __name__ == "__main__":
    unittest.main()
