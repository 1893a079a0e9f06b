"""Self-tests of the benchmark's output checks and tracer.

    python3 benchmarks/selftest.py      (from the repository root)
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import tracer  # noqa: E402
from workloads import WORKLOADS, i1_drift_max, job_failure  # noqa: E402

MULTIVORTEX = WORKLOADS["euler-multivortex"]
MONITOR = WORKLOADS["euler-gaussian-monitor"]
LIE = WORKLOADS["lie-cohomology-so4"]
CARTAN = WORKLOADS["cartan-su2"]


def euler_result(**drifts):
    report = {"I0": "1e-16", "I2": "1e-13", "I1_0": "1e-6", "I1_1": "2e-6", "I1_2": "3e-7"}
    report.update(drifts)
    return {"rc": 0, "stdout": json.dumps(report) + "\n"}


class CheckTests(unittest.TestCase):
    def test_good_outputs_pass(self):
        self.assertIsNone(job_failure(MULTIVORTEX, {"curves": 3}, 0, euler_result()))
        lie = {"rc": 0, "stdout": json.dumps({"dims": [2, 0, 0, 4, 0, 0, 2]})}
        self.assertIsNone(job_failure(LIE, {}, 0, lie))
        cartan = {"rc": 0, "stdout": json.dumps({"norm_drift": 5e-15, "oracle_deviation": 5e-14})}
        self.assertIsNone(job_failure(CARTAN, {}, 0, cartan))

    def test_wrong_cohomology_vector_fails(self):
        lie = {"rc": 0, "stdout": json.dumps({"dims": [2, 0, 0, 3, 0, 0, 2]})}
        self.assertIn("cohomology dims", job_failure(LIE, {}, 0, lie))

    def test_i1_drift_above_bound_fails(self):
        result = euler_result(I1_1="1.5e-4")
        self.assertIn("I1_1 drift", job_failure(MULTIVORTEX, {"curves": 3}, 0, result))
        self.assertEqual(i1_drift_max(result), 1.5e-4)

    def test_nonzero_exit_fails(self):
        self.assertIn("job process exited", job_failure(MULTIVORTEX, {"curves": 3}, 1, None))
        result = dict(euler_result(), rc=2)
        self.assertIn("spencerflow exited", job_failure(MULTIVORTEX, {"curves": 3}, 0, result))

    def test_cartan_oracle_deviation_above_bound_fails(self):
        cartan = {"rc": 0, "stdout": json.dumps({"norm_drift": 5e-15, "oracle_deviation": 2e-9})}
        self.assertIn("oracle_deviation", job_failure(CARTAN, {}, 0, cartan))

    def test_monitor_report_mismatch_fails(self):
        result = euler_result()
        result["after"] = [{"rc": 0, "stdout": euler_result(I2="2e-13")["stdout"]}]
        self.assertIn("report --csv", job_failure(MONITOR, {"curves": 3}, 0, result))


class TracerTests(unittest.TestCase):
    def test_self_time_excludes_children(self):
        doc = {"spans": [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 6.0, 0]],
               "counts": {}, "fft": [], "distinct": {}, "absent": []}
        p = tracer.Profile(doc)
        self.assertEqual(p.self_s["a"], 6.0)
        self.assertEqual(p.incl["a"], 10.0)

    def test_missing_target_is_absent_not_a_crash(self):
        named = tracer.NAMED
        tracer.NAMED = named + (("euler2d", "_no_such_kernel"),)
        t = tracer.Tracer()
        try:
            t.install()
        finally:
            t.uninstall()
            tracer.NAMED = named
        self.assertIn("euler2d._no_such_kernel", t.absent)
        empty = {"spans": [], "counts": {}, "fft": [], "distinct": {}, "absent": t.absent}
        metrics = tracer.layer_metrics(tracer.Profile(empty), 1.0, None)
        self.assertTrue(all(v == 0 for v in metrics.values()))

    def test_nested_calls_and_ffts_are_caught(self):
        from spencerflow import euler2d

        grid = euler2d.GridSpec(16)
        zeta = euler2d.gaussian_vorticity(grid, [(3.0, 3.0)], [1.0], [0.5])
        original = euler2d.rk4_step
        t = tracer.Tracer()
        t.install()
        try:
            euler2d.rk4_step(zeta, 1e-3)
        finally:
            t.uninstall()
        spans = t.document()["spans"]
        top = [i for i, s in enumerate(spans) if s[0] == "euler2d.rk4_step"]
        self.assertEqual(len(top), 1)
        self.assertTrue(any(s[3] == top[0] and s[0].startswith("euler2d.") for s in spans))
        fft_spans = sum(1 for s in spans if s[0].startswith("numpy.fft."))
        self.assertGreater(fft_spans, 0)
        self.assertEqual(sum(row[2] for row in t.document()["fft"]), fft_spans)
        self.assertIs(euler2d.rk4_step, original)


if __name__ == "__main__":
    unittest.main()
