"""Tests of the benchmark itself.

Each check accepts the program's real output and rejects a perturbed copy;
the reference reproduces the package's independent constants; the tracer
derives self times from spans and reports a removed function as absent; and
every workload completes a minimal run.  Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layertrace  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORK = HERE / ".work" / "selftest"


def setUpModule() -> None:
    WORK.mkdir(parents=True, exist_ok=True)


def tearDownModule() -> None:
    shutil.rmtree(WORK, ignore_errors=True)


def build(name: str, seed: int = 7):
    return run.setup(name, seed, WORK / name)[1]


class ReferenceTest(unittest.TestCase):
    def test_normalized_floors_of_the_presets(self):
        for name, level in (("fig2-solid", 0.316228), ("fig2-dashed", 0.374166), ("fig2-dotted", 0.316228)):
            p = workloads.PRESETS[name]
            self.assertAlmostEqual(ref.dphi_min(p) / ref.snl(p), level, delta=1e-6)

    def test_sum_and_difference_moments_agree_with_the_detector_moments(self):
        p = ref.Params.with_excess(3.0, r1=0.7, r2=0.4, mu=0.9, eta=0.8, n_photons=1e5)
        for phi in (0.3, 1.7, 4.0):
            m = ref.moments(p, phi)
            self.assertTrue(checks.close(m["var_nplus"], m["var_n1"] + m["var_n2"] + 2 * m["cov_n1n2"], 1e-12))
            self.assertTrue(checks.close(m["var_nminus"], m["var_n1"] + m["var_n2"] - 2 * m["cov_n1n2"], 1e-12))
            self.assertTrue(checks.close(m["cov_npm"], m["var_n1"] - m["var_n2"], 1e-12))

    def test_required_r2_round_trips(self):
        r2 = ref.required_r2(0.9, 0.7, ref.eps2_of(0.9, 0.7, 1.3))
        self.assertAlmostEqual(r2, 1.3, places=12)
        self.assertIsNone(ref.required_r2(0.9, 0.7, 0.05))


class SweepCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = build("sweep")
        cls.rows = {}
        for fmt in ("csv", "json"):
            out = cls.wl.execute((3, fmt))
            cls.rows[fmt] = checks.parse_sweep(out.read_text(), fmt)
        cls.expected = checks.sweep_expectation(cls.wl.sets[3][0], ref.STRATEGIES, workloads.SWEEP_POINTS, cls.wl.phi_apr)

    def check(self, rows):
        return checks.check_sweep(rows, self.expected, len(ref.STRATEGIES))

    def test_real_output_passes(self):
        for fmt in ("csv", "json"):
            self.assertEqual(self.check(self.rows[fmt]), [], fmt)

    def test_dphi_off_by_one_part_per_million_is_rejected(self):
        rows = list(self.rows["json"])
        phi, s, d, norm, k = rows[1001]
        rows[1001] = (phi, s, d * (1 + 1e-6), norm, k)
        self.assertTrue(self.check(rows))

    def test_missing_inf_at_a_singular_phase_is_rejected(self):
        rows = list(self.rows["csv"])
        i = next(i for i, r in enumerate(rows) if math.isinf(r[2]))
        phi, s, d, norm, k = rows[i]
        rows[i] = (phi, s, 1e3, 1e6, k)
        self.assertTrue(self.check(rows))

    def test_missing_row_is_rejected(self):
        self.assertTrue(self.check(self.rows["csv"][:-1]))


class ValidateCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = build("validate")
        cls.text = cls.wl.execute(0)
        cls.p, cls.phi, cls.report = cls.wl.oracle_report()

    def check_oracle(self, ses):
        r = self.report
        return checks.check_oracle(r.closed_form.as_dict(), r.empirical.as_dict(), ses, self.p, self.phi,
                                   workloads.ORACLE_CHECK_SAMPLES)

    def test_real_output_passes(self):
        self.assertEqual(checks.check_validate(self.text, 12, workloads.VALIDATE_Z), [])
        self.assertEqual(self.wl.final_checks(), [])
        self.assertEqual(self.check_oracle(self.report.standard_errors), [])

    def test_standard_errors_inflated_threefold_are_rejected(self):
        inflated = {k: 3.0 * v for k, v in self.report.standard_errors.items()}
        self.assertTrue(self.check_oracle(inflated))

    def test_grid_row_above_the_threshold_is_rejected(self):
        lines = self.text.splitlines()
        lines[5] = f"{lines[5].split()[0]}  {workloads.VALIDATE_Z + 1:10.3f}  var_n1"
        self.assertTrue(checks.check_validate("\n".join(lines), 12, workloads.VALIDATE_Z))

    def test_missing_grid_row_is_rejected(self):
        lines = self.text.splitlines()
        del lines[4]
        self.assertTrue(checks.check_validate("\n".join(lines), 12, workloads.VALIDATE_Z))


class DesignCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = build("design")
        cls.ops = [op for op in cls.wl.round_ops() if op[0] == "query"][:2]  # flags, then config file
        cls.outs = [cls.wl.execute(op) for op in cls.ops]

    def test_real_output_passes(self):
        for op, out in zip(self.ops, self.outs):
            self.assertEqual(self.wl.check(op, out), [])

    def test_swapped_report_field_is_rejected(self):
        text, results, r2 = self.outs[0]
        report = json.loads(text)
        report["fwhm_single"], report["fwhm_differential"] = report["fwhm_differential"], report["fwhm_single"]
        self.assertTrue(self.wl.check(self.ops[0], (json.dumps(report), results, r2)))

    def test_wrong_required_r2_is_rejected(self):
        text, results, r2 = self.outs[1]
        self.assertTrue(self.wl.check(self.ops[1], (text, results, r2 + 1e-3)))

    def test_edge_outcomes(self):
        error = self.wl.sqz.model.ParameterError
        p = ref.Params(**{**workloads.EDGE_BASE, "r1": 360.0})
        self.assertEqual(checks.check_edge(error("squeeze factor r1 out of range"), p, ref.SINGLE, 1.0, None, ("r1",)), [])
        self.assertTrue(checks.check_edge(error("something went wrong"), p, ref.SINGLE, 1.0, None, ("r1",)))


class TraceTest(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        spans = [
            ["sensitivity.phase_uncertainty", 0.0, 10.0, -1, False, 0],
            ["photostats.sumdiff_stats", 1.0, 5.0, 0, False, 0],
            ["quadratures.detector_field_stats", 2.0, 4.0, 1, False, 0],
            [layertrace.STATS_BUILT, 3.0, 3.5, 2, False, 0],
        ]
        m = layertrace.op_metrics(spans)
        self.assertAlmostEqual(m["sensitivity.self_ms"], 6e3)
        self.assertAlmostEqual(m["photostats.self_ms"], 2e3)
        self.assertAlmostEqual(m["quadratures.self_ms"], 2e3)
        self.assertEqual(m["quadratures.stats_built"], 1)
        self.assertEqual(m["sensitivity.points"], 1)

    def test_removed_function_is_reported_absent(self):
        oracle = run.import_package().oracle
        original = oracle._propagate
        del oracle._propagate
        tracer = layertrace.Tracer()
        try:
            tracer.install()
        finally:
            tracer.uninstall()
            oracle._propagate = original
        self.assertEqual(tracer.absent, ["oracle._propagate"])


class SmokeTest(unittest.TestCase):
    def bench(self, *args, cwd=run.ROOT):
        cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
        return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_every_workload_completes_a_minimal_run(self):
        for name in workloads.WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=name, trace=trace):
                    proc = self.bench("--workload", name, "--seed", "990001", "--seconds", "0.3", "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    expected = layertrace.METRICS if trace == "1" else run.RESULT_METRICS
                    self.assertEqual(set(result["metrics"]), set(expected))
                    edges, per_round = (4, 36) if name == "design" else (0, 1)
                    self.assertEqual(result["failed"] * per_round, edges * result["attempted"])

    def test_result_metrics_are_the_ones_benchmark_json_lists(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.RESULT_METRICS))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(layertrace.METRICS))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END_UNITS[m["name"]])
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], layertrace.METRICS[m["name"]][0])

    def test_fails_without_the_package(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = self.bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
