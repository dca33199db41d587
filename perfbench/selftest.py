#!/usr/bin/env python3
"""Self-tests of the benchmark harness (not of eomod).

    python3 perfbench/selftest.py

Checks that job lists are reproducible, that the oracle rejects a perturbed
output, that span self times add up to the job's root span, that a
spectrum job past mu = 220 (the Bessel cutoff defect) counts as failed,
that no ref-cli job of the reference seed comes near that limit, and that
probe scaling turns a time into reference seconds.
"""

import shutil
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import jobs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = ROOT / ".perfbench" / "selftest"
        shutil.rmtree(cls.out, ignore_errors=True)
        cls.out.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.out, ignore_errors=True)

    def run_checked(self, job):
        rec = worker.timed(job, self.out)
        rec["csv"] = worker.take_output(rec).decode()
        rec["diag"] = worker.diagnostics(job)
        return rec, oracle.check_job(job, rec)

    def test_same_seed_same_jobs(self):
        for name in jobs.WORKLOADS:
            ref = jobs.dumps(jobs.generate(name, jobs.REFERENCE_SEED))
            self.assertEqual(ref, jobs.dumps(jobs.generate(name, jobs.REFERENCE_SEED)))
            self.assertNotEqual(ref, jobs.dumps(jobs.generate(name, jobs.HELD_OUT_SEED)))

    def test_oracle_flags_perturbed_output(self):
        job = next(j for j in jobs.generate("ref-cli", jobs.REFERENCE_SEED)
                   if j["kind"] == "spectrum" and "figure" not in j)
        rec, problems = self.run_checked(job)
        self.assertEqual(problems, [])
        header, rows = oracle.read_csv(rec["csv"])
        rows[len(rows) // 2, 1] += 1e-8 * rows[:, 1].max()
        rec["csv"] = "".join([",".join(header) + "\n"]
                             + [",".join(f"{v:.11e}" for v in row) + "\n" for row in rows])
        self.assertTrue(any("p_rel_restricted" in p for p in oracle.check_job(job, rec)))
        rec["diag"]["occupations"][0] += 1e-9
        self.assertTrue(any("photon sum" in p for p in oracle.check_job(job, rec)))

    def test_self_times_sum_to_root(self):
        tracer = spans.Tracer()
        notes = []
        picked = {}
        for job in jobs.generate("ref-cli", jobs.REFERENCE_SEED):
            picked.setdefault((job["kind"], "figure" in job), job)
        picked["verify"] = jobs.generate("verify-quick", jobs.REFERENCE_SEED)[0]
        for i, job in enumerate(picked.values()):
            rec = worker._traced(job, self.out, tracer, notes)
            self.assertNotIn("error", rec)
        totals = spans.layer_totals(tracer)
        layers = sum(v for k, v in totals.items()
                     if k.count(".") == 1 and k.endswith(".self_s"))
        self.assertGreater(totals["root_s"], 0.0)
        self.assertAlmostEqual(layers, totals["root_s"], delta=1e-9 * totals["root_s"])
        self.assertGreater(totals["numkernel.eigen.calls"], 0)
        self.assertGreater(totals["verify.check.scan-bounds.s"], 0.0)

    def test_large_mu_spectrum_fails(self):
        job = dict(jobs._spectrum(3.0, 600.0, jobs.REF_DETUNE, jobs.REF_FILTER_HW), id=0)
        self.assertGreater(oracle.modulation_index(job["detune"], job["gamma"]), 220.0)
        rec, problems = self.run_checked(job)
        self.assertEqual(rec["rc"], 2)
        self.assertEqual(problems, ["exit code 2"])

    def test_ref_cli_stays_below_cutoff_defect(self):
        ref = jobs.generate("ref-cli", jobs.REFERENCE_SEED)
        spectra = [j for j in ref if j["kind"] == "spectrum"]
        mu = max(oracle.modulation_index(j["detune"], j["gamma"]) for j in spectra)
        self.assertLess(mu, 215.0)
        top = max(spectra, key=lambda j: j["gamma"])
        self.assertGreater(top["gamma"], 450.0)
        self.assertEqual(self.run_checked(top)[1], [])

    def test_probe_scaling(self):
        ref = calibrate.REF_PROBE_S
        # a job timed while probes took twice the reference time ran on a
        # host half as fast: it reports half its wall time
        self.assertAlmostEqual(calibrate.scale(2 * ref, 2 * ref), 0.5)
        self.assertAlmostEqual(calibrate.scale(ref, 4 * ref), 0.5)
        probe = calibrate.Probe()
        t0 = time.perf_counter()
        mean = probe.sample(0.05)
        self.assertGreaterEqual(time.perf_counter() - t0, 0.05)
        self.assertGreater(mean, 0.0)
        self.assertNotIn("eomod", vars(calibrate))

    def test_missing_function_records_zero(self):
        import eomod.cli
        import eomod.detection
        import eomod.verify

        saved = [(m, m.spectral_scan) for m in (eomod.detection, eomod.verify, eomod.cli)
                 if "spectral_scan" in vars(m)]
        for mod, _ in saved:
            delattr(mod, "spectral_scan")
        tracer = spans.Tracer()
        notes = []
        job = next(j for j in jobs.generate("ref-cli", jobs.REFERENCE_SEED)
                   if j["kind"] == "gamma-scan")
        try:
            rec = worker._traced(job, self.out, tracer, notes)
        finally:
            for mod, fn in saved:
                mod.spectral_scan = fn
        self.assertNotIn("error", rec)
        self.assertTrue(any("spectral_scan" in n for n in notes))
        self.assertEqual(spans.layer_totals(tracer)["detection.scan.calls"], 0.0)


if __name__ == "__main__":
    unittest.main()
