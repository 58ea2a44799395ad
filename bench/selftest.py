"""Self-tests of the benchmark on tiny workloads: ``python3 bench/selftest.py``.

Run from the root of a fedsim checkout; takes one to two minutes.  Checks that
every metric prints with its unit, that a corrupted artifact and a nonzero
CLI exit count as failed passes, and that the seed changes the generated
inputs and nothing else.
"""

from __future__ import annotations

import json
import shutil
import sys
import unittest
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads
import workloads as wl

ROOT = Path.cwd()
TINY_SWEEP = wl.SweepSpec(
    "tiny-sweep", n=300, dim=20, nnz=5, flip=0.03,
    algorithms=("fedac1", "mb_sgd"), m_list=(2,), k_list=(4,),
    etas="0.1,1.0", t=32, eval_every=16)


TINY_DIAG = wl.DiagnosticsSpec(
    "tiny-diagnostics",
    (("instability", "--kappa", "25", "--K", "1"),
     ("norm-bounds", "--samples", "5", "--seed", "{input_set}")))
FAILING_DIAG = wl.DiagnosticsSpec("failing-diagnostics",
                                  (("norm-bounds", "--samples", "0"),))


def _units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _hash(spec, seed: int) -> str:
    """The output hash of one untraced pass, learnt rather than pinned."""
    work = ROOT / ".bench_work" / f"selftest-{spec.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        job, _, _ = run.prepare_inputs(spec, seed, work, ROOT / "src", None, None)
        return run.run_pass(job, work, "learn")["sha256"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(ROOT / "src"))
        cls.e2e_units, cls.layer_units = _units()
        cls.expect = {spec.name: _hash(spec, 3) for spec in (TINY_SWEEP, TINY_DIAG)}

    def _run(self, spec, trace=False, **kw):
        kw.setdefault("expect", self.expect.get(spec.name))
        line, record = run.run_benchmark(spec, 3, 0.0, trace, ROOT, **kw)
        return line, record

    def test_every_metric_prints_with_its_unit(self):
        for spec in (TINY_SWEEP, TINY_DIAG):
            for trace, units in ((False, self.e2e_units), (True, self.layer_units)):
                line, record = self._run(spec, trace)
                self.assertTrue(line["correct"], record["failures"])
                self.assertEqual(line["failed"], 0)
                self.assertEqual(set(line["metrics"]), set(units), (spec.name, trace))
                for name, metric in line["metrics"].items():
                    self.assertEqual(metric["unit"], units[name], name)
                    self.assertIsInstance(metric["value"], float, name)
                if not trace:
                    for name, metric in line["metrics"].items():
                        self.assertGreater(metric["value"], 0, (spec.name, name))

    def test_flipped_artifact_byte_is_a_failed_pass(self):
        line, record = self._run(TINY_SWEEP, flip_byte=True)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], line["attempted"])
        self.assertIn("differs from pinned", record["failures"][0][0])
        line, _ = self._run(TINY_SWEEP, trace=True, flip_byte=True)
        self.assertEqual(line["metrics"]["error_rate"]["value"], 1.0)

    def test_nonzero_cli_exit_is_a_failed_pass(self):
        line, record = self._run(FAILING_DIAG, expect="none")
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], line["attempted"])
        self.assertIn("nonzero exit codes [1]", record["failures"][0][0])

    def test_seed_changes_inputs_and_nothing_else(self):
        seen = {}
        for seed in (1, 2, 1 + wl.INPUT_SETS):
            work = ROOT / ".bench_work" / f"selftest-seed-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                job, record, _ = run.prepare_inputs(TINY_SWEEP, seed, work,
                                                    ROOT / "src", None, None)
                config = Path(job["config"]).read_text().replace(str(work), "")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            seen[seed] = (config, record["sha256"])
        self.assertEqual(seen[1][0], seen[2][0])
        self.assertNotEqual(seen[1][1], seen[2][1])
        self.assertEqual(seen[1], seen[1 + wl.INPUT_SETS])
        one, two = (wl.WORKLOADS["diagnostics"].argvs(s) for s in (1, 2))
        self.assertEqual(one[:-1], two[:-1])
        self.assertEqual(one[-1][:-1], two[-1][:-1])
        self.assertNotEqual(one[-1][-1], two[-1][-1])


if __name__ == "__main__":
    unittest.main()
