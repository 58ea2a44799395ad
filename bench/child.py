"""One benchmark pass in a fresh interpreter: ``python3 child.py JOB.json``.

The job file names the pass kind (``sweep``, ``diagnostics`` or ``optimum``),
its inputs and whether to trace.  The pass writes its timings, output hash
and peak memory as JSON to ``job["result"]``.  Nothing from fedsim is imported
before the pass starts, so the diagnostics pass can time the package import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

# check-data takes a fraction of a second.  A sweep pass runs it in two
# windows, before the sweep and after it, so that they see different phases
# of a host whose speed swings every few seconds.  Each window runs it at
# least this many times and for at least this long; the pass reports the
# mean time.  Not the median: garbage collection makes every other parse
# slower, so the median of an even and an odd number of repeats differ.
CHECK_DATA_REPS = 2
CHECK_DATA_SECONDS = 0.75


class SpeedProbe:
    """Times a fixed pure-Python reference loop from a timer signal every
    ``INTERVAL`` seconds of a pass, so that each phase of the pass can be
    scaled to a fixed reference speed.  On a shared host the speed swings by
    up to 1.8x for seconds to minutes at a time; the reference loop slows
    with it, and fedsim's own code does not change it.  Over 34 back-to-back
    sweep-small-m passes on the host this was set on, scaling cut the
    interquartile spread of the sweep time from 16% to 7.5% and that of
    check-data from 40% to 16%; a text-parsing loop tracked neither better.
    The loop costs about 0.2% of the pass."""

    INTERVAL = 0.1
    REF_S = 110e-6  # the loop's typical time on the 2-vCPU Xeon it was set on

    def __init__(self):
        self.samples = []

    @staticmethod
    def _reference() -> float:
        t = time.perf_counter()
        acc = 0
        for i in range(1500):
            acc += i * i
        return time.perf_counter() - t

    def _on_alarm(self, signum=None, frame=None):
        self.samples.append((time.perf_counter(),
                             min(self._reference(), self._reference())))

    def __enter__(self):
        self._on_alarm()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float:
        """Median reference time over ``[start, end]`` / ``REF_S``; the
        sample nearest to ``end`` stands in for an interval without one."""
        refs = [r for t, r in self.samples if start <= t <= end + self.INTERVAL]
        if not refs:
            refs = [min(self.samples, key=lambda s: abs(s[0] - end))[1]]
        return statistics.median(refs) / self.REF_S

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed."""
        return (end - start) / self.slowdown(start, end)


def _cli(cli, argv, out: io.StringIO) -> int:
    with contextlib.redirect_stdout(out):
        return cli.main(argv)


def _check_data(cli, argv, min_seconds: float):
    """One check-data window: (exit codes, outputs, start, end)."""
    codes, outputs = [], []
    start = time.perf_counter()
    while len(codes) < CHECK_DATA_REPS or \
            time.perf_counter() - start < min_seconds:
        stdout = io.StringIO()
        codes.append(_cli(cli, argv, stdout))
        outputs.append(stdout.getvalue())
    return codes, outputs, start, time.perf_counter()


def sweep_pass(job, tracer, probe) -> dict:
    """``fedsim sweep`` step by step: config, objective, cold optimum, the
    serial sweep and the four writers, with a ``fedsim check-data`` window
    before and after.  Distinct check-data outputs are all returned, so a
    changing one fails the check."""
    import fedsim.cli as cli
    import fedsim.harness as harness

    if tracer:
        tracer.install()
    out = Path(job["out_dir"])
    clock = time.perf_counter
    argv = ["check-data", job["data"], "--dim", str(job["dim"])]
    min_seconds = 0.0 if tracer else CHECK_DATA_SECONDS  # traced: fixed counts
    t_trace = clock()
    windows = [_check_data(cli, argv, min_seconds)]
    t0 = clock()
    cfg = harness.build_config(harness.parse_config_file(job["config"]))
    out.mkdir(parents=True, exist_ok=True)
    t_setup = clock()
    obj, ds = harness.build_objective(cfg)
    opt = harness.cached_optimum(obj, ds, cfg.lam, cfg.opt_tol,
                                 out / "optimum_cache.json")
    t_sweep = clock()
    cells, rows = harness.tune_and_sweep(cfg, obj, opt.f_star, threads=1)
    t_write = clock()
    harness.write_records_csv(cells, out / "records.csv")
    harness.write_records_json(cells, out / "records.json")
    harness.write_sweep_csv(rows, out / "sweep.csv")
    harness.write_sweep_json(rows, out / "sweep.json")
    t_end = clock()
    result = {"setup_s": t_sweep - t_setup, "sweep_s": t_write - t_sweep,
              "write_s": t_end - t_write, "total_s": t_end - t0}
    if tracer:
        harness.cached_optimum(obj, ds, cfg.lam, cfg.opt_tol,
                               out / "optimum_cache.json")
        result["cache_hit_s"] = clock() - t_end
    windows.append(_check_data(cli, argv, min_seconds))
    codes = [c for w in windows for c in w[0]]
    outputs = [o for w in windows for o in w[1]]
    result.update(diagnostics_s=statistics.mean(
                      (end - start) / len(c) for c, _, start, end in windows),
                  traced_ns=int((clock() - t_trace) * 1e9), exit_codes=codes,
                  stdout="".join(sorted(set(outputs))),
                  stdout_bytes=len(outputs[0].encode()),
                  diverged=sum(c.diverged for c in cells),
                  f_star=opt.f_star.hex())
    if probe:
        result["slowdown"] = probe.slowdown(t0, t_end)
        result["scaled"] = {
            "setup_s": probe.scaled(t_setup, t_sweep),
            "sweep_s": probe.scaled(t_sweep, t_write),
            "total_s": probe.scaled(t0, t_end),
            "diagnostics_s": statistics.mean(
                probe.scaled(start, end) / len(c)
                for c, _, start, end in windows)}
    artifacts = [out / n for n in ("records.csv", "records.json",
                                   "sweep.csv", "sweep.json")]
    result["artifact_bytes"] = sum(p.stat().st_size for p in artifacts)
    if job.get("flip_byte"):
        blob = bytearray(artifacts[0].read_bytes())
        blob[len(blob) // 2] ^= 1
        artifacts[0].write_bytes(bytes(blob))
    result["sha256"] = hashlib.sha256(
        artifacts[0].read_bytes() + artifacts[2].read_bytes()).hexdigest()
    return result


def diagnostics_pass(job, tracer, probe) -> dict:
    """The diagnostics CLI sequence through ``fedsim.cli.main`` in-process."""
    clock = time.perf_counter
    t0 = clock()
    import fedsim.cli as cli
    t_run = clock()
    if tracer:
        tracer.install()
    stdout = io.StringIO()
    t_cmds = clock()
    codes = [_cli(cli, argv, stdout) for argv in job["argvs"]]
    t_end = clock()
    text = stdout.getvalue()
    result = {"setup_s": t_run - t0, "diagnostics_s": t_end - t_cmds,
              "total_s": t_end - t0 - (t_cmds - t_run),
              "traced_ns": int((t_end - t_cmds) * 1e9), "exit_codes": codes,
              "stdout_bytes": len(text.encode()),
              "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if probe:
        result["slowdown"] = probe.slowdown(t0, t_end)
        setup, diag = probe.scaled(t0, t_run), probe.scaled(t_cmds, t_end)
        result["scaled"] = {"setup_s": setup, "diagnostics_s": diag,
                            "total_s": setup + diag}
    return result


def optimum_pass(job, tracer, probe) -> dict:
    """Solve each dataset's optimum; used to compare BLAS thread counts."""
    import fedsim.dataio as dataio
    import fedsim.harness as harness
    import fedsim.objectives as objectives

    stars, iterations = [], []
    for path in job["data"]:
        ds = dataio.load_dataset(path, job["dim"])
        opt = harness.compute_optimum(objectives.Logistic(ds, job["lam"]))
        stars.append(opt.f_star.hex())
        iterations.append(opt.iterations)
    return {"f_star": stars, "iterations": iterations}


PASSES = {"sweep": sweep_pass, "diagnostics": diagnostics_pass,
          "optimum": optimum_pass}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    tracer = None
    if job.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
    try:
        if tracer:
            result = PASSES[job["kind"]](job, tracer, None)
        else:
            with SpeedProbe() as probe:
                result = PASSES[job["kind"]](job, None, probe)
    except Exception:  # reported to the parent, which counts the pass failed
        result = {"error": traceback.format_exc()}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        from tracing import analyse, layer_metrics, layer_table
        tracer.uninstall()
        if "error" not in result:
            a = analyse(tracer, result["traced_ns"])
            result["layers"] = layer_metrics(tracer, a)
            result["table"] = layer_table(a)
            result["counts"] = dict(tracer.counts)
            result["spans"] = a["spans"]
            tracer.write(job["spans"])
    Path(job["result"]).write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
