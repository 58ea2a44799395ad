"""fedsim benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a fedsim checkout.  The run makes its inputs from the
seed, then repeats passes of the workload, each in a fresh interpreter, until
the next pass would end more than half a pass after ``--seconds`` (at least
``MIN_PASSES``).  With ``--trace 0``
it reports the end-to-end metrics as medians over those passes, with times
scaled to a reference clock speed (see ``child.SpeedProbe``); with
``--trace 1`` it adds one traced pass and reports the per-layer metrics.
BLAS is pinned to one thread and the sweep runs serially.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
hold the machine and input record and, when tracing, the per-layer table.
A pass fails on an exception, a nonzero exit, a diverged cell, or an output
hash that differs from the one pinned in ``pins.json``.
"""

from __future__ import annotations

import os

# pinned before numpy loads here or in any pass
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

MIN_PASSES = 2
MAX_PASSES = 100
RUN_LIMIT_S = 165  # a pass still running at this point of the run is killed
MAX_UNATTRIBUTED = 0.1
PROBE_SETS = 4


def metric_units(trace: bool) -> dict:
    """Name -> unit of the metrics a run prints, from BENCHMARK.json."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# ------------------------------------------------------------------ record
def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def cache_sizes():
    """Per-core L2 and shared L3 sizes in bytes, from /sys (None if absent)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.exists() else []:
        level = _read(index / "level").strip()
        size = _read(index / "size").strip()
        if level in ("2", "3") and size.endswith("K"):
            sizes[int(level)] = int(size[:-1]) * 1024
    return sizes.get(2), sizes.get(3)


def machine_record():
    import numpy as np
    import scipy

    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    l2, l3 = cache_sizes()
    return {"nproc": os.cpu_count(), "cpu": model, "l2_bytes": l2,
            "l3_bytes": l3, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


# ------------------------------------------------------------------ inputs
def prepare_inputs(spec, seed: int, work: Path, src: Path, l2, l3):
    """Write the workload's inputs; return (job fields, input record, check).
    The job runs fedsim from ``src``.

    For a sweep the generated LibSVM file is parsed back with fedsim and must
    equal the generated data; ``check`` is the ``check-data`` line it must
    print."""
    if spec.kind == "diagnostics":
        return ({"kind": "diagnostics", "src": str(src),
                 "argvs": spec.argvs(wl.input_set(seed))},
                {"input_set": wl.input_set(seed),
                 "argvs": spec.argvs(wl.input_set(seed))}, None)
    import numpy as np
    import scipy.sparse as sp
    from fedsim.dataio import Dataset, load_dataset

    data = wl.generate(spec, seed)
    path = work / f"{spec.name}.libsvm"
    wl.write_libsvm(data, path)
    x = sp.csr_matrix((np.ones(data.nnz), data.indices, data.indptr),
                      shape=(data.n, data.dim))
    if load_dataset(str(path), data.dim) != Dataset(X=x, labels=data.labels):
        raise RuntimeError(f"{path}: parsed dataset differs from the generated one")
    config = work / f"{spec.name}.cfg"
    config.write_text(spec.config_text(str(path)))
    record = wl.file_record(data, path, l2, l3)
    record["input_set"] = wl.input_set(seed)
    job = {"kind": "sweep", "src": str(src), "config": str(config),
           "data": str(path), "dim": spec.dim, "out_dir": str(work / "out")}
    return job, record, wl.check_data_line(data)


# ------------------------------------------------------------------ passes
def run_pass(job: dict, work: Path, tag: str, env=None,
             timeout: float = RUN_LIMIT_S) -> dict:
    """Run one pass in a fresh interpreter and return its result record."""
    job = dict(job, result=str(work / f"{tag}.result.json"))
    if job["kind"] == "sweep":
        shutil.rmtree(job["out_dir"], ignore_errors=True)  # cold optimum cache
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    cmd = [sys.executable, str(BENCH / "child.py"), str(job_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), env=env)
    except subprocess.TimeoutExpired:
        return {"error": f"pass killed after {timeout:.0f} s"}
    try:
        result = json.loads(Path(job["result"]).read_text())
    except (OSError, ValueError):
        result = {"error": f"no result (exit {proc.returncode}): "
                           f"{proc.stderr[-2000:]}"}
    if proc.returncode and "error" not in result:
        result["error"] = f"exit {proc.returncode}"
    return result


def judge(result: dict, expect, check) -> list:
    """Reasons this pass failed (empty if it passed)."""
    if "error" in result:
        return [result["error"]]
    reasons = []
    if any(result["exit_codes"]):
        reasons.append(f"nonzero exit codes {result['exit_codes']}")
    if result.get("diverged", 0) != 0:
        reasons.append(f"{result['diverged']} diverged cells, pinned 0")
    if expect is None:
        reasons.append("no hash pinned for this input set and BLAS thread count")
    elif result["sha256"] != expect:
        reasons.append(f"output hash {result['sha256'][:16]} differs from "
                       f"pinned {expect[:16]}")
    if check is not None and result["stdout"] != check:
        reasons.append(f"check-data printed {result['stdout']!r}, expected {check!r}")
    return reasons


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def blas_probe(work: Path, src: Path, deadline: float) -> dict:
    """Solve the sweep-small-m optimum of the first ``PROBE_SETS`` input
    sets under 1 and 2 BLAS threads.  Whether the two differ depends on the
    data (with numpy 2.4 and OpenBLAS, input set 1 differs by one ulp and
    sets 0, 2 and 3 do not), so the probe does not follow the seed."""
    spec = wl.WORKLOADS["sweep-small-m"]
    paths = []
    for input_set in range(PROBE_SETS):
        path = work / f"probe{input_set}.libsvm"
        wl.write_libsvm(wl.generate(spec, input_set), path)
        paths.append(str(path))
    job = {"kind": "optimum", "src": str(src), "data": paths,
           "dim": spec.dim, "lam": spec.lam}
    stars = {}
    for threads in (1, 2):
        env = dict(os.environ, **{k: str(threads) for k in BLAS_ENV})
        res = run_pass(job, work, f"probe{threads}", env,
                       deadline - time.perf_counter())
        if "error" in res:
            return {"error": res["error"]}
        stars[threads] = [float.fromhex(h) for h in res["f_star"]]
    ulps = [abs(_bits(a) - _bits(b)) for a, b in zip(stars[1], stars[2])]
    return {"f_star_1": [x.hex() for x in stars[1]],
            "f_star_2": [x.hex() for x in stars[2]],
            "invariant": int(not any(ulps)), "ulps": max(ulps)}


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(spec, passes, queries, key="scaled") -> dict:
    """Medians over the passes that produced timings: of the times scaled
    to the reference speed (``key="scaled"``), or of the raw times
    (``key=None``)."""
    timed = [p.get(key, p) if key else p for p in passes if "total_s" in p]
    values = {name: _median([t[name] for t in timed])
              for name in ("setup_s", "total_s", "diagnostics_s")}
    if spec.kind == "sweep":
        rates = [spec.grad_queries() / t["sweep_s"] for t in timed]
    else:
        rates = [queries / t["diagnostics_s"] for t in timed] if queries else []
    values["grad_queries_per_s"] = _median(rates)
    values["peak_rss_mb"] = _median([p["peak_rss_mb"] for p in passes
                                     if "total_s" in p])
    return values


def diagnostics_queries(traced: dict) -> float:
    """Gradient queries one diagnostics pass makes, from a traced pass."""
    c = traced.get("counts", {})
    return (c.get("objectives.stoch_grad.rows", 0) + c.get("objectives.grad.calls", 0)
            + c.get("objectives.eval_grad.calls", 0))


# ------------------------------------------------------------------ run
def run_benchmark(spec, seed: int, seconds: float, trace: bool, root: Path,
                  expect=None, flip_byte: bool = False):
    """One benchmark run; returns (result line, record dict).

    ``expect`` is the output hash every pass must produce; by default the
    one pinned for the seed's input set.  ``flip_byte`` corrupts each pass's
    records.csv before hashing, to show that the check catches it."""
    src = root / "src"
    if not (src / "fedsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fedsim sources under {src}")
    sys.path.insert(0, str(src))
    base = root / ".bench_work"
    work = base / f"run-{spec.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if expect is None:
            expect = wl.pinned_hash(wl.load_pins(), spec.name, seed,
                                    os.environ["OPENBLAS_NUM_THREADS"])
        return _run(spec, seed, seconds, trace, src, base, work, expect,
                    flip_byte)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(spec, seed, seconds, trace, src, base, work, expect, flip_byte):
    deadline = time.perf_counter() + RUN_LIMIT_S
    start_load = os.getloadavg()
    machine = machine_record()
    job, inputs, check = prepare_inputs(spec, seed, work, src,
                                        machine["l2_bytes"], machine["l3_bytes"])
    job["flip_byte"] = flip_byte

    # The traced pass comes first and counts toward the run's time.  The
    # diagnostics workload needs it even untraced: it counts the gradient
    # queries its throughput is computed from.
    passes, failures = [], []
    t_start = time.perf_counter()
    traced, probe, queries = None, None, 0.0
    if trace or spec.kind == "diagnostics":
        spans_dir = base / "spans"
        spans_dir.mkdir(exist_ok=True)
        traced = run_pass(dict(job, trace=True,
                               spans=str(spans_dir / f"{spec.name}.tsv")),
                          work, "traced", timeout=deadline - t_start)
        reasons = judge(traced, expect, check)
        if not reasons and \
                traced["layers"]["trace.unattributed_ratio"] > MAX_UNATTRIBUTED:
            reasons.append(f"traced pass leaves more than {MAX_UNATTRIBUTED:.0%} "
                           f"of its time unattributed")
        failures.append(reasons)
        queries = diagnostics_queries(traced)

    durations = []
    while len(passes) < MAX_PASSES:
        t0 = time.perf_counter()
        result = run_pass(job, work, f"pass{len(passes)}",
                          timeout=deadline - t0)
        durations.append(time.perf_counter() - t0)
        passes.append(result)
        failures.append(judge(result, expect, check))
        elapsed = time.perf_counter() - t_start
        if len(passes) >= MIN_PASSES and \
                elapsed + statistics.median(durations) / 2 > seconds:
            break
    if trace:
        probe = blas_probe(work, src, deadline)

    attempted, failed = len(failures), sum(bool(f) for f in failures)
    values = end_to_end(spec, passes, queries)
    metrics = layer_values(spec, traced, passes, probe, failed / attempted) \
        if trace else values
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics.get(k, 0.0), "unit": unit}
                        for k, unit in metric_units(trace).items()}}
    record = {"workload": spec.name, "seed": seed, "machine": machine,
              "inputs": inputs, "pinned_sha256": expect,
              "loadavg_start": start_load, "loadavg_end": os.getloadavg(),
              "passes": [{k: v for k, v in p.items()
                          if k not in ("stdout", "layers", "table", "counts")}
                         for p in passes],
              "failures": [f for f in failures if f],
              "end_to_end": values,
              "end_to_end_raw": end_to_end(spec, passes, queries, key=None),
              "blas_probe": probe}
    if traced is not None:
        record["trace_table"] = traced.get("table")
    return line, record


def layer_values(spec, traced, passes, probe, error_rate) -> dict:
    if "layers" not in traced:
        return {"error_rate": error_rate}
    m = dict(traced["layers"])
    # compared over the commands on diagnostics, and from config to the
    # artifacts on the sweeps
    key = "diagnostics_s" if spec.kind == "diagnostics" else "total_s"
    untraced = _median([p[key] for p in passes if key in p])
    m["trace.overhead_ratio"] = traced[key] / untraced if untraced else 0.0
    m["harness.optimum.cache_hit_s"] = traced.get("cache_hit_s", 0.0)
    m["harness.artifact_bytes"] = traced.get("artifact_bytes", 0)
    m["cli.stdout_bytes"] = traced["stdout_bytes"]
    ok = probe and "error" not in probe
    m["harness.optimum.blas_invariant"] = probe["invariant"] if ok else 0
    m["harness.optimum.f_star_ulps"] = probe["ulps"] if ok else 0
    m["error_rate"] = error_rate
    return {k: float(v) for k, v in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        line, record = run_benchmark(wl.WORKLOADS[args.workload], args.seed,
                                     args.seconds, bool(args.trace), root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for text in record.get("trace_table") or []:
        print(text)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
