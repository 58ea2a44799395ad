"""Record the output hash of every workload's input sets in ``pins.json``.

    python3 bench/pin.py [--workload NAME ...]

Run from the root of a fedsim checkout.  Each input set gets one untraced
pass under the benchmark's pinned BLAS thread count; a pass that fails
(nonzero exit, diverged cell, exception) aborts the pin.  Re-pinning changes
what the benchmark accepts as correct, so state why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads
import workloads as wl

JOBS = 2  # passes run side by side; hashes do not depend on timing


def pin_one(spec, input_set: int, root: Path) -> str:
    work = root / ".bench_work" / f"pin-{spec.name}-{input_set}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        machine = run.machine_record()
        job, _, check = run.prepare_inputs(spec, input_set, work, root / "src",
                                           machine["l2_bytes"], machine["l3_bytes"])
        result = run.run_pass(job, work, "pin")
        reasons = run.judge(result, result.get("sha256"), check)
        if reasons:
            raise RuntimeError(f"{spec.name} input set {input_set}: {reasons}")
        return result["sha256"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    args = parser.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    pins = wl.load_pins()
    blas = os.environ["OPENBLAS_NUM_THREADS"]
    for name in args.workload or sorted(wl.WORKLOADS):
        spec = wl.WORKLOADS[name]
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            hashes = list(pool.map(lambda s: pin_one(spec, s, root),
                                   range(wl.INPUT_SETS)))
        pins[f"{name}|blas={blas}"] = {str(s): h for s, h in enumerate(hashes)}
        print(f"{name}: pinned {len(hashes)} input sets", file=sys.stderr)
    wl.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
