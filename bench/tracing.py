"""Span tracer installed over fedsim's public functions from outside the package.

``Tracer.install()`` wraps every public function, and every public method
and ``__init__`` of each class, defined in the traced modules.  It rebinds
each wrapper wherever a fedsim module holds the original: a module attribute
(``fedsim.harness.fedac_run`` as well as ``fedsim.algorithms.fedac_run``), or
a module-level tuple or dict such as ``fedsim.verify.ALL_CHECKS``.  The
``callback=`` that a caller hands to a driver is wrapped too, so evaluation
is split out of driver self time.

A span records its name, start, end, parent span and cell id; the spans
under one ``run_cell`` call share a cell id.  Spans stay in memory until the
run writes them out.  Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

PACKAGE = "fedsim"
MODULES = ("rng", "objectives", "algorithms", "harness", "dataio",
           "diagnostics", "verify", "cli")
DRIVERS = ("fedac_run", "fedavg_run", "mb_sgd_run", "mb_acsgd_run")
VERIFY_CHECKS = {"equivalences": "check_equivalences",
                 "norm-bounds": "check_norm_bounds",
                 "potential-contraction": "check_potential_contraction",
                 "instability": "check_instability",
                 "gradient-fd": "check_gradients",
                 "determinism": "check_determinism"}
# oracles that compute gradients themselves, and the ones that wrap another
LEAF_ORACLES = ("Logistic", "Quadratic", "PiecewiseCurvature1D")
ORACLES = LEAF_ORACLES + ("Objective", "Augmented", "BatchedOracle")
_EVALS = ("eval", "eval_grad", "grad")
_STOCH = ("stoch_grad", "stoch_grad_multi")
CALLBACK = "harness.eval_callback"
SWEEP = "harness.tune_and_sweep"
# transfer-matrix norm machinery, charged to diagnostics.norm_bounds
_NORM_PARTS = ("TransferMatrix", "transfer_matrix_fedac1", "transfer_matrix_fedac2",
               "transfer_matrix_from_hyper", "transformed_norm",
               "spectral_norm_2x2", "sample_admissible")
Hook = Callable[[tuple, dict], tuple]


def _oracle_method(name: str):
    """``(class, method)`` if the span name is an oracle method, else None."""
    parts = name.split(".")
    if len(parts) == 3 and parts[1] in ORACLES and parts[2] in _EVALS + _STOCH:
        return parts[1], parts[2]
    return None


def _leaf(obj):
    while hasattr(obj, "inner"):
        obj = obj.inner
    return obj


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.parents: List[int] = []
        self.cells: List[int] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.threads: List[int] = []  # 0 for the main thread
        self.counts: Dict[str, float] = defaultdict(float)
        self.optimum_iterations: List[int] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._next_cell = 0
        self._restore: List[tuple] = []

    def wrap(self, fn: Callable, name: str, hook: Optional[Hook] = None) -> Callable:
        """Wrap ``fn`` in a span named ``name``.  ``hook(args, kwargs)`` runs
        before the span opens; it records counters and returns the arguments
        to call with."""
        names, parents, cells = self.names, self.parents, self.cells
        starts, ends, threads = self.starts, self.ends, self.threads
        clock, lock = time.perf_counter_ns, threading.Lock()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            local = self._state()
            stack = local.stack
            with lock:
                sid = len(names)
                names.append(name)
                parents.append(stack[-1] if stack else -1)
                cells.append(local.cell)
                threads.append(local.thread)
                ends.append(0)
                starts.append(0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        traced.__traced__ = True
        return traced

    def _state(self):
        """This thread's open spans and cell id.  A span opened on a pool
        thread is a root of that thread, not a child of the submitter."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.cell = [], 0
            local.thread = int(threading.get_ident() != self._main)
        return local

    def _inside(self, test: Callable[[str], bool]) -> bool:
        return any(test(self.names[s]) for s in self._state().stack)

    # ------------------------------------------------------------- counters
    def _hook(self, name: str, fn: Callable) -> Optional[Hook]:
        counts = self.counts
        attr = name.rsplit(".", 1)[-1]
        oracle = _oracle_method(name)

        if name in ("rng.StreamBundle.indices", "rng.StreamBundle.gaussians",
                    "rng.StreamBundle.uniforms"):
            pos = 2 if attr == "indices" else 1  # index of ``count``
            calls = f"rng.{attr}.calls"

            def hook(args, kwargs):
                n = args[pos] if len(args) > pos else kwargs.get("count", 1)
                counts["rng.variates"] += n * len(args[0])
                counts[calls] += 1
                return args, kwargs
            return hook

        if oracle and oracle[1] in _STOCH and oracle[0] in LEAF_ORACLES:
            def hook(args, kwargs):
                rows = len(args[2]) if attr == "stoch_grad_multi" else 1
                counts["objectives.stoch_grad.calls"] += 1
                counts["objectives.stoch_grad.rows"] += rows
                counts["objectives.stoch_grad.bytes_computed"] += (
                    rows * args[0].dim * 8)
                return args, kwargs
            return hook

        if oracle and oracle[1] in _EVALS:
            def hook(args, kwargs):
                # count the outermost evaluation only: wrappers delegate
                if not self._inside(lambda s: _oracle_method(s) is not None):
                    counts[f"objectives.{attr}.calls"] += 1
                    if attr == "eval":
                        leaf = _leaf(args[0])
                        counts["objectives.eval.bytes_computed"] += (
                            getattr(leaf, "n", 1) * leaf.dim * 8)
                return args, kwargs
            return hook

        if name == "algorithms.agd_run":
            sig = inspect.signature(fn)

            def hook(args, kwargs):
                counts["diagnostics.agd_steps"] += \
                    sig.bind(*args, **kwargs).arguments["steps"]
                return args, kwargs
            return hook

        if name.startswith("algorithms.") and attr in DRIVERS:
            sig = inspect.signature(fn)

            def hook(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                a = bound.arguments
                if attr in ("fedac_run", "fedavg_run"):
                    counts["algorithms.steps"] += a["t"]
                elif attr == "mb_sgd_run":
                    counts["algorithms.steps"] += a["t"] // a["k"]
                # mb_acsgd_run's steps are counted by the fedac_run it calls
                cb = a.get("callback")
                if cb is not None and not getattr(cb, "__traced__", False) \
                        and not self._inside(lambda s: s.startswith("algorithms.")):
                    a["callback"] = self.wrap(cb, CALLBACK, self._count_callback)
                return bound.args, bound.kwargs
            return hook

        if name == "dataio.load_dataset":
            def hook(args, kwargs):
                path = args[0] if args else kwargs["path"]
                counts["dataio.bytes_parsed"] += os.path.getsize(path)
                return args, kwargs
            return hook

        if name.startswith("diagnostics.transfer_matrix_"):
            def hook(args, kwargs):
                counts["diagnostics.transfer_matrix.calls"] += 1
                return args, kwargs
            return hook
        return None

    def _count_callback(self, args, kwargs):
        self.counts["harness.eval_callback.calls"] += 1
        return args, kwargs

    def _wrap_run_cell(self, fn: Callable) -> Callable:
        traced = self.wrap(fn, "harness.run_cell")
        lock = threading.Lock()

        @functools.wraps(fn)
        def cell_scope(*args, **kwargs):
            local = self._state()
            with lock:
                self._next_cell += 1
                outer, local.cell = local.cell, self._next_cell
            try:
                cell = traced(*args, **kwargs)
            finally:
                local.cell = outer
            self.counts["algorithms.diverged_cells"] += bool(cell.diverged)
            return cell

        cell_scope.__traced__ = True
        return cell_scope

    def _wrap_optimum(self, fn: Callable) -> Callable:
        traced = self.wrap(fn, "harness.compute_optimum")

        @functools.wraps(fn)
        def solve(*args, **kwargs):
            result = traced(*args, **kwargs)
            self.optimum_iterations.append(result.iterations)
            return result

        solve.__traced__ = True
        return solve

    # -------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap the traced modules' public callables and rebind the wrappers
        wherever a loaded fedsim module holds an original."""
        wrappers: Dict[int, Callable] = {}
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[id(value)] = self._make(value, f"{short}.{attr}")
                elif inspect.isclass(value) and not issubclass(
                        value, BaseException) and not hasattr(value, "_fields"):
                    self._wrap_class(value, f"{short}.{attr}")
        originals = set(wrappers)
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in originals:
                    self._set(mod, attr, wrappers[id(value)])
                elif isinstance(value, tuple) and any(
                        id(v) in originals for v in value):
                    self._set(mod, attr, tuple(_swap(v, wrappers) for v in value))
                elif isinstance(value, dict) and any(
                        _refs(v, originals) for v in value.values()):
                    self._set(mod, attr, {k: _swap(v, wrappers)
                                          for k, v in value.items()})

    def _make(self, fn: Callable, name: str) -> Callable:
        if name == "harness.run_cell":
            return self._wrap_run_cell(fn)
        if name == "harness.compute_optimum":
            return self._wrap_optimum(fn)
        return self.wrap(fn, name, self._hook(name, fn))

    def _wrap_class(self, cls, name: str) -> None:
        for attr, value in list(vars(cls).items()):
            if inspect.isfunction(value) and (
                    not attr.startswith("_") or attr == "__init__"):
                span = f"{name}.{attr}"
                self._set(cls, attr, self.wrap(value, span, self._hook(span, value)))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        """One span per line: id, parent, cell, pool-thread flag, name, start_ns,
        end_ns."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tcell\tpool\tname\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{self.cells[i]}\t"
                         f"{self.threads[i]}\t{name}\t{self.starts[i]}\t"
                         f"{self.ends[i]}\n")


def _refs(value, originals) -> bool:
    items = value if isinstance(value, tuple) else (value,)
    return any(id(v) in originals for v in items)


def _swap(value, wrappers):
    if isinstance(value, tuple):
        return tuple(wrappers.get(id(v), v) for v in value)
    return wrappers.get(id(value), value)


# ------------------------------------------------------------------ analysis
def bucket(name: str, parent: Optional[str]) -> str:
    """The per-layer bucket a span's self time is charged to."""
    layer, _, rest = name.partition(".")
    attr = rest.rsplit(".", 1)[-1]
    oracle = _oracle_method(name)
    if layer == "rng":
        if attr in ("indices", "rng_draw_index"):
            return "rng.indices"
        if attr in ("gaussians", "rng_draw_gaussian"):
            return "rng.gaussians"
        return "rng.other"
    if oracle:
        cls, method = oracle
        if method in _EVALS:
            return f"objectives.{method}"
        if cls in LEAF_ORACLES:
            return "objectives.stoch_grad"
        return "objectives.batched" if cls == "BatchedOracle" else "objectives.other"
    if layer == "objectives":
        return "objectives.other"
    if layer == "algorithms":
        if attr in DRIVERS:
            return f"algorithms.{attr}"
        if attr == "agd_run":
            return "diagnostics.agd_run"
        # helpers such as worker_mean belong to whoever called them
        return parent or "algorithms.other"
    if name == CALLBACK:
        return CALLBACK
    if layer == "harness":
        if attr in ("compute_optimum", "cached_optimum"):
            return "harness.optimum"
        if attr in ("tune_and_sweep", "best"):
            return "harness.tune"
        if attr.startswith("write_"):
            return "harness.write"
        return "harness.run_cell" if attr == "run_cell" else "harness.other"
    if layer == "dataio":
        return "dataio.content_hash" if attr == "content_hash" else "dataio.load"
    if layer == "diagnostics":
        if attr in ("construct_instability_objective", "instability_experiment"):
            return "diagnostics.instability"
        if attr == "norm_bound_sweep":
            return "diagnostics.norm_bound_sweep"
        if attr.startswith("potential_"):
            return "diagnostics.potential"
        if rest.split(".")[0] in _NORM_PARTS or attr.startswith("norm_bound_"):
            return "diagnostics.norm_bounds"
        return "diagnostics.other"
    return layer


def analyse(tr: Tracer, wall_ns: int) -> Dict[str, object]:
    """Self time per bucket, over the whole pass and over the sweep alone
    (the spans under ``tune_and_sweep``); summed time per span name (none of
    the names read as inclusive times calls itself); the run_cell durations.
    ``wall_ns`` is the traced interval."""
    n = len(tr.names)
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0] * n
    buckets: List[str] = [""] * n
    roots = [0] * n
    self_ns: Dict[str, int] = defaultdict(int)
    sweep_ns: Dict[str, int] = defaultdict(int)
    inclusive: Dict[str, int] = defaultdict(int)
    root_ns = sweep_wall_ns = 0
    for i in range(n):  # a parent always precedes its children
        p = tr.parents[i]
        if p >= 0:
            child[p] += dur[i]
            roots[i] = roots[p]
        else:
            roots[i] = i
            if not tr.threads[i]:
                root_ns += dur[i]
                if tr.names[i] == SWEEP:
                    sweep_wall_ns += dur[i]
        inclusive[tr.names[i]] += dur[i]
        buckets[i] = bucket(tr.names[i], buckets[p] if p >= 0 else None)
    for i in range(n):
        # a pool thread's time is already the waiting main-thread span's
        if not tr.threads[i]:
            self_ns[buckets[i]] += dur[i] - child[i]
            if tr.names[roots[i]] == SWEEP:
                sweep_ns[buckets[i]] += dur[i] - child[i]
    cell_ms = [dur[i] / 1e6 for i in range(n) if tr.names[i] == "harness.run_cell"]
    return {"self_ns": dict(self_ns), "sweep_self_ns": dict(sweep_ns),
            "sweep_wall_ns": sweep_wall_ns, "inclusive_ns": dict(inclusive),
            "cell_ms": cell_ms, "wall_ns": wall_ns,
            "unattributed_ns": wall_ns - root_ns, "spans": n}


def _percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr: Tracer, a: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metric values, in the units BENCHMARK.json gives them."""
    s, inc, c = a["self_ns"], a["inclusive_ns"], tr.counts
    steps = c["algorithms.steps"]
    rows = c["objectives.stoch_grad.rows"]
    driver_ns = sum(s.get(f"algorithms.{d}", 0) for d in DRIVERS)
    m = {
        "rng.indices.calls": c["rng.indices.calls"],
        "rng.indices.self_us": s.get("rng.indices", 0) / 1e3,
        "rng.variates": c["rng.variates"],
        "rng.gaussians.calls": c["rng.gaussians.calls"],
        "rng.gaussians.self_us": s.get("rng.gaussians", 0) / 1e3,
        "objectives.stoch_grad.calls": c["objectives.stoch_grad.calls"],
        "objectives.stoch_grad.rows": rows,
        "objectives.stoch_grad.self_us": s.get("objectives.stoch_grad", 0) / 1e3,
        "objectives.stoch_grad.ns_per_row":
            s.get("objectives.stoch_grad", 0) / rows if rows else 0.0,
        "objectives.stoch_grad.bytes_computed":
            c["objectives.stoch_grad.bytes_computed"],
        "objectives.batched.self_us": s.get("objectives.batched", 0) / 1e3,
        "objectives.eval.calls": c["objectives.eval.calls"],
        "objectives.eval.self_ms": s.get("objectives.eval", 0) / 1e6,
        "objectives.eval.bytes_computed": c["objectives.eval.bytes_computed"],
        "objectives.eval_grad.calls": c["objectives.eval_grad.calls"],
        "objectives.eval_grad.self_ms": s.get("objectives.eval_grad", 0) / 1e6,
        "algorithms.steps": steps,
        "algorithms.self_us_per_step": driver_ns / 1e3 / steps if steps else 0.0,
    }
    for d in DRIVERS:
        m[f"algorithms.{d}.self_s"] = s.get(f"algorithms.{d}", 0) / 1e9
    m.update({
        "algorithms.diverged_cells": c["algorithms.diverged_cells"],
        "harness.optimum.s": inc.get("harness.compute_optimum", 0) / 1e9,
        "harness.optimum.iterations":
            tr.optimum_iterations[0] if tr.optimum_iterations else 0,
        "harness.eval_callback.calls": c["harness.eval_callback.calls"],
        "harness.eval_callback.self_us": s.get(CALLBACK, 0) / 1e3,
        "harness.run_cell.ms_p50": _percentile(a["cell_ms"], 50),
        "harness.run_cell.ms_p90": _percentile(a["cell_ms"], 90),
        "harness.run_cell.samples": len(a["cell_ms"]),
        "harness.tune.self_s": s.get("harness.tune", 0) / 1e9,
        "harness.write.s": sum(v for k, v in inc.items()
                               if k.startswith("harness.write_")) / 1e9,
        "dataio.load.s": inc.get("dataio.load_dataset", 0) / 1e9,
        "dataio.bytes_parsed": c["dataio.bytes_parsed"],
        "dataio.content_hash.s": inc.get("dataio.Dataset.content_hash", 0) / 1e9,
        "diagnostics.agd_steps": c["diagnostics.agd_steps"],
        "diagnostics.agd_run.self_s": s.get("diagnostics.agd_run", 0) / 1e9,
        "diagnostics.instability.s": (
            inc.get("diagnostics.construct_instability_objective", 0)
            + inc.get("diagnostics.instability_experiment", 0)) / 1e9,
        "diagnostics.norm_bound_sweep.s":
            inc.get("diagnostics.norm_bound_sweep", 0) / 1e9,
        "diagnostics.transfer_matrix.calls":
            c["diagnostics.transfer_matrix.calls"],
        "cli.main.self_s": s.get("cli", 0) / 1e9,
        "trace.unattributed_ratio": a["unattributed_ns"] / a["wall_ns"],
    })
    for check, fn in VERIFY_CHECKS.items():
        m[f"verify.{check}.s"] = inc.get(f"verify.{fn}", 0) / 1e9
    return {k: float(v) for k, v in m.items()}


def layer_table(a: Dict[str, object]) -> List[str]:
    """Self time per bucket, largest first, as printable lines: over the
    whole pass, then over the sweep alone if the pass ran one."""
    wall = a["wall_ns"]
    lines = [f"{'layer (whole pass)':<32}{'self_s':>10}{'share':>8}"]
    for name, ns in sorted(a["self_ns"].items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<32}{ns / 1e9:>10.3f}{ns / wall:>8.1%}")
    lines.append(f"{'(unattributed)':<32}{a['unattributed_ns'] / 1e9:>10.3f}"
                 f"{a['unattributed_ns'] / wall:>8.1%}")
    sweep = sorted(a["sweep_self_ns"].items(), key=lambda kv: -kv[1])
    if sweep:
        lines.append(f"{'layer (' + SWEEP + ')':<32}{'self_s':>10}{'share':>8}")
        for name, ns in sweep:
            lines.append(f"{name:<32}{ns / 1e9:>10.3f}"
                         f"{ns / a['sweep_wall_ns']:>8.1%}")
        lines.append(f"largest self-time layer in the sweep: {sweep[0][0]}")
    return lines
