"""Experiment orchestration: optima, evaluation protocol, sweeps, and artifacts.

The harness turns a flat configuration into suboptimality curves.  For each
cell (algorithm, M, K, eta, seed) it runs the corresponding driver with an
evaluation callback that takes the eval point on a fixed step cadence, and
records F(eval point) - F* there; it then tunes eta per (algorithm, M, K) by
the best suboptimality attained over evaluations, taking the median across
seeds.  ``tune_and_sweep`` cuts each algorithm's grid into ``_chunks``,
and each chunk is one ``run_group`` call: one call of the step kernel
(``algorithms.run_replicas``; ``algorithms._run_minibatch`` for the
minibatch baselines), every cell's bits the same as a run of its own.
Evaluations are deferred to the end of the call: the callback only writes
the points into its table of eval points, one row per cell and eval step,
and ``Objective.eval_many`` evaluates all of them, so F is computed in one
pass over the data per batch of points instead of one pass per point.  A
deterministic full-gradient accelerated descent precomputes F* once per
(dataset, regularization) pair and caches it beside the outputs.

Evaluation points: accelerated methods report the worker average of the
``w_ag`` family, FedAvg the worker average of ``w`` and minibatch SGD its
one synchronized ``w``.
FedAvg additionally reports its decay-weighted running average at the final
step; that value competes during tuning but is not an extra CSV record, so
every algorithm emits exactly T/eval_every + 1 records per cell.

Artifacts are CSV (records: ``algorithm,M,K,eta,seed,t,suboptimality``;
sweep: ``algorithm,M,K,best_eta,best_suboptimality``) with JSON mirrors.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .algorithms import (AgdStep, ScheduleError, _run_minibatch, replica_mean,
                         run_replicas, schedule_fedac1, schedule_fedac2,
                         schedule_vanilla)
from .dataio import Dataset, load_dataset
from .objectives import Logistic, Objective
from .rng import StreamBundle

ALGORITHMS = ("fedac1", "fedac2", "fedac_vanilla", "fedavg", "mb_sgd", "mb_acsgd")
_ACCELERATED = {"fedac1", "fedac2", "fedac_vanilla", "mb_acsgd"}
_MINIBATCH = {"mb_sgd", "mb_acsgd"}

# state rows per sweep chunk (M per replica, M*K for the minibatch chains);
# far more rows in flight ran slower than one replica at a time, and at M=64
# calls of 256 rows ran faster than calls of 1024
ROW_BUDGET = 256

# bytes of eval points, a (cells, T/eval_every + 2, dim) table, that one
# sweep chunk holds, unless one cell's alone are more
TABLE_BYTES = 2 ** 26

# 13-point learning-rate grid used for tuning unless overridden
DEFAULT_ETA_GRID = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
                    1.0, 2.0, 5.0, 10.0)

OUT_DIR_ENV = "FEDSIM_OUT"


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class OptimumError(RuntimeError):
    """Optimum solver hit its iteration cap; carries the achieved gradient norm."""

    def __init__(self, grad_norm: float, iterations: int):
        self.grad_norm = float(grad_norm)
        self.iterations = int(iterations)
        super().__init__(
            f"optimum not reached after {iterations} iterations; "
            f"gradient norm {grad_norm:.3e}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep definition.  M, K, etas and seeds are kept as ascending
    tuples, so list order never changes an artifact; algorithms keep theirs."""

    dataset: str = "synthetic"
    declared_dim: Optional[int] = None
    synthetic_n: int = 2000
    synthetic_dim: int = 123
    synthetic_seed: int = 7
    synthetic_nnz: int = 14
    lam: float = 1e-3
    algorithms: Tuple[str, ...] = ("fedac1", "fedavg", "mb_sgd", "mb_acsgd")
    t: int = 1024
    k_list: Tuple[int, ...] = (1, 16, 64)
    m_list: Tuple[int, ...] = (1, 4, 16, 64)
    etas: Tuple[float, ...] = DEFAULT_ETA_GRID
    seeds: Tuple[int, ...] = (0, 1, 2)
    eval_every: int = 128
    opt_tol: Optional[float] = None
    out_dir: str = "out"

    def __post_init__(self):
        for name in ("m_list", "k_list", "etas", "seeds"):
            object.__setattr__(self, name, tuple(sorted(getattr(self, name))))
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm '{name}'")
        if not self.algorithms:
            raise ConfigError("algorithm list is empty")
        if self.t < 1:
            raise ConfigError(f"T must be >= 1, got {self.t}")
        if not self.k_list or not self.m_list:
            raise ConfigError("M and K lists must be nonempty")
        for k in self.k_list:
            if k < 1 or self.t % k:
                raise ConfigError(f"K={k} must be >= 1 and divide T={self.t}")
        for m in self.m_list:
            if m < 1:
                raise ConfigError(f"M={m} must be >= 1")
        if self.eval_every < 1 or self.t % self.eval_every:
            raise ConfigError(
                f"eval_every={self.eval_every} must be >= 1 and divide T={self.t}")
        if _MINIBATCH & set(self.algorithms):
            for k in self.k_list:
                if self.eval_every % k:
                    raise ConfigError(
                        f"minibatch baselines step in units of K: eval_every="
                        f"{self.eval_every} must be a multiple of K={k}")
        if not self.etas or any(not (0 < e < math.inf) for e in self.etas):
            raise ConfigError("eta grid must be nonempty, positive and finite")
        if not self.seeds:
            raise ConfigError("seed list must be nonempty")
        for key, spec in CONFIG_KEYS.items():
            values = getattr(self, spec.field)
            if spec.is_list and len(set(values)) < len(values):
                raise ConfigError(f"{key} lists a value twice: {values}")
        if not (0 < self.lam < math.inf):
            raise ConfigError(f"lam must be positive and finite, got {self.lam}")
        if self.opt_tol is not None and not (0 < self.opt_tol < math.inf):
            raise ConfigError(
                f"opt_tol must be positive and finite, got {self.opt_tol}")
        if self.dataset == "synthetic":
            if self.synthetic_n < 1 or self.synthetic_dim < 1:
                raise ConfigError("synthetic dataset needs n >= 1 and dim >= 1")
            if not (1 <= self.synthetic_nnz <= self.synthetic_dim):
                raise ConfigError("synthetic nnz must lie in [1, dim]")


class ConfigKey(NamedTuple):
    """How a config key becomes an ``ExperimentConfig`` field."""
    field: str
    kind: type
    is_list: bool = False  # a comma list, kept as a tuple


# the config schema: every key a config file or flag may set; list keys in
# the order run's one-value check and the repeated-value check read them
CONFIG_KEYS = {
    "dataset": ConfigKey("dataset", str),
    "dim": ConfigKey("declared_dim", int),
    "synthetic_n": ConfigKey("synthetic_n", int),
    "synthetic_dim": ConfigKey("synthetic_dim", int),
    "synthetic_seed": ConfigKey("synthetic_seed", int),
    "synthetic_nnz": ConfigKey("synthetic_nnz", int),
    "lam": ConfigKey("lam", float),
    "algorithms": ConfigKey("algorithms", str, True),
    "T": ConfigKey("t", int),
    "M": ConfigKey("m_list", int, True),
    "K": ConfigKey("k_list", int, True),
    "etas": ConfigKey("etas", float, True),
    "seeds": ConfigKey("seeds", int, True),
    "eval_every": ConfigKey("eval_every", int),
    "opt_tol": ConfigKey("opt_tol", float),
    "out_dir": ConfigKey("out_dir", str),
}


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment, blanks skipped."""
    values: Dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        values[key] = value
    return values


def parse_config_file(path) -> Dict[str, str]:
    return parse_config_text(Path(path).read_text())


def build_config(*layers: Dict[str, str]) -> ExperimentConfig:
    """Merge string-valued layers (later wins) and convert each key to its
    ``ExperimentConfig`` field as ``CONFIG_KEYS`` says: a list key splits on
    commas, and an empty ``opt_tol`` leaves the solver's default."""
    merged = {key: value for layer in layers for key, value in layer.items()}
    for key in merged:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key '{key}'")
    kwargs = {}
    for key, value in merged.items():
        name, kind, is_list = CONFIG_KEYS[key]
        if key == "opt_tol" and value == "":
            kwargs[name] = None
            continue
        try:
            kwargs[name] = tuple(kind(p.strip()) for p in value.split(",")
                                 if p.strip()) if is_list else kind(value)
        except ValueError as exc:
            raise ConfigError(f"key '{key}': {exc}") from None
    return ExperimentConfig(**kwargs)


def resolve_out_dir(flag_value: Optional[str], cfg: ExperimentConfig) -> Path:
    """Output directory precedence: --out flag, then $FEDSIM_OUT, then config."""
    return Path(flag_value or os.environ.get(OUT_DIR_ENV) or cfg.out_dir)


def make_synthetic_logistic(n: int, dim: int, seed: int, nnz: int = 14,
                            flip: float = 0.1) -> Dataset:
    """Random sparse binary-feature classification set in the style of the
    census benchmark: each row has about ``nnz`` indicator features, labels
    come from a planted linear rule with a ``flip`` fraction of label flips.

    The flip uniform is drawn for every row whatever ``flip`` is, so datasets
    that differ only in the flip rate share the same feature matrix."""
    import scipy.sparse as sp

    stream = StreamBundle(seed, [0])
    w_true = stream.gaussians(dim)[0] / math.sqrt(dim)
    indptr = np.zeros(n + 1, dtype=np.int64)
    cols: List[np.ndarray] = []
    labels = np.empty(n)
    for i in range(n):
        idx = np.unique(stream.indices(dim, nnz)[0])
        cols.append(idx)
        margin = w_true[idx].sum()
        flipped = stream.uniforms(1)[0, 0] < flip
        sign = 1.0 if margin >= 0 else -1.0
        labels[i] = -sign if flipped else sign
        indptr[i + 1] = indptr[i] + len(idx)
    indices = np.concatenate(cols).astype(np.int32)
    data = np.ones(len(indices))
    x = sp.csr_matrix((data, indices, indptr), shape=(n, dim))
    return Dataset(X=x, labels=labels)


def build_objective(cfg: ExperimentConfig) -> Tuple[Logistic, Dataset]:
    if cfg.dataset == "synthetic":
        ds = make_synthetic_logistic(cfg.synthetic_n, cfg.synthetic_dim,
                                     cfg.synthetic_seed, cfg.synthetic_nnz)
    else:
        ds = load_dataset(cfg.dataset, cfg.declared_dim)
    return Logistic(ds, cfg.lam), ds


@dataclass(frozen=True)
class OptimumResult:
    w_star: np.ndarray
    f_star: float
    iterations: int
    grad_norm: float


def compute_optimum(obj: Objective, tol: Optional[float] = None,
                    max_iter: int = 10 ** 6) -> OptimumResult:
    """Minimize a strongly convex objective with deterministic accelerated
    descent on exact gradients.

    Stops when the gradient norm at the query point drops to ``tol``
    (default 1e-12 * (1 + |F|), tracking the current value); raises
    OptimumError with the achieved norm if ``max_iter`` updates do not get
    there.  An already-optimal start returns after zero updates.  A ``tol``
    that is not finite and positive raises ValueError.
    """
    if tol is not None and not (0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    agd = AgdStep(obj.l_est, obj.mu_est)
    w = np.zeros(obj.dim)
    w_ag = np.zeros(obj.dim)
    iterations = 0
    while True:
        w_md = agd.couple(w, w_ag)
        value, grad = obj.eval_grad(w_md)
        grad_norm = float(np.linalg.norm(grad))
        threshold = tol if tol is not None else 1e-12 * (1.0 + abs(value))
        if grad_norm <= threshold:
            return OptimumResult(w_md.copy(), float(value), iterations, grad_norm)
        if iterations >= max_iter:
            raise OptimumError(grad_norm, iterations)
        w_ag, w = agd.update(w, w_md, grad)
        iterations += 1


def cached_optimum(obj: Objective, dataset: Dataset, lam: float,
                   tol: Optional[float], cache_path) -> OptimumResult:
    """compute_optimum with a JSON cache keyed by dataset content and lam.

    A cache file that is unreadable or corrupt, or whose entry under the key
    is not as written here, counts as a miss.  Writes replace the file
    atomically, so a reader never sees a partly written cache.
    """
    cache_path = Path(cache_path)
    key = f"{dataset.content_hash()}|lam={lam!r}|tol={tol!r}"
    try:
        cache = json.loads(cache_path.read_text())
    except (OSError, ValueError):
        cache = {}
    if not isinstance(cache, dict):
        cache = {}
    entry, names = cache.get(key), ("w_star", "f_star", "iterations", "grad_norm")
    if isinstance(entry, dict) and all(name in entry for name in names):
        w_star, f_star, iterations, grad_norm = (entry[name] for name in names)
        floats = w_star + [f_star, grad_norm] if isinstance(w_star, list) else []
        if len(floats) == obj.dim + 2 and type(iterations) is int and all(
                type(v) is float and math.isfinite(v) for v in floats):
            return OptimumResult(np.array(w_star), f_star, iterations, grad_norm)
    result = compute_optimum(obj, tol)
    cache[key] = {
        "w_star": [float(v) for v in result.w_star],
        "f_star": result.f_star,
        "iterations": result.iterations,
        "grad_norm": result.grad_norm,
    }
    _replace_text(cache_path, json.dumps(cache, sort_keys=True))
    return result


def _replace_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically: to a temporary file beside
    it, then renamed over it, so a reader sees the old file or the new one
    and never a part of it.  The temporary file is this thread's own, so
    writers in other threads or processes never share or remove it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class EvalRecord(NamedTuple):
    """Suboptimality measured at one step; ``kind`` names the eval point."""

    t: int
    suboptimality: float
    kind: str


@dataclass
class CellResult:
    """All evaluations from one (algorithm, M, K, eta, seed) run."""

    algorithm: str
    m: int
    k: int
    eta: float
    seed: int
    records: List[EvalRecord] = field(default_factory=list)
    rho_suboptimality: Optional[float] = None
    diverged: bool = False

    def best(self) -> float:
        """Best suboptimality over evaluations, including the decay-weighted
        average candidate when present."""
        candidates = [r.suboptimality for r in self.records]
        if self.rho_suboptimality is not None:
            candidates.append(self.rho_suboptimality)
        return min(candidates)


class SweepRow(NamedTuple):
    """Tuned result for one (algorithm, M, K); flagged rows carry nan/inf."""

    algorithm: str
    m: int
    k: int
    best_eta: float
    best_suboptimality: float


def _step_rule(algorithm: str, eta: float, mu: float, k: int):
    """What the kernel steps a cell with: the schedule's ``Hyper`` for the
    accelerated algorithms (``mb_acsgd`` included), eta itself for the
    others.  Raises ScheduleError or ValueError when the schedule is
    infeasible."""
    if algorithm == "fedac1":
        return schedule_fedac1(eta, mu, k)
    if algorithm == "fedac2":
        return schedule_fedac2(eta, mu, k)
    if algorithm in ("fedac_vanilla", "mb_acsgd"):
        return schedule_vanilla(eta, mu)
    return eta


def _chunks(algorithm: str, ms: Sequence[int], ks: Sequence[int],
            cell_bytes: int) -> List[slice]:
    """Cut a stream of replicas into consecutive slices, each as many as fit
    under ``ROW_BUDGET`` state rows (M per replica, M*K streams per minibatch
    chain) and ``TABLE_BYTES`` of eval points (``cell_bytes`` a replica), of
    one (M, K) for the minibatch baselines, and at least one."""
    minibatch = algorithm in _MINIBATCH
    cuts, rows, cells, last = [], ROW_BUDGET, 0, None
    for i, (m, k) in enumerate(zip(ms, ks)):
        size = m * k if minibatch else m
        if rows + size > ROW_BUDGET or (cells + 1) * cell_bytes > TABLE_BYTES \
                or (minibatch and (m, k) != last):
            cuts.append(i)
            rows = cells = 0
        rows, cells, last = rows + size, cells + 1, (m, k)
    return [slice(a, b) for a, b in zip(cuts, cuts[1:] + [len(ms)])]


def run_group(obj: Objective, algorithm: str, m, k,
              replicas: Sequence[Tuple[float, int]], t: int, eval_every: int,
              f_star: float) -> List[CellResult]:
    """Run the (eta, seed) replicas of one algorithm and record F(eval
    point) - F* every ``eval_every`` steps; one CellResult per replica, in
    order.  ``m`` and ``k`` are the M and K of every replica or one of each
    per replica; the minibatch baselines take one M and one K in all, since
    they take T/K chain steps.

    All the replicas run in one call of the step kernel,
    ``run_replicas`` (``_run_minibatch`` for the minibatch baselines), a
    call holding replicas of any M and K.  The kernel callback only writes
    the evaluation points into one nan-filled (cells, T/eval_every + 2,
    dim) table, whose last column takes FedAvg's decay-weighted averages;
    F is evaluated after the call, by ``_suboptimalities`` over the table's
    finite rows, with the replicas' common start point entered once.  Each
    value is that of ``obj.eval`` at its point, so the records do not
    depend on which replicas share the call.  Divergence (non-finite
    iterates, after which the kernel freezes the replica and its later
    points are cleared), a non-finite evaluation point and schedule
    infeasibility at large eta all leave non-finite rows, which yield +inf
    suboptimality, so tuning naturally discards them; a group with no
    feasible schedule makes no kernel call.
    Evaluation never consumes random draws.  Floating-point warnings are
    ignored here, whatever the caller's ``np.errstate``: divergence is an
    expected outcome that the records report.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm '{algorithm}'")
    ms, ks = (np.full(len(replicas), v) if np.ndim(v) == 0 else np.asarray(v)
              for v in (m, k))
    minibatch = algorithm in _MINIBATCH
    if ms.shape != ks.shape or len(ms) != len(replicas) or \
            (minibatch and len({*zip(ms, ks)}) > 1):
        raise ConfigError(f"{algorithm} needs one M and one K per replica "
                          f"(one in all for minibatch): M={m!r} K={k!r}")
    kind = "avg_ag" if algorithm in _ACCELERATED else "avg_w"
    mu = obj.mu_est
    cells = [CellResult(algorithm, int(mc), int(kc), float(eta), seed)
             for (eta, seed), mc, kc in zip(replicas, ms, ks)]
    # the kernel's state rows per replica: one per minibatch chain
    widths = np.ones_like(ms) if minibatch else ms
    # per cell: the eval point of each eval step, then FedAvg's weighted
    # average; nan where no run wrote one or after the cell diverged
    points = np.full((len(cells), t // eval_every + 2, obj.dim), np.nan)

    with np.errstate(all="ignore"):
        runnable, rules = [], []
        for i, cell in enumerate(cells):
            try:
                rules.append(_step_rule(algorithm, cell.eta, mu, cell.k))
                runnable.append(i)
            except (ScheduleError, ValueError):
                cell.diverged = True
        rows = np.array(runnable, dtype=int)

        def observe(step: int, w: np.ndarray, w_ag: Optional[np.ndarray]):
            """Callback writing each replica's eval point into ``points``."""
            if step % eval_every == 0:
                points[rows, step // eval_every] = replica_mean(
                    w_ag if kind == "avg_ag" else w, widths[rows])

        if runnable:
            run = _run_minibatch if minibatch else run_replicas
            mc, kc = (int(ms[0]), int(ks[0])) if minibatch else \
                (ms[rows], ks[rows])
            result = run(obj, mc, t, kc, rules, [cells[i].seed for i in rows],
                         callback=observe)
            if result.rho_avg_w is not None:
                points[rows, -1] = result.rho_avg_w
            for i, bad in zip(rows, result.diverged):
                cells[i].diverged = bad is not None
                if bad is not None:  # the frozen replica's later points
                    points[i, bad[0] // eval_every + 1:] = np.nan
        # every replica starts at the same point: F is taken there once
        points[runnable[1:], 0] = np.nan
        gaps = _suboptimalities(obj, points.reshape(-1, obj.dim),
                                f_star).reshape(points.shape[:2])
        gaps[runnable, 0] = gaps[runnable[:1], 0]
    for cell, row in zip(cells, gaps.tolist()):
        cell.records = [EvalRecord(ts, sub, kind)
                        for ts, sub in zip(range(0, t + 1, eval_every), row)]
        if algorithm == "fedavg" and not cell.diverged:
            cell.rho_suboptimality = row[-1]
    return cells


def _suboptimalities(obj: Objective, points: np.ndarray,
                     f_star: float) -> np.ndarray:
    """F(point) - F* for each row of ``points``; +inf where the gap is not
    finite, and without evaluating F where the point is not.  ``eval_many``
    takes at most ``TABLE_BYTES // 16`` bytes of points per call."""
    finite = np.flatnonzero(np.isfinite(points).all(axis=1))
    gaps = np.full(len(points), math.inf)
    size = max(1, TABLE_BYTES // 16 // (points.itemsize * points.shape[1]))
    for a in range(0, finite.size, size):
        rows = finite[a:a + size]
        gaps[rows] = obj.eval_many(points[rows]) - f_star
    gaps[~np.isfinite(gaps)] = math.inf
    return gaps


def run_cell(obj: Objective, algorithm: str, m: int, k: int, eta: float,
             t: int, seed: int, eval_every: int, f_star: float) -> CellResult:
    """Run one experiment cell: a ``run_group`` of one replica."""
    return run_group(obj, algorithm, m, k, [(eta, seed)], t, eval_every,
                     f_star)[0]


def _usable_cpus() -> int:
    """The CPUs this process may run on: the cap on sweep workers."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _adopt(run_one) -> None:
    """Pool initializer: the forked worker's ``tune_and_sweep`` task runner."""
    global _run_one
    _run_one = run_one


def _run_adopted(task):
    try:
        return _run_one(task)
    except KeyboardInterrupt:  # end this worker: the broken pool ends the rest
        os._exit(1)


def tune_and_sweep(cfg: ExperimentConfig, obj: Objective, f_star: float,
                   threads: int = 1) -> Tuple[List[CellResult], List[SweepRow]]:
    """Run the full sweep and tune eta per (algorithm, M, K).

    Each algorithm's cells, in canonical (M, K, eta, seed) order, form one
    stream across every M and K, and ``_chunks`` cuts each stream into the
    sweep's tasks; a task is one ``run_group`` call.  ``threads`` (an
    integer >= 1, else ConfigError) caps the worker processes: above 1,
    where the ``fork`` start method exists, min(threads, usable CPUs,
    tasks) forked workers run the tasks, most gradient queries first; they
    inherit ``obj`` copy-on-write and send back only the cells.  A worker
    that dies raises ``BrokenProcessPool``.  Otherwise the same tasks run
    in order in this process.  The cells come back in canonical order, so
    the output is the same for any worker count.  Per cell the
    best-over-time suboptimality is taken, then the median across seeds;
    the eta minimizing that median wins, ties going to the smaller eta.  If
    every eta diverges the row is flagged with best_eta = nan.
    """
    if not isinstance(threads, int) or threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    replicas = [(eta, seed) for eta in cfg.etas for seed in cfg.seeds]
    cell_bytes = (cfg.t // cfg.eval_every + 2) * obj.dim * 8
    ms, ks, reps = zip(*[(m, k, rep) for m in cfg.m_list for k in cfg.k_list
                         for rep in replicas])
    tasks = [(alg, ms[part], ks[part], reps[part]) for alg in cfg.algorithms
             for part in _chunks(alg, ms, ks, cell_bytes)]

    def one(task):
        return run_group(obj, *task, cfg.t, cfg.eval_every, f_star)

    workers = min(threads, _usable_cpus(), len(tasks))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        from concurrent.futures import ProcessPoolExecutor  # pooled runs only
        # no BLAS re-pin: F's bits depend on its threads
        ranked = sorted(tasks, key=lambda task: -sum(task[1]))
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 _adopt, (one,)) as pool:
            done = dict(zip(ranked, pool.map(_run_adopted, ranked)))
        results = [done[task] for task in tasks]
    else:
        results = [one(task) for task in tasks]

    cells = [cell for task_cells in results for cell in task_cells]
    rows = []
    for first in range(0, len(cells), len(replicas)):
        tuned = cells[first:first + len(replicas)]
        best_eta, best_med = math.nan, math.inf
        for i, eta in enumerate(cfg.etas):
            per_seed = tuned[i * len(cfg.seeds):(i + 1) * len(cfg.seeds)]
            med = statistics.median(c.best() for c in per_seed)
            if med < best_med:
                best_eta, best_med = eta, med
        rows.append(SweepRow(tuned[0].algorithm, tuned[0].m, tuned[0].k,
                             best_eta, best_med))
    return cells, rows


class RecordRow(NamedTuple):
    """One line of the records artifact."""

    algorithm: str
    m: int
    k: int
    eta: float
    seed: int
    t: int
    suboptimality: float


RECORD_HEADER = "algorithm,M,K,eta,seed,t,suboptimality"
SWEEP_HEADER = "algorithm,M,K,best_eta,best_suboptimality"


def records_to_rows(cells: Sequence[CellResult]) -> List[RecordRow]:
    return [RecordRow(c.algorithm, c.m, c.k, c.eta, c.seed, r.t, r.suboptimality)
            for c in cells for r in c.records]


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))  # shortest round-trip decimal


def _write_lines(path, lines: Sequence[str]) -> None:
    path = Path(path)
    try:
        _replace_text(path, "\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_records_csv(cells: Sequence[CellResult], path) -> None:
    _write_lines(path, [RECORD_HEADER] + [",".join([r[0], *map(_fmt, r[1:])])
                                          for r in records_to_rows(cells)])


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    _write_lines(path, [SWEEP_HEADER] + [",".join([r[0], *map(_fmt, r[1:])])
                                         for r in rows])


def read_records_csv(path) -> List[RecordRow]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != RECORD_HEADER:
        raise ValueError(f"{path}: missing records header")
    return [RecordRow(alg, int(m), int(k), float(eta), int(seed), int(t),
                      float(sub)) for alg, m, k, eta, seed, t, sub in
            (line.split(",") for line in lines[1:])]


def read_sweep_csv(path) -> List[SweepRow]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        raise ValueError(f"{path}: missing sweep header")
    return [SweepRow(alg, int(m), int(k), float(eta), float(sub))
            for alg, m, k, eta, sub in (line.split(",") for line in lines[1:])]


def write_records_json(cells: Sequence[CellResult], path) -> None:
    payload = [row._asdict() for row in records_to_rows(cells)]
    _write_lines(path, [json.dumps(payload)])


def write_sweep_json(rows: Sequence[SweepRow], path) -> None:
    payload = [{"algorithm": r.algorithm, "M": r.m, "K": r.k,
                "best_eta": r.best_eta, "best_suboptimality": r.best_suboptimality}
               for r in rows]
    _write_lines(path, [json.dumps(payload)])
