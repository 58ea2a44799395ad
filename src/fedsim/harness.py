"""Experiment orchestration: optima, evaluation protocol, sweeps, and artifacts.

The harness turns a flat configuration into suboptimality curves.  For each
cell (algorithm, M, K, eta, seed) it runs the corresponding driver with an
evaluation callback that takes the eval point on a fixed step cadence, and
records F(eval point) - F* there; it then tunes eta per (algorithm, M, K) by
the best suboptimality attained over evaluations, taking the median across
seeds.  The cells of one (algorithm, M, K) group run together through the
one step kernel (``algorithms.run_replicas``, onto which
``algorithms._run_minibatch`` maps the minibatch baselines), as many (eta,
seed) replicas per call as fit under ``ROW_BUDGET`` state rows, with every
cell's bits the same as a run of its own.  Evaluations are deferred to the
end of the group: the callback only queues the points, and one
``Objective.eval_many`` call evaluates all of them, so F is computed in one
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
import os
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .algorithms import (AgdStep, ScheduleError, _run_minibatch, replica_mean,
                         run_replicas, schedule_fedac1, schedule_fedac2,
                         schedule_vanilla)
from .dataio import Dataset, load_dataset
from .objectives import Logistic, Objective
from .rng import RngStream

ALGORITHMS = ("fedac1", "fedac2", "fedac_vanilla", "fedavg", "mb_sgd", "mb_acsgd")
_ACCELERATED = {"fedac1", "fedac2", "fedac_vanilla", "mb_acsgd"}
_MINIBATCH = {"mb_sgd", "mb_acsgd"}

# state rows per kernel call (M per replica, M*K for the minibatch chains);
# far more rows in flight ran slower than one replica at a time
ROW_BUDGET = 1024

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
    """One sweep definition; every list field is a tuple in canonical order."""

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
        if not (self.lam > 0):
            raise ConfigError(f"lam must be positive, got {self.lam}")
        if self.opt_tol is not None and not (0 < self.opt_tol < math.inf):
            raise ConfigError(
                f"opt_tol must be positive and finite, got {self.opt_tol}")
        if self.dataset == "synthetic":
            if self.synthetic_n < 1 or self.synthetic_dim < 1:
                raise ConfigError("synthetic dataset needs n >= 1 and dim >= 1")
            if not (1 <= self.synthetic_nnz <= self.synthetic_dim):
                raise ConfigError("synthetic nnz must lie in [1, dim]")


_CONFIG_KEYS = {
    "dataset": str,
    "dim": int,
    "synthetic_n": int,
    "synthetic_dim": int,
    "synthetic_seed": int,
    "synthetic_nnz": int,
    "lam": float,
    "algorithms": str,
    "T": int,
    "K": int,
    "M": int,
    "etas": float,
    "seeds": int,
    "eval_every": int,
    "opt_tol": float,
    "out_dir": str,
}
_LIST_KEYS = {"algorithms", "K", "M", "etas", "seeds"}


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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        values[key] = value
    return values


def parse_config_file(path) -> Dict[str, str]:
    return parse_config_text(Path(path).read_text())


def build_config(*layers: Dict[str, str]) -> ExperimentConfig:
    """Merge string-valued layers (later wins) and convert to a typed config."""
    merged: Dict[str, str] = {}
    for layer in layers:
        for key, value in layer.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown key '{key}'")
            merged[key] = value

    def convert(key, value):
        kind = _CONFIG_KEYS[key]
        if key in _LIST_KEYS:
            items = [p.strip() for p in value.split(",") if p.strip()]
            try:
                return tuple(kind(p) for p in items)
            except ValueError as exc:
                raise ConfigError(f"key '{key}': {exc}") from None
        try:
            return kind(value)
        except ValueError as exc:
            raise ConfigError(f"key '{key}': {exc}") from None

    kwargs = {}
    rename = {"T": "t", "K": "k_list", "M": "m_list", "dim": "declared_dim"}
    for key, value in merged.items():
        if key == "opt_tol" and value == "":
            kwargs["opt_tol"] = None
            continue
        kwargs[rename.get(key, key)] = convert(key, value)
    return ExperimentConfig(**kwargs)


def resolve_out_dir(flag_value: Optional[str], cfg: ExperimentConfig) -> Path:
    """Output directory precedence: --out flag, then $FEDSIM_OUT, then config."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(cfg.out_dir)


def make_synthetic_logistic(n: int, dim: int, seed: int, nnz: int = 14,
                            flip: float = 0.1) -> Dataset:
    """Random sparse binary-feature classification set in the style of the
    census benchmark: each row has about ``nnz`` indicator features, labels
    come from a planted linear rule with a ``flip`` fraction of label flips.

    The flip uniform is drawn for every row whatever ``flip`` is, so datasets
    that differ only in the flip rate share the same feature matrix."""
    import scipy.sparse as sp

    stream = RngStream(seed, 0)
    w_true = stream.gaussians(dim) / math.sqrt(dim)
    indptr = np.zeros(n + 1, dtype=np.int64)
    cols: List[np.ndarray] = []
    labels = np.empty(n)
    for i in range(n):
        idx = np.unique(stream.indices(dim, nnz))
        cols.append(idx)
        margin = w_true[idx].sum()
        flipped = stream.uniforms(1)[0] < flip
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

    An unreadable or corrupt cache file counts as a miss.  Writes replace the
    file atomically, so a reader never sees a partly written cache.
    """
    cache_path = Path(cache_path)
    key = f"{dataset.content_hash()}|lam={lam!r}|tol={tol!r}"
    try:
        cache = json.loads(cache_path.read_text())
    except (OSError, ValueError):
        cache = {}
    if not isinstance(cache, dict):
        cache = {}
    if key in cache:
        entry = cache[key]
        return OptimumResult(np.array(entry["w_star"]), entry["f_star"],
                             entry["iterations"], entry["grad_norm"])
    result = compute_optimum(obj, tol)
    cache[key] = {
        "w_star": [float(v) for v in result.w_star],
        "f_star": result.f_star,
        "iterations": result.iterations,
        "grad_norm": result.grad_norm,
    }
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache_path.with_name(f"{cache_path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(cache, sort_keys=True))
        os.replace(tmp, cache_path)
    finally:
        tmp.unlink(missing_ok=True)
    return result


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


def run_group(obj: Objective, algorithm: str, m: int, k: int,
              replicas: Sequence[Tuple[float, int]], t: int, eval_every: int,
              f_star: float) -> List[CellResult]:
    """Run the (eta, seed) replicas of one (algorithm, M, K) group and record
    F(eval point) - F* every ``eval_every`` steps; one CellResult per
    replica, in order.

    Every algorithm runs its replicas in chunks through the one step kernel:
    ``run_replicas`` for the federated algorithms, ``_run_minibatch`` for the
    minibatch baselines, each call holding as many replicas as fit under
    ``ROW_BUDGET`` state rows, and at least one.  The kernel callback only
    queues the evaluation points; F is evaluated after the last chunk, in
    one ``obj.eval_many`` call over every point of the group and FedAvg's
    decay-weighted averages, with the replicas' common start point entered
    once.  Each value is that of ``obj.eval`` at its point, so the records
    do not depend on the chunking.  Divergence (non-finite iterates), a
    non-finite evaluation point and schedule infeasibility at large eta all
    yield +inf suboptimality, so tuning naturally discards them.
    Evaluation never consumes random draws.  Floating-point warnings are
    ignored here, whatever the caller's ``np.errstate``: divergence is an
    expected outcome that the records report.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm '{algorithm}'")
    kind = "avg_ag" if algorithm in _ACCELERATED else "avg_w"
    expected = range(0, t + 1, eval_every)
    mu = obj.mu_est
    cells = [CellResult(algorithm, m, k, float(eta), seed)
             for eta, seed in replicas]
    batch: List[np.ndarray] = []  # (rows, dim) blocks of evaluation points
    queued = 0  # rows in ``batch``
    # (cell, record index or None for the weighted average, batch row)
    slots: List[Tuple[CellResult, Optional[int], int]] = []
    start: List[int] = []  # batch row of the replicas' common start point

    def enqueue(points: np.ndarray) -> range:
        """Append the rows of ``points``, which the caller no longer
        writes, to the batch; return their batch rows."""
        nonlocal queued
        batch.append(points)
        queued += len(points)
        return range(queued - len(points), queued)

    def observer(group: List[CellResult]):
        """Callback queueing the eval point of ``group[r]`` for each live r."""
        def observe(step: int, live, w: np.ndarray,
                    w_ag: Optional[np.ndarray]) -> None:
            if step % eval_every == 0:
                state = w_ag if kind == "avg_ag" else w
                # a new array, not a view of the state the kernel updates
                means = replica_mean(state, state.shape[0] // len(live))
                if step == 0:
                    # every replica starts at the same point
                    if not start:
                        start.extend(enqueue(means[:1]))
                    rows = start * len(live)
                else:
                    rows = enqueue(means)
                for r, row in zip(live, rows):
                    cell = group[r]
                    slots.append((cell, len(cell.records), row))
                    cell.records.append(EvalRecord(step, math.nan, kind))
        return observe

    def diverge(cell: CellResult) -> None:
        cell.diverged = True
        cell.records.extend(EvalRecord(ts, math.inf, kind)
                            for ts in expected[len(cell.records):])

    with np.errstate(all="ignore"):
        runnable, rules = [], []
        for cell in cells:
            try:
                rules.append(_step_rule(algorithm, cell.eta, mu, k))
                runnable.append(cell)
            except (ScheduleError, ValueError):
                diverge(cell)
        minibatch = algorithm in _MINIBATCH
        run = _run_minibatch if minibatch else run_replicas
        per_call = max(1, ROW_BUDGET // (m * k if minibatch else m))
        for first in range(0, len(runnable), per_call):
            chunk = runnable[first:first + per_call]
            result = run(obj, m, t, k, rules[first:first + per_call],
                         [c.seed for c in chunk], callback=observer(chunk))
            rho = None if result.rho_avg_w is None else enqueue(result.rho_avg_w)
            for i, cell in enumerate(chunk):
                if result.diverged[i] is not None:
                    diverge(cell)
                elif rho is not None:
                    slots.append((cell, None, rho[i]))
        subs = _suboptimalities(obj, np.concatenate(batch), f_star) if batch else []
        for cell, index, row in slots:
            if index is None:
                cell.rho_suboptimality = subs[row]
            else:
                cell.records[index] = cell.records[index]._replace(
                    suboptimality=subs[row])
    return cells


def _suboptimalities(obj: Objective, points: np.ndarray,
                     f_star: float) -> List[float]:
    """F(point) - F* for each row of ``points``; +inf where the gap is not
    finite, and without evaluating F where the point is not."""
    finite = np.isfinite(points).all(axis=1)
    gaps = np.full(len(points), math.inf)
    if finite.any():
        gaps[finite] = obj.eval_many(points[finite]) - f_star
    gaps[~np.isfinite(gaps)] = math.inf
    return gaps.tolist()


def run_cell(obj: Objective, algorithm: str, m: int, k: int, eta: float,
             t: int, seed: int, eval_every: int, f_star: float) -> CellResult:
    """Run one experiment cell: a ``run_group`` of one replica."""
    return run_group(obj, algorithm, m, k, [(eta, seed)], t, eval_every,
                     f_star)[0]


def tune_and_sweep(cfg: ExperimentConfig, obj: Objective, f_star: float,
                   threads: int = 1) -> Tuple[List[CellResult], List[SweepRow]]:
    """Run the full sweep and tune eta per (algorithm, M, K).

    Each (algorithm, M, K) group runs all its (eta, seed) replicas through
    ``run_group``.  Groups run independently (optionally on a thread pool)
    and cells are always assembled in canonical nested order (algorithm, M,
    K, eta, seed), so the output is identical for any thread count.  Per
    cell the best-over-time suboptimality is taken, then the median across
    seeds; the eta minimizing that median wins, ties going to the smaller
    eta.  If every eta diverges the row is flagged with best_eta = nan.
    """
    etas = tuple(sorted(cfg.etas))
    replicas = [(eta, seed) for eta in etas for seed in cfg.seeds]
    groups = [(alg, m, k) for alg in cfg.algorithms for m in cfg.m_list
              for k in cfg.k_list]

    def one(group):
        alg, m, k = group
        return run_group(obj, alg, m, k, replicas, cfg.t, cfg.eval_every, f_star)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, groups))
    else:
        results = [one(group) for group in groups]

    cells, rows = [], []
    for (alg, m, k), group_cells in zip(groups, results):
        cells.extend(group_cells)
        best_eta, best_med = math.nan, math.inf
        for i, eta in enumerate(etas):
            per_seed = group_cells[i * len(cfg.seeds):(i + 1) * len(cfg.seeds)]
            med = statistics.median(c.best() for c in per_seed)
            if med < best_med:
                best_eta, best_med = eta, med
        rows.append(SweepRow(alg, m, k, best_eta, best_med))
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
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_records_csv(cells: Sequence[CellResult], path) -> None:
    lines = [RECORD_HEADER]
    for r in records_to_rows(cells):
        lines.append(",".join([r.algorithm, _fmt(r.m), _fmt(r.k), _fmt(r.eta),
                               _fmt(r.seed), _fmt(r.t), _fmt(r.suboptimality)]))
    _write_lines(path, lines)


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(",".join([row.algorithm, _fmt(row.m), _fmt(row.k),
                               _fmt(row.best_eta), _fmt(row.best_suboptimality)]))
    _write_lines(path, lines)


def read_records_csv(path) -> List[RecordRow]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != RECORD_HEADER:
        raise ValueError(f"{path}: missing records header")
    out = []
    for line in lines[1:]:
        alg, m, k, eta, seed, t, sub = line.split(",")
        out.append(RecordRow(alg, int(m), int(k), float(eta), int(seed),
                             int(t), float(sub)))
    return out


def read_sweep_csv(path) -> List[SweepRow]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        raise ValueError(f"{path}: missing sweep header")
    out = []
    for line in lines[1:]:
        alg, m, k, eta, sub = line.split(",")
        out.append(SweepRow(alg, int(m), int(k), float(eta), float(sub)))
    return out


def write_records_json(cells: Sequence[CellResult], path) -> None:
    payload = [row._asdict() for row in records_to_rows(cells)]
    _write_lines(path, [json.dumps(payload)])


def write_sweep_json(rows: Sequence[SweepRow], path) -> None:
    payload = [{"algorithm": r.algorithm, "M": r.m, "K": r.k,
                "best_eta": r.best_eta, "best_suboptimality": r.best_suboptimality}
               for r in rows]
    _write_lines(path, [json.dumps(payload)])
