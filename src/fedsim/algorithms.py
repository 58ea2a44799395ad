"""Distributed optimization drivers: FedAc, FedAvg, minibatch baselines, AGD.

All drivers share conventions:

* M workers evolve in lockstep over T parallel steps; synchronization happens
  after local steps t with ``(t + 1) % K == 0``, i.e. after steps K-1, 2K-1,
  and so on, so every run ends on a synchronized state when K divides T.
* Worker m draws from the counter-based stream ``(seed, m)``; the minibatch
  baselines draw from streams ``(seed, 0..M*K-1)``, one draw per chain step
  each, so equivalence tests can share randomness bit for bit.
* Averages over workers use ``worker_mean`` (numpy mean over the worker axis,
  pairwise summation in fixed index order) -- the canonical reduction order
  that makes results independent of scheduling.  ``replica_mean`` takes the
  same mean for several stacked runs at once, bit for bit.
* ``callback(t, W, W_ag)`` is invoked with read-only views of the state
  before step t and once more at t = T.  The kernel updates the state in
  place, so the views are valid only until the callback returns; a callback
  that keeps a state copies it.  Drivers never draw randomness for
  evaluation, so observation cannot perturb trajectories.
* ``run_replicas`` is the one step kernel: it runs any number of
  (hyperparameters, M, K, seed) replicas side by side, a diverged one
  frozen in place.  ``fedac_run`` and ``fedavg_run`` are its one-replica
  calls; ``_run_minibatch`` runs both minibatch baselines on its batch rows,
  and ``mb_sgd_run`` and ``mb_acsgd_run`` are its one-replica calls.
* FedAvg's decay-weighted average and ``mb_acsgd_run``'s schedule take mu
  from ``obj.mu_est``; ``mu_est = 0`` gives the uniform average.

A trajectory is a pure function of ``(config, seed)``: rerunning with any
sweep worker count, or beside any other replicas, reproduces it exactly.
Artifacts are byte-identical per BLAS thread count and per CPU dispatch
class.  The drivers use no BLAS.  The evaluations of F and the optimum F*
do, and a multi-threaded BLAS splits a gemv's rows between its threads,
which for some dataset sizes moves the last bits of F; byte-stable
artifacts across hosts need ``OPENBLAS_NUM_THREADS=1``.  numpy's AVX-512
``exp``/``log1p``/``log``/``cos`` loops round differently from its other
SIMD levels, which moves F's loss terms and the Gaussian draws of the
``Quadratic`` oracle's noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .objectives import Objective, _as_row
from .rng import StreamBundle

Callback = Callable[[int, np.ndarray, Optional[np.ndarray]], None]


class ScheduleError(ValueError):
    """Raised when a hyperparameter schedule is undefined for the inputs."""


class DivergenceError(ArithmeticError):
    """A worker iterate became non-finite; carries the parallel step and the
    worker index.  The minibatch baselines, which take one step per K
    parallel steps, report the last parallel step of the failing round."""

    def __init__(self, step: int, worker: int):
        self.step = int(step)
        self.worker = int(worker)
        super().__init__(f"non-finite iterate at step {step}, worker {worker}")


@dataclass(frozen=True)
class Hyper:
    """Acceleration hyperparameters (eta, gamma, alpha, beta)."""

    eta: float
    gamma: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.eta > 0):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not (self.gamma >= self.eta):
            raise ValueError(f"gamma must be >= eta, got gamma={self.gamma} eta={self.eta}")
        if not (self.alpha >= 1 and self.beta >= 1):
            raise ValueError(f"alpha and beta must be >= 1, got {self.alpha}, {self.beta}")


@dataclass
class RunResult:
    """Final synchronized averages plus bookkeeping from one driver run.

    ``gradient_calls`` counts per-worker gradient queries times the worker
    count for the federated drivers (M*T) and per-worker queries alone for
    the minibatch baselines (T: each of the T/K steps charges K queries to
    every one of the M conceptual workers).  ``rho_avg_w`` is FedAvg's
    decay-weighted average point; the other drivers leave it None.
    """

    final_avg_w: np.ndarray
    final_avg_w_ag: np.ndarray
    gradient_calls: int
    rho_avg_w: Optional[np.ndarray] = None


def worker_mean(a: np.ndarray) -> np.ndarray:
    """Canonical average over the worker axis (fixed order, pairwise summation)."""
    return np.mean(a, axis=0)


def _schedule_gamma(eta: float, mu: float, k: int) -> float:
    return max(math.sqrt(eta / (mu * k)), eta)


def _validate_schedule_args(eta: float, mu: float, k: int = 1) -> None:
    if not (eta > 0):
        raise ScheduleError(f"eta must be positive, got {eta}")
    if not (mu > 0):
        raise ScheduleError(f"mu must be positive, got {mu}")
    if k < 1:
        raise ScheduleError(f"K must be >= 1, got {k}")


def schedule_fedac1(eta: float, mu: float, k: int) -> Hyper:
    """First acceleration schedule: gamma = max(sqrt(eta/(mu K)), eta),
    alpha = 1/(gamma mu), beta = alpha + 1."""
    _validate_schedule_args(eta, mu, k)
    gamma = _schedule_gamma(eta, mu, k)
    alpha = 1.0 / (gamma * mu)
    return Hyper(eta, gamma, alpha, alpha + 1.0)


def schedule_fedac2(eta: float, mu: float, k: int) -> Hyper:
    """Second acceleration schedule: same gamma, alpha = 3/(2 gamma mu) - 1/2,
    beta = (2 alpha**2 - 1)/(alpha - 1).  Requires gamma * mu < 1."""
    _validate_schedule_args(eta, mu, k)
    gamma = _schedule_gamma(eta, mu, k)
    alpha = 3.0 / (2.0 * gamma * mu) - 0.5
    if alpha <= 1.0:
        raise ScheduleError(
            f"schedule undefined: alpha = {alpha} <= 1 (gamma * mu = {gamma * mu} >= 1); "
            "reduce eta"
        )
    beta = (2.0 * alpha * alpha - 1.0) / (alpha - 1.0)
    return Hyper(eta, gamma, alpha, beta)


def schedule_vanilla(eta: float, mu: float) -> Hyper:
    """Single-machine accelerated schedule: gamma = sqrt(eta/mu) with no
    synchronization-interval correction."""
    _validate_schedule_args(eta, mu)
    gamma = math.sqrt(eta / mu)
    alpha = 1.0 / (gamma * mu)
    return Hyper(eta, gamma, alpha, alpha + 1.0)


def _read_only(a: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if a is None:
        return None
    view = a.view()
    view.setflags(write=False)
    return view


def _validate_run_args(m: int, t: int, k: int) -> None:
    if m < 1 or t < 1 or k < 1:
        raise ValueError(f"M, T, K must all be >= 1, got M={m} T={t} K={k}")


def _runs(*columns) -> List[Tuple[int, int]]:
    """``(first, stop)`` of each run of replicas equal in every column."""
    n = len(columns[0])
    cuts = [r for r in range(n + 1)
            if r in (0, n) or any(c[r] != c[r - 1] for c in columns)]
    return list(zip(cuts, cuts[1:]))


def _mean_into(blocks: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """``replica_mean`` of the (R, M, dim) ``blocks``, written into ``out``."""
    np.add.reduce(blocks, axis=1, out=out)
    return np.divide(out, m, out=out)


def replica_mean(a: np.ndarray, m) -> np.ndarray:
    """Worker averages of stacked replicas, each M rows in turn (``m`` one
    M or one per replica): row r equals ``worker_mean`` of replica r's rows
    bit for bit, as ``np.mean`` is this sum divided by the count, without
    the wrapper's per-call overhead.  Raises ValueError unless the M
    values cover exactly the rows of ``a``."""
    if np.ndim(m) == 0:
        m = [m] * (len(a) // m)
    first, out = np.cumsum([0, *m]), np.empty((len(m), a.shape[-1]))
    if first[-1] != len(a):
        raise ValueError(f"M values sum to {first[-1]}, not {len(a)} rows")
    for i, j in _runs(m):
        _mean_into(a[first[i]:first[j]].reshape(j - i, m[i], -1), m[i], out[i:j])
    return out


def _bad_workers(state: Sequence[np.ndarray], m: int) -> List[Optional[int]]:
    """For each replica's block of M rows: the lowest worker whose row of
    ``state[0]`` (w) is non-finite, else of ``state[1]`` (w_ag), else None."""
    blocks = [np.isfinite(a).all(axis=1).reshape(-1, m) for a in state]
    bad: List[Optional[int]] = []
    for rows in zip(*blocks):
        failed = [ok for ok in rows if not ok.all()]
        bad.append(int(np.argmin(failed[0])) if failed else None)
    return bad


@dataclass
class ReplicaResult:
    """Per-replica outcome of ``run_replicas``, one row per replica.

    ``diverged[r]`` is the ``(step, worker)`` at which replica r's ``w`` (or,
    if ``w`` stayed finite, its ``w_ag``) first went non-finite, or None.
    A diverged replica's rows of the final averages and of ``rho_avg_w``
    are nan.  ``gradient_calls[r]`` counts as in ``RunResult``, up to the
    step where the call stops: a frozen replica's queries count.
    """

    final_avg_w: np.ndarray
    final_avg_w_ag: np.ndarray
    gradient_calls: List[int]
    diverged: List[Optional[Tuple[int, int]]]
    rho_avg_w: Optional[np.ndarray] = None


class _Run(NamedTuple):
    """Views of a run of replicas with equal M over its ``rows`` of the state,
    one row of M*dim per replica: ``w`` (and FedAc's ``ag`` and ``md``), the
    gradients ``g`` (``batch`` rows per state row) and the step's temporary
    ``tmp``, as wide as ``g`` for SGD and as ``w`` for FedAc; ``w3`` is ``w``
    as (R, M, dim), ``mean`` its mean-buffer rows, ``h`` its hyperparameters."""

    m: int
    rows: slice
    w: np.ndarray
    ag: Optional[np.ndarray]
    md: Optional[np.ndarray]
    tmp: np.ndarray
    g: np.ndarray
    w3: np.ndarray
    mean: np.ndarray
    h: Dict[str, np.ndarray]


def run_replicas(obj: Objective, m, t: int, k, steps: Sequence,
                 seeds: Sequence[int], w0=None,
                 callback: Optional[Callback] = None) -> ReplicaResult:
    """R independent runs in lockstep, replica r as the next M state rows.

    Replica r draws from the streams ``(seeds[r], worker)`` and steps with
    ``steps[r]``: a ``Hyper`` runs FedAc (see ``fedac_run``), a plain step
    size runs FedAvg (see ``fedavg_run``; its decay-weighted average takes
    mu = ``obj.mu_est``, and 0 gives the uniform average).  ``m`` and ``k``
    are the worker count and sync interval of every replica, or one value
    per replica: after step s, the replicas whose K divides s + 1 average
    and broadcast their rows, each run of consecutive replicas with equal M
    and K as one block of rows.  Every replica follows the same float
    expressions as a run of its own, its hyperparameters held as columns
    that scale each run of equal M as one (replicas, M*dim) array, so each
    replica is bit-identical to the run it stands for.  ``w0`` is every
    replica's start point (None is the origin) or an (R, dim) array of one
    start row per replica.

    ``callback(t, W, W_ag)`` is invoked before step t and at t = T with
    read-only views of every replica's state rows, valid until the callback
    returns.  A replica whose iterates go non-finite at step s is recorded
    in ``diverged`` and frozen: its rows are reset to its start row and
    its step sizes to zero.  It keeps its share of oracle work until T, or
    until every replica has diverged, when the call ends at once.  So the
    kernel ignores floating-point overflow and invalid operations, whatever
    the caller's ``np.errstate``, and callbacks run under that setting.
    """
    return _replicas(obj, m, t, k, steps, seeds, w0, callback)


@np.errstate(over="ignore", invalid="ignore")
def _replicas(obj: Objective, m, t: int, k, steps: Sequence,
              seeds: Sequence[int], w0, callback: Optional[Callback],
              batch: int = 1) -> ReplicaResult:
    """The body of ``run_replicas``.  ``batch`` > 1 runs the minibatch
    baselines, which take no decay-weighted average: each of the M = 1
    state rows queries ``batch`` streams.  A step size averages the
    candidates ``w - eta*g_j`` back into the row, which is FedAvg on
    M*batch workers at K = 1 without its equal rows; a ``Hyper`` steps on
    the batch's mean gradient, taken into the ``mean`` rows.

    After each step the due blocks of equal (M, K) sync in place and every
    row is checked: a synced replica's rows are copies of its mean, so a
    blow-up there reports worker 0.  M = 1 builds no blocks.  A frozen
    replica only takes convex combinations of its start row, so the check
    trips only on new divergences.

    Every step is written in place, in the operation order of the plain
    expressions, into arrays and views built once: a ``_Run`` per run of
    equal M, and (K, M, state, mean rows) per run of equal (M, K), M > 1.
    """
    if not seeds or len(steps) != len(seeds):
        raise ValueError(f"need one step rule per seed, got {len(steps)} "
                         f"for {len(seeds)}")
    reps, dim = len(seeds), obj.dim
    ms, ks = (np.full(reps, v) if np.ndim(v) == 0 else np.asarray(v)
              for v in (m, k))
    if ms.shape != (reps,) or ks.shape != (reps,):
        raise ValueError(f"need one M and one K per seed, got {ms.size} and "
                         f"{ks.size} for {reps}")
    _validate_run_args(ms.min(), t, ks.min())
    accelerated = isinstance(steps[0], Hyper)
    weighted = not accelerated and batch == 1
    for rule in steps:
        if isinstance(rule, Hyper) != accelerated:
            raise ValueError("steps must be all Hyper or all step sizes")
        if not accelerated and not (rule > 0):
            raise ValueError(f"eta must be positive, got {rule}")
    ids = [np.arange(mr * batch) for mr in ms]
    bundle = StreamBundle([s for s, i in zip(seeds, ids) for _ in i],
                          np.concatenate(ids))
    starts = np.broadcast_to(_as_row(w0, dim, "w0", (reps,)), (reps, dim))
    w = np.repeat(starts, ms, axis=0)

    def column(values) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)[:, None]

    if accelerated:
        w_ag = w.copy()
        inv_b = column([1.0 / h.beta for h in steps])
        inv_a = column([1.0 / h.alpha for h in steps])
        cols = {"inv_b": inv_b, "c_b": 1.0 - inv_b, "inv_a": inv_a,
                "c_a": 1.0 - inv_a, "eta": column([h.eta for h in steps]),
                "gamma": column([h.gamma for h in steps])}
    else:
        w_ag = None
        cols = {"eta": column(steps)}
        if weighted:
            decay = column([1.0 - 0.5 * eta * obj.mu_est for eta in steps])
            acc = np.zeros((reps, dim))
            acc_norm = np.zeros((reps, 1))
    diverged: List[Optional[Tuple[int, int]]] = [None] * reps
    w_md = np.empty_like(w) if accelerated else None
    state = [x for x in (w, w_ag) if x is not None]
    sizes = [cols[name] for name in ("eta", "gamma") if name in cols]
    out, scratch = np.empty((2, len(bundle), dim))
    mean, first, runs = np.empty((reps, dim)), np.cumsum([0, *ms]), []
    for a, b in _runs(ms):
        rows = slice(first[a], first[b])
        grads = slice(first[a] * batch, first[b] * batch)
        flat = [None if x is None else x[part].reshape(b - a, -1)
                for x, part in ((w, rows), (w_ag, rows), (w_md, rows),
                                (scratch, rows if accelerated else grads),
                                (out, grads))]
        runs.append(_Run(int(ms[a]), rows, *flat,
                         w[rows].reshape(b - a, -1, dim), mean[a:b],
                         {name: c[a:b] for name, c in cols.items()}))
    blocks = [(ks[a], ms[a], [x[first[a]:first[b]].reshape(b - a, -1, dim)
                              for x in state],
               mean[a:b]) for a, b in _runs(ms, ks) if ms[a] > 1]
    seen = (_read_only(w), _read_only(w_ag))
    for step in range(t):
        if callback is not None:
            callback(step, *seen)
        if accelerated:
            for r in runs:
                # w_md = inv_b * w + c_b * w_ag
                np.multiply(r.h["inv_b"], r.w, out=r.md)
                np.multiply(r.h["c_b"], r.ag, out=r.tmp)
                np.add(r.md, r.tmp, out=r.md)
            obj.stoch_grad_multi(w_md, bundle, out=out, scratch=scratch)
            for r in runs:
                g = r.g if batch == 1 else _mean_into(
                    r.g.reshape(len(r.w), batch, dim), batch, r.mean)
                # w_ag = w_md - eta * g
                np.multiply(r.h["eta"], g, out=r.tmp)
                np.subtract(r.md, r.tmp, out=r.ag)
                # w = c_a * w + inv_a * w_md - gamma * g
                np.multiply(r.h["c_a"], r.w, out=r.w)
                np.multiply(r.h["inv_a"], r.md, out=r.tmp)
                np.add(r.w, r.tmp, out=r.w)
                np.multiply(r.h["gamma"], g, out=r.tmp)
                np.subtract(r.w, r.tmp, out=r.w)
        else:
            if weighted:
                for r in runs:
                    _mean_into(r.w3, r.m, r.mean)
                acc = decay * acc + mean
                acc_norm = decay * acc_norm + 1.0
            obj.stoch_grad_multi(w, bundle, out=out, scratch=scratch)
            for r in runs:
                np.multiply(r.h["eta"], r.g, out=r.tmp)
                if batch == 1:
                    # w = w - eta * g
                    np.subtract(r.w, r.tmp, out=r.w)
                else:
                    # w = mean_j(w - eta * g_j), the candidates in ``tmp``
                    cand = r.tmp.reshape(len(r.w), batch, dim)
                    np.subtract(r.w[:, None, :], cand, out=cand)
                    _mean_into(cand, batch, r.w)
        for kb, mb, state_blocks, block_mean in blocks:
            if (step + 1) % kb == 0:
                for block in state_blocks:
                    block[...] = _mean_into(block, mb, block_mean)[:, None, :]
        if all(np.isfinite(x).all() for x in state):
            continue
        bad = [worker for r in runs
               for worker in _bad_workers([x[r.rows] for x in state], r.m)]
        for i, worker in enumerate(bad):
            if worker is not None:  # freeze; only the first pair counts
                if diverged[i] is None:
                    diverged[i] = (step, worker)
                for x in state:
                    x[first[i]:first[i + 1]] = starts[i]
                for c in sizes:
                    c[i] = 0.0
        if None not in diverged:
            break
    if callback is not None and None in diverged:
        callback(t, *seen)
    final_w = replica_mean(w, ms)
    final_ag = final_w.copy() if w_ag is None else replica_mean(w_ag, ms)
    rho = acc / acc_norm if weighted else None
    for x in (final_w, final_ag, rho):
        if x is not None:
            x[[d is not None for d in diverged]] = np.nan
    # the call stopped after step ``step``: step + 1 oracle calls
    return ReplicaResult(final_w, final_ag, [i.size * (step + 1) for i in ids],
                         diverged, rho)


def _single(result: ReplicaResult) -> RunResult:
    """The RunResult of a one-replica run; raises its DivergenceError."""
    if result.diverged[0] is not None:
        raise DivergenceError(*result.diverged[0])
    rho = None if result.rho_avg_w is None else result.rho_avg_w[0]
    return RunResult(result.final_avg_w[0], result.final_avg_w_ag[0],
                     result.gradient_calls[0], rho)


def fedac_run(obj: Objective, m: int, t: int, k: int, hyper: Hyper, seed: int,
              w0=None, callback: Optional[Callback] = None) -> RunResult:
    """Accelerated local SGD with periodic averaging.

    Per step each worker couples w_md = beta^-1 w + (1 - beta^-1) w_ag,
    queries a stochastic gradient g at w_md, and forms the candidates
    v_ag = w_md - eta g and v = (1 - alpha^-1) w + alpha^-1 w_md - gamma g;
    synchronized steps average both candidate families across workers and
    broadcast, local steps assign them directly.  A one-replica
    ``run_replicas``.
    """
    return _single(run_replicas(obj, m, t, k, [hyper], [seed], w0, callback))


def fedavg_run(obj: Objective, m: int, t: int, k: int, eta: float, seed: int,
               w0=None, callback: Optional[Callback] = None) -> RunResult:
    """Federated averaging (local SGD): v = w - eta * g with periodic averaging.

    Besides the plain final average, returns the weighted average point
    ``sum_t rho_t w_bar_t / sum_t rho_t`` over t = 0..T-1 with
    ``rho_t = (1 - eta * mu / 2)**(T - t - 1)`` and mu = ``obj.mu_est``
    (``mu_est = 0`` gives the uniform average), accumulated incrementally.
    A one-replica ``run_replicas``.
    """
    return _single(run_replicas(obj, m, t, k, [eta], [seed], w0, callback))


def _run_minibatch(obj: Objective, m: int, t: int, k: int, steps: Sequence,
                   seeds: Sequence[int], w0=None,
                   callback: Optional[Callback] = None) -> ReplicaResult:
    """Minibatch baselines as one ``run_replicas`` call: replica r takes T/K
    steps on the streams ``(seeds[r], 0..M*K-1)`` from one state row.  A
    step size runs minibatch SGD, FedAvg on M*K workers with K = 1 held as
    the one row they share; a ``Hyper`` runs accelerated minibatch SGD, one
    worker stepping on the mean of M*K gradients.

    Steps are parallel steps: the callback sees chain step s as s*K, with
    one row per replica, and divergence at chain step s is recorded at
    ``(s+1)*K - 1``, the end of its round.  The final averages are the
    kernel's, of one row per replica.  ``gradient_calls`` is K per round
    taken (T for a whole run), as in ``RunResult``: a round queries M*K
    streams, K per conceptual worker.  There is no decay-weighted average.
    """
    _validate_run_args(m, t, k)
    if t % k != 0:
        raise ValueError(f"K must divide T, got T={t} K={k}")
    observe = None if callback is None else \
        lambda step, w, w_ag: callback(step * k, w, w_ag)
    res = _replicas(obj, 1, t // k, 1, steps, seeds, w0, observe, m * k)
    diverged = [None if d is None else ((d[0] + 1) * k - 1, d[1])
                for d in res.diverged]
    return ReplicaResult(res.final_avg_w, res.final_avg_w_ag,
                         [c // m for c in res.gradient_calls], diverged)


def mb_sgd_run(obj: Objective, m: int, t: int, k: int, eta: float, seed: int,
               w0=None, callback: Optional[Callback] = None) -> RunResult:
    """Minibatch SGD baseline: T/K steps, batch M*K per step.

    Implemented in the averaged-candidate form: the next iterate is the mean
    over batch members j of ``w - eta * g_j``.  This is algebraically the
    plain batch step ``w - eta * mean_j(g_j)`` but matches the federated
    implementation bit for bit at K = 1 on shared streams.  A one-replica
    ``_run_minibatch``; the callback gets the (1, dim) iterate and no w_ag.
    """
    return _single(_run_minibatch(obj, m, t, k, [eta], [seed], w0, callback))


def mb_acsgd_run(obj: Objective, m: int, t: int, k: int, eta: float, seed: int,
                 w0=None, callback: Optional[Callback] = None) -> RunResult:
    """Minibatch accelerated SGD baseline: T/K accelerated steps, batch M*K.

    Literally the single-worker, per-step-synchronized accelerated driver on
    its batch's mean gradient, with the vanilla schedule gamma = sqrt(eta/mu)
    at mu = ``obj.mu_est`` (no synchronization-interval correction -- the
    chain has no local steps).  A one-replica ``_run_minibatch``.
    """
    hyper = schedule_vanilla(eta, obj.mu_est)
    return _single(_run_minibatch(obj, m, t, k, [hyper], [seed], w0,
                                 callback))


class AgdStep:
    """One Nesterov AGD step with kappa = L/mu, on arrays or plain floats:
    w_md = (w + sqrt(kappa) w_ag) / (sqrt(kappa) + 1); with g = grad F(w_md),
    w_ag <- w_md - (1/L) g and
    w <- (1 - 1/sqrt(kappa)) w + (1/sqrt(kappa)) w_md - sqrt(1/(L mu)) g.
    """

    def __init__(self, big_l: float, mu: float):
        if not (mu > 0) or big_l < mu:
            raise ValueError(f"need 0 < mu <= L, got mu={mu} L={big_l}")
        self.rk = math.sqrt(big_l / mu)
        self.inv_l = 1.0 / big_l
        self.c_shrink = 1.0 - 1.0 / self.rk
        self.c_pull = 1.0 / self.rk
        self.c_grad = math.sqrt(1.0 / (big_l * mu))

    def couple(self, w, w_ag):
        return (w + self.rk * w_ag) / (self.rk + 1.0)

    def update(self, w, w_md, g):
        """Return the next ``(w_ag, w)`` from the gradient ``g`` at ``w_md``."""
        return (w_md - self.inv_l * g,
                self.c_shrink * w + self.c_pull * w_md - self.c_grad * g)


@dataclass
class AgdTrajectory:
    """Iterate history of deterministic AGD: w and w_ag have steps+1 rows,
    w_md has one row per gradient query."""

    w: np.ndarray
    w_ag: np.ndarray
    w_md: np.ndarray


def agd_run(obj: Objective, w0_ag, w0, big_l: float, mu: float,
            steps: int) -> AgdTrajectory:
    """Deterministic Nesterov AGD (see AgdStep) for strongly convex
    objectives, with exact gradients, recording every iterate.  Scalar
    starts are broadcast to every coordinate, as in the drivers."""
    agd = AgdStep(big_l, mu)
    if steps < 0:
        raise ValueError("steps must be >= 0")

    w = _as_row(w0, obj.dim, "w0")
    w_ag = _as_row(w0_ag, obj.dim, "w0_ag")
    ws = np.empty((steps + 1, w.size))
    ags = np.empty((steps + 1, w.size))
    mds = np.empty((steps, w.size))
    ws[0] = w
    ags[0] = w_ag
    for step in range(steps):
        w_md = agd.couple(w, w_ag)
        w_ag, w = agd.update(w, w_md, obj.grad(w_md))
        mds[step] = w_md
        ags[step + 1] = w_ag
        ws[step + 1] = w
    return AgdTrajectory(ws, ags, mds)
