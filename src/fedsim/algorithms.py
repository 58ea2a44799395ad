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
  that makes results independent of scheduling.
* ``callback(t, W, W_ag)`` is invoked with the live state arrays, marked
  read-only, before step t and once more at t = T; drivers never draw
  randomness for evaluation, so observation cannot perturb trajectories.

Results are a pure function of ``(config, seed)``: rerunning with any thread
layout reproduces them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .objectives import BatchedOracle, Objective
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
        if self.gamma < self.eta:
            raise ValueError(f"gamma must be >= eta, got gamma={self.gamma} eta={self.eta}")
        if self.alpha < 1 or self.beta < 1:
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


def _init_state(obj: Objective, m: int, w0) -> np.ndarray:
    if w0 is None:
        row = np.zeros(obj.dim)
    else:
        row = np.asarray(w0, dtype=np.float64).ravel()
        if row.size == 1 and obj.dim > 1:
            row = np.full(obj.dim, float(row[0]))
        if row.size != obj.dim:
            raise ValueError("w0 length does not match objective dimension")
    return np.tile(row, (m, 1))


def _check_finite(a: np.ndarray, t: int) -> None:
    if not np.isfinite(a).all():
        bad = np.where(~np.isfinite(a).all(axis=1))[0]
        raise DivergenceError(t, int(bad[0]))


def _observe(callback: Optional[Callback], step: int, w: np.ndarray,
             w_ag: Optional[np.ndarray]) -> None:
    """Hand the callback the live state marked read-only; drivers never
    write state in place, so no copy is needed."""
    if callback is None:
        return
    w.setflags(write=False)
    if w_ag is not None:
        w_ag.setflags(write=False)
    callback(step, w, w_ag)


def _validate_run_args(m: int, t: int, k: int) -> None:
    if m < 1 or t < 1 or k < 1:
        raise ValueError(f"M, T, K must all be >= 1, got M={m} T={t} K={k}")


def fedac_run(obj: Objective, m: int, t: int, k: int, hyper: Hyper, seed: int,
              w0=None, callback: Optional[Callback] = None) -> RunResult:
    """Accelerated local SGD with periodic averaging.

    Per step each worker couples w_md = beta^-1 w + (1 - beta^-1) w_ag,
    queries a stochastic gradient g at w_md, and forms the candidates
    v_ag = w_md - eta g and v = (1 - alpha^-1) w + alpha^-1 w_md - gamma g;
    synchronized steps average both candidate families across workers and
    broadcast, local steps assign them directly.
    """
    _validate_run_args(m, t, k)
    ids = obj.stream_workers(m)
    bundle = StreamBundle(seed, ids)
    w = _init_state(obj, m, w0)
    w_ag = w.copy()
    inv_b = 1.0 / hyper.beta
    inv_a = 1.0 / hyper.alpha
    eta, gamma = hyper.eta, hyper.gamma

    for step in range(t):
        _observe(callback, step, w, w_ag)
        w_md = inv_b * w + (1.0 - inv_b) * w_ag
        g = obj.stoch_grad_multi(w_md, bundle)
        v_ag = w_md - eta * g
        v = (1.0 - inv_a) * w + inv_a * w_md - gamma * g
        if (step + 1) % k == 0:
            w = np.broadcast_to(worker_mean(v), (m, obj.dim)).copy()
            w_ag = np.broadcast_to(worker_mean(v_ag), (m, obj.dim)).copy()
        else:
            w = v
            w_ag = v_ag
        _check_finite(w, step)
        _check_finite(w_ag, step)
    _observe(callback, t, w, w_ag)
    return RunResult(worker_mean(w), worker_mean(w_ag), len(ids) * t)


def fedavg_run(obj: Objective, m: int, t: int, k: int, eta: float, seed: int,
               w0=None, callback: Optional[Callback] = None,
               mu: Optional[float] = None) -> RunResult:
    """Federated averaging (local SGD): v = w - eta * g with periodic averaging.

    Besides the plain final average, returns the weighted average point
    ``sum_t rho_t w_bar_t / sum_t rho_t`` over t = 0..T-1 with
    ``rho_t = (1 - eta * mu / 2)**(T - t - 1)``, accumulated incrementally.
    ``mu`` defaults to the objective's strong-convexity estimate; mu = 0
    degrades gracefully to the uniform average.
    """
    _validate_run_args(m, t, k)
    if not (eta > 0):
        raise ValueError(f"eta must be positive, got {eta}")
    if mu is None:
        mu = obj.mu_est
    ids = obj.stream_workers(m)
    bundle = StreamBundle(seed, ids)
    w = _init_state(obj, m, w0)
    decay = 1.0 - 0.5 * eta * mu
    acc = np.zeros(obj.dim)
    acc_norm = 0.0

    for step in range(t):
        _observe(callback, step, w, None)
        acc = decay * acc + worker_mean(w)
        acc_norm = decay * acc_norm + 1.0
        g = obj.stoch_grad_multi(w, bundle)
        v = w - eta * g
        if (step + 1) % k == 0:
            w = np.broadcast_to(worker_mean(v), (m, obj.dim)).copy()
        else:
            w = v
        _check_finite(w, step)
    _observe(callback, t, w, None)
    final = worker_mean(w)
    return RunResult(final, final, len(ids) * t, rho_avg_w=acc / acc_norm)


def mb_sgd_run(obj: Objective, m: int, t: int, k: int, eta: float, seed: int,
               w0=None, callback: Optional[Callback] = None) -> RunResult:
    """Minibatch SGD baseline: T/K steps, batch M*K per step.

    Implemented in the averaged-candidate form: the next iterate is the mean
    over batch members j of ``w - eta * g_j``.  This is algebraically the
    plain batch step ``w - eta * mean_j(g_j)`` but matches the federated
    implementation bit for bit at K = 1 on shared streams.
    """
    _validate_run_args(m, t, k)
    if t % k != 0:
        raise ValueError(f"K must divide T, got T={t} K={k}")
    if not (eta > 0):
        raise ValueError(f"eta must be positive, got {eta}")
    rounds = t // k
    batch = m * k
    bundle = StreamBundle(seed, obj.stream_workers(batch))
    w = _init_state(obj, 1, w0)[0]

    for r in range(rounds):
        _observe(callback, r * k, w[None, :], None)
        g = obj.stoch_grad_multi(w, bundle)
        w = worker_mean(w[None, :] - eta * g)
        if not np.isfinite(w).all():
            raise DivergenceError((r + 1) * k - 1, 0)
    _observe(callback, t, w[None, :], None)
    return RunResult(w, w, t)


def mb_acsgd_run(obj: Objective, m: int, t: int, k: int, eta: float, seed: int,
                 w0=None, callback: Optional[Callback] = None,
                 mu: Optional[float] = None) -> RunResult:
    """Minibatch accelerated SGD baseline: T/K accelerated steps, batch M*K.

    Literally the single-worker, per-step-synchronized accelerated driver on
    a batch-averaging oracle, with the vanilla schedule gamma = sqrt(eta/mu)
    (no synchronization-interval correction -- the chain has no local steps).
    """
    _validate_run_args(m, t, k)
    if t % k != 0:
        raise ValueError(f"K must divide T, got T={t} K={k}")
    if mu is None:
        mu = obj.mu_est
    if not (mu > 0):
        raise ValueError("accelerated baseline needs a positive strong-convexity estimate")
    hyper = schedule_vanilla(eta, mu)
    batched = BatchedOracle(obj, m * k)
    inner_cb: Optional[Callback] = None
    if callback is not None:
        inner_cb = lambda step, w, w_ag: callback(step * k, w, w_ag)
    try:
        result = fedac_run(batched, 1, t // k, 1, hyper, seed, w0, inner_cb)
    except DivergenceError as exc:
        raise DivergenceError((exc.step + 1) * k - 1, exc.worker) from None
    return RunResult(result.final_avg_w, result.final_avg_w_ag, t)


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
    objectives, with exact gradients, recording every iterate."""
    agd = AgdStep(big_l, mu)
    if steps < 0:
        raise ValueError("steps must be >= 0")

    w = np.atleast_1d(np.asarray(w0, dtype=np.float64)).copy()
    w_ag = np.atleast_1d(np.asarray(w0_ag, dtype=np.float64)).copy()
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
