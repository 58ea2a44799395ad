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
  (hyperparameters, K, seed) replicas side by side.  ``fedac_run`` and
  ``fedavg_run`` are its one-replica calls; ``_run_minibatch`` maps the
  minibatch baselines onto it, and ``mb_sgd_run`` and ``mb_acsgd_run`` are
  its one-replica calls.

A trajectory is a pure function of ``(config, seed)``: rerunning with any
sweep worker count, or beside any other replicas, reproduces it exactly.
The drivers use no BLAS.  The evaluations of F and the optimum F* do, and a
multi-threaded BLAS splits a gemv's rows between its threads, which for some
dataset sizes moves the last bits of F; byte-stable artifacts across hosts
need ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

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


def _start_row(obj: Objective, w0) -> np.ndarray:
    """The start point as a (dim,) row; None is the origin and a scalar is
    broadcast to every coordinate."""
    if w0 is None:
        return np.zeros(obj.dim)
    row = np.asarray(w0, dtype=np.float64).ravel()
    if row.size == 1 and obj.dim > 1:
        row = np.full(obj.dim, float(row[0]))
    if row.size != obj.dim:
        raise ValueError("w0 length does not match objective dimension")
    return row.copy()


def _read_only(a: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if a is None:
        return None
    view = a.view()
    view.setflags(write=False)
    return view


def _observe(callback: Optional[Callback], step: int, w: np.ndarray,
             w_ag: Optional[np.ndarray]) -> None:
    """Hand the callback read-only views of the state.  The kernel updates
    the state in place, so a view is valid only until the callback returns:
    a callback that keeps a state copies it."""
    if callback is not None:
        callback(step, _read_only(w), _read_only(w_ag))


def _validate_run_args(m: int, t: int, k: int) -> None:
    if m < 1 or t < 1 or k < 1:
        raise ValueError(f"M, T, K must all be >= 1, got M={m} T={t} K={k}")


def replica_mean(a: np.ndarray, m: int) -> np.ndarray:
    """Worker averages of stacked replicas: ``a`` is (R*M, dim), replica r
    owning rows ``[r*M, (r+1)*M)``; row r of the (R, dim) result equals
    ``worker_mean`` of that block bit for bit: ``np.mean`` is this sum
    divided by the count, without the wrapper's per-call overhead."""
    return np.add.reduce(a.reshape(-1, m, a.shape[-1]), axis=1) / m


def _bad_workers(w: np.ndarray, w_ag: Optional[np.ndarray],
                 m: int) -> List[Optional[int]]:
    """For each replica's block of M rows: the lowest worker whose ``w`` row
    is non-finite, else the lowest whose ``w_ag`` row is, else None."""
    blocks = [np.isfinite(a).all(axis=1).reshape(-1, m)
              for a in (w, w_ag) if a is not None]
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
    are nan.
    """

    final_avg_w: np.ndarray
    final_avg_w_ag: np.ndarray
    gradient_calls: int
    diverged: List[Optional[Tuple[int, int]]]
    rho_avg_w: Optional[np.ndarray] = None


ReplicaCallback = Callable[[int, np.ndarray, np.ndarray, Optional[np.ndarray]], None]


def run_replicas(obj: Objective, m: int, t: int, k, steps: Sequence,
                 seeds: Sequence[int], w0=None,
                 callback: Optional[ReplicaCallback] = None,
                 mu: Optional[float] = None) -> ReplicaResult:
    """R independent M-worker runs in lockstep, as one (R*M, dim) state.

    Replica r draws from the streams ``(seeds[r], worker)`` and steps with
    ``steps[r]``: a ``Hyper`` runs FedAc (see ``fedac_run``), a plain step
    size runs FedAvg (see ``fedavg_run``, whose ``mu`` sets the decay of the
    weighted average).  ``k`` is the sync interval of every replica, or one
    K per replica: after step s, the replicas whose K divides s + 1 average
    and broadcast their rows, each run of consecutive replicas with equal K
    as one block of rows.  Every replica follows the same float expressions
    as a run of its own, with its hyperparameters held as (R, 1) columns, so
    each replica is bit-identical to the run it stands for.

    ``callback(t, live, W, W_ag)`` is invoked before step t and at t = T
    with the indices of the replicas still running and read-only views of
    their state rows, valid until the callback returns.  A replica whose
    iterates go non-finite at step s is recorded in ``diverged`` and its
    rows are dropped from step s + 1 on.
    """
    return _replicas(obj, m, t, k, steps, seeds, w0, callback,
                     obj.mu_est if mu is None else mu)


def _replicas(obj: Objective, m: int, t: int, k, steps: Sequence,
              seeds: Sequence[int], w0, callback: Optional[ReplicaCallback],
              mu: Optional[float], batch: int = 1) -> ReplicaResult:
    """The body of ``run_replicas``.  ``mu=None`` skips FedAvg's
    decay-weighted average, which the minibatch baselines discard.
    ``batch`` > 1 runs minibatch SGD: each of the M state rows queries
    ``batch`` streams, and the step averages the candidates ``w - eta*g_j``
    back into the row, which is FedAvg on M*batch workers at K = 1 without
    its equal rows.

    After each step the due blocks of equal K sync in place and every row
    is checked: a synced replica's rows are copies of its mean, so a
    blow-up there reports worker 0.  M = 1 builds no blocks.

    Every step is written in place, in the operation order of the plain
    expressions, into arrays allocated once and again only when replicas
    drop out: the state (``w``, and ``w_ag`` under FedAc), ``w_md`` and the
    oracle's ``out`` and ``scratch``, whose leading rows double as the
    step's one temporary.
    """
    if not seeds or len(steps) != len(seeds):
        raise ValueError(f"need one step rule per seed, got {len(steps)} "
                         f"for {len(seeds)}")
    reps, dim = len(seeds), obj.dim
    ks = np.full(reps, k) if np.ndim(k) == 0 else np.asarray(k)
    if ks.shape != (reps,):
        raise ValueError(f"need one K per seed, got {ks.size} for {reps}")
    _validate_run_args(m, t, ks.min())
    accelerated = isinstance(steps[0], Hyper)
    for rule in steps:
        if isinstance(rule, Hyper) != accelerated:
            raise ValueError("steps must be all Hyper or all step sizes")
        if not accelerated and not (rule > 0):
            raise ValueError(f"eta must be positive, got {rule}")
    ids = obj.stream_workers(m * batch)
    bundle = StreamBundle([s for s in seeds for _ in ids], np.tile(ids, reps))
    w = np.tile(_start_row(obj, w0), (reps * m, 1))

    def column(values) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)[:, None]

    if accelerated:
        w_ag = w.copy()
        inv_b = column([1.0 / h.beta for h in steps])
        inv_a = column([1.0 / h.alpha for h in steps])
        cols = [inv_b, 1.0 - inv_b, inv_a, 1.0 - inv_a,
                column([h.eta for h in steps]), column([h.gamma for h in steps])]
    else:
        w_ag = None
        cols = [column(steps)]
        if mu is not None:
            decay = np.array([1.0 - 0.5 * eta * mu for eta in steps])[:, None]
            acc = np.zeros((reps, dim))
            acc_norm = np.zeros((reps, 1))
    live = np.arange(reps)
    diverged: List[Optional[Tuple[int, int]]] = [None] * reps
    observe = None
    if callback is not None:
        observe = lambda step, w, w_ag: callback(step, live, w, w_ag)

    def work():
        """``w_md`` (FedAc only), the oracle's ``out`` and ``scratch`` for
        the current rows, and the (K, rows) blocks of equal K that sync,
        none at M = 1 (which minibatch SGD's ``batch`` > 1 implies)."""
        w_md = np.empty_like(w) if accelerated else None
        ends = [r for r in range(len(ks) + 1)
                if r in (0, len(ks)) or ks[r] != ks[r - 1]]
        blocks = [] if m == 1 else [(int(ks[a]), slice(a * m, b * m))
                                    for a, b in zip(ends, ends[1:])]
        return (w_md, np.empty((len(bundle), dim)),
                np.empty((len(bundle), dim)), blocks)

    w_md, out, scratch, blocks = work()
    for step in range(t):
        _observe(observe, step, w, w_ag)
        # a replica's M rows as one row of the (R, M*dim) views, so that
        # its (R, 1) hyperparameter column scales one long run per replica
        by_rep = len(live), -1
        W, TMP = w.reshape(by_rep), scratch[:len(w)].reshape(by_rep)
        if accelerated:
            inv_b, c_b, inv_a, c_a, eta, gamma = cols
            AG, MD = w_ag.reshape(by_rep), w_md.reshape(by_rep)
            # w_md = inv_b * w + c_b * w_ag
            np.multiply(inv_b, W, out=MD)
            np.multiply(c_b, AG, out=TMP)
            np.add(MD, TMP, out=MD)
            G = obj.stoch_grad_multi(w_md, bundle, out=out,
                                     scratch=scratch).reshape(by_rep)
            # w_ag = w_md - eta * g
            np.multiply(eta, G, out=TMP)
            np.subtract(MD, TMP, out=AG)
            # w = c_a * w + inv_a * w_md - gamma * g
            np.multiply(c_a, W, out=W)
            np.multiply(inv_a, MD, out=TMP)
            np.add(W, TMP, out=W)
            np.multiply(gamma, G, out=TMP)
            np.subtract(W, TMP, out=W)
        else:
            if mu is not None:
                acc = decay * acc + replica_mean(w, m)
                acc_norm = decay * acc_norm + 1.0
            G = obj.stoch_grad_multi(w, bundle, out=out,
                                     scratch=scratch).reshape(by_rep)
            if batch == 1:
                # w = w - eta * g
                np.multiply(cols[0], G, out=TMP)
                np.subtract(W, TMP, out=W)
            else:
                # w = mean_j(w - eta * g_j), the candidates in ``scratch``
                cand = scratch.reshape(len(w), batch, dim)
                np.multiply(cols[0], G, out=cand.reshape(by_rep))
                np.subtract(w[:, None, :], cand, out=cand)
                np.divide(np.add.reduce(cand, axis=1, out=w), batch, out=w)
        state = (w,) if w_ag is None else (w, w_ag)
        for kb, rows in blocks:
            if (step + 1) % kb == 0:
                for a in state:
                    block = a[rows]
                    block.reshape(-1, m, dim)[...] = \
                        replica_mean(block, m)[:, None, :]
        if all(np.isfinite(a).all() for a in state):
            continue
        bad = _bad_workers(w, w_ag, m)
        for r, worker in zip(live, bad):
            if worker is not None:
                diverged[r] = (step, worker)
        keep = np.array([worker is None for worker in bad])
        rows = np.repeat(keep, m)
        w = w[rows]
        w_ag = None if w_ag is None else w_ag[rows]
        cols = [c[keep] for c in cols]
        ks = ks[keep]
        bundle.keep(np.repeat(keep, ids.size))
        if not accelerated and mu is not None:
            decay, acc, acc_norm = decay[keep], acc[keep], acc_norm[keep]
        live = live[keep]
        if not live.size:
            break
        w_md, out, scratch, blocks = work()
    if live.size:
        _observe(observe, t, w, w_ag)
    final_w = np.full((reps, dim), np.nan)
    final_ag = np.full((reps, dim), np.nan)
    final_w[live] = replica_mean(w, m)
    final_ag[live] = final_w[live] if w_ag is None else replica_mean(w_ag, m)
    rho = None
    if not accelerated and mu is not None:
        rho = np.full((reps, dim), np.nan)
        rho[live] = acc / acc_norm
    return ReplicaResult(final_w, final_ag, ids.size * t, diverged, rho)


def _single(result: ReplicaResult) -> RunResult:
    """The RunResult of a one-replica run; raises its DivergenceError."""
    if result.diverged[0] is not None:
        raise DivergenceError(*result.diverged[0])
    rho = None if result.rho_avg_w is None else result.rho_avg_w[0]
    return RunResult(result.final_avg_w[0], result.final_avg_w_ag[0],
                     result.gradient_calls, rho)


def _plain_callback(callback: Optional[Callback]) -> Optional[ReplicaCallback]:
    if callback is None:
        return None
    return lambda step, live, w, w_ag: callback(step, w, w_ag)


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
    return _single(run_replicas(obj, m, t, k, [hyper], [seed], w0,
                                _plain_callback(callback)))


def fedavg_run(obj: Objective, m: int, t: int, k: int, eta: float, seed: int,
               w0=None, callback: Optional[Callback] = None,
               mu: Optional[float] = None) -> RunResult:
    """Federated averaging (local SGD): v = w - eta * g with periodic averaging.

    Besides the plain final average, returns the weighted average point
    ``sum_t rho_t w_bar_t / sum_t rho_t`` over t = 0..T-1 with
    ``rho_t = (1 - eta * mu / 2)**(T - t - 1)``, accumulated incrementally.
    ``mu`` defaults to the objective's strong-convexity estimate; mu = 0
    degrades gracefully to the uniform average.  A one-replica
    ``run_replicas``.
    """
    return _single(run_replicas(obj, m, t, k, [eta], [seed], w0,
                                _plain_callback(callback), mu))


def _run_minibatch(obj: Objective, m: int, t: int, k: int, steps: Sequence,
                   seeds: Sequence[int], w0=None,
                   callback: Optional[ReplicaCallback] = None) -> ReplicaResult:
    """Minibatch baselines as one ``run_replicas`` call: replica r takes T/K
    steps on the streams ``(seeds[r], 0..M*K-1)`` from one state row.  A
    step size runs minibatch SGD, FedAvg on M*K workers with K = 1 held as
    the one row they share; a ``Hyper`` runs accelerated minibatch SGD, one
    worker on a ``BatchedOracle`` of M*K.

    Steps are parallel steps: the callback sees chain step s as s*K, with
    one row per live replica, and divergence at chain step s is recorded at
    ``(s+1)*K - 1``, the end of its round.  The final averages are the
    kernel's, of one row per replica.  ``gradient_calls`` is T, as in
    ``RunResult``; there is no decay-weighted average.
    """
    _validate_run_args(m, t, k)
    if t % k != 0:
        raise ValueError(f"K must divide T, got T={t} K={k}")
    rounds, batch = t // k, m * k
    oracle = obj
    if steps and isinstance(steps[0], Hyper):
        oracle, batch = BatchedOracle(obj, batch), 1
    observe = None
    if callback is not None:
        observe = lambda step, live, w, w_ag: callback(step * k, live, w, w_ag)
    res = _replicas(oracle, 1, rounds, 1, steps, seeds, w0, observe, None,
                    batch)
    diverged = [None if d is None else ((d[0] + 1) * k - 1, d[1])
                for d in res.diverged]
    return ReplicaResult(res.final_avg_w, res.final_avg_w_ag, t, diverged)


def mb_sgd_run(obj: Objective, m: int, t: int, k: int, eta: float, seed: int,
               w0=None, callback: Optional[Callback] = None) -> RunResult:
    """Minibatch SGD baseline: T/K steps, batch M*K per step.

    Implemented in the averaged-candidate form: the next iterate is the mean
    over batch members j of ``w - eta * g_j``.  This is algebraically the
    plain batch step ``w - eta * mean_j(g_j)`` but matches the federated
    implementation bit for bit at K = 1 on shared streams.  A one-replica
    ``_run_minibatch``; the callback gets the (1, dim) iterate and no w_ag.
    """
    return _single(_run_minibatch(obj, m, t, k, [eta], [seed], w0,
                                 _plain_callback(callback)))


def mb_acsgd_run(obj: Objective, m: int, t: int, k: int, eta: float, seed: int,
                 w0=None, callback: Optional[Callback] = None,
                 mu: Optional[float] = None) -> RunResult:
    """Minibatch accelerated SGD baseline: T/K accelerated steps, batch M*K.

    Literally the single-worker, per-step-synchronized accelerated driver on
    a batch-averaging oracle, with the vanilla schedule gamma = sqrt(eta/mu)
    (no synchronization-interval correction -- the chain has no local steps).
    A one-replica ``_run_minibatch``.
    """
    hyper = schedule_vanilla(eta, obj.mu_est if mu is None else mu)
    return _single(_run_minibatch(obj, m, t, k, [hyper], [seed], w0,
                                 _plain_callback(callback)))


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

    w = _start_row(obj, w0)
    w_ag = _start_row(obj, w0_ag)
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
