"""Self-contained invariant battery behind ``verify`` and the acceptance tests.

Each check returns a CheckResult with a human-readable detail string; the
battery as a whole passes only if every check does.  The checks are scaled to
run in seconds on one core:

* algorithm equivalences that must hold exactly or to tight tolerance,
* spectral-norm bounds for the difference transfer matrices over random
  admissible hyperparameters,
* per-step contraction of the decentralized potential on random quadratics,
  whose trials share one kernel call, as do the sync-frequency
  equivalence's K values,
* the piecewise-curvature instability experiment against its closed forms,
* finite-difference validation of every gradient implementation,
* byte-identical artifacts across sweep worker-process counts.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np

from .algorithms import (AgdStep, DivergenceError, fedavg_run, mb_acsgd_run,
                         mb_sgd_run, run_replicas, schedule_fedac1,
                         schedule_vanilla, worker_mean)
from .diagnostics import (InstabilityResult, PiecewiseCurvature1D,
                          construct_instability_objective,
                          instability_experiment, norm_bound_sweep,
                          potential_psi, sample_admissible)
from .harness import (ExperimentConfig, build_objective, compute_optimum,
                      make_synthetic_logistic, tune_and_sweep,
                      write_records_csv, write_sweep_csv)
from .objectives import Augmented, Logistic, Objective, Quadratic
from .rng import StreamBundle


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0


def _timed(fn: Callable[[], Tuple[bool, str]], name: str) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}",
                           time.perf_counter() - start)
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def _equivalence_fedavg_mb_sgd() -> Tuple[bool, str]:
    obj = Quadratic(np.linspace(0.5, 2.0, 5), shift=np.arange(5) * 0.3, sigma=1.0)
    m, t, eta, seed = 4, 100, 0.05, 11
    fa_means: List[np.ndarray] = []
    mb_means: List[np.ndarray] = []
    fedavg_run(obj, m, t, 1, eta, seed, mu=obj.mu_est,
               callback=lambda s, w, w_ag: fa_means.append(worker_mean(w)))
    mb_sgd_run(obj, m, t, 1, eta, seed,
               callback=lambda s, w, w_ag: mb_means.append(worker_mean(w)))
    same = len(fa_means) == len(mb_means) and all(
        np.array_equal(a, b) for a, b in zip(fa_means, mb_means))
    return same, f"{len(fa_means)} steps compared bitwise"


def _equivalence_sync_free() -> Tuple[bool, str]:
    obj = Quadratic(np.linspace(1.0, 4.0, 6), shift=0.7, sigma=0.0)
    hyper = schedule_fedac1(0.2, obj.mu_est, 1)
    finals = run_replicas(obj, 3, 100, [1, 2, 5, 100], [hyper] * 4, [5] * 4,
                          w0=np.ones(6)).final_avg_w_ag
    worst = float(np.abs(finals[1:] - finals[0]).max())
    return worst <= 1e-12, f"max deviation across K {worst:.2e}"


def _mb_acsgd_reference(obj: Objective, m, t, k, eta, seed):
    """``mb_acsgd_run`` from the origin as a plain loop apart from the step
    kernel; returns the final ``(w, w_ag)``."""
    h = schedule_vanilla(eta, obj.mu_est)
    inv_a, inv_b = 1.0 / h.alpha, 1.0 / h.beta
    bundle = StreamBundle(seed, np.arange(m * k))
    w = w_ag = np.zeros(obj.dim)
    for _ in range(t // k):
        w_md = inv_b * w + (1.0 - inv_b) * w_ag
        g = np.add.reduce(obj.stoch_grad_multi(w_md, bundle), axis=0) / (m * k)
        w_ag = w_md - h.eta * g
        w = (1.0 - inv_a) * w + inv_a * w_md - h.gamma * g
    return w, w_ag


def _equivalence_mb_acsgd() -> Tuple[bool, str]:
    obj = Quadratic(np.linspace(0.8, 3.0, 4), shift=-0.4, sigma=0.5)
    m, t, k, eta, seed = 3, 60, 5, 0.1, 9
    a = mb_acsgd_run(obj, m, t, k, eta, seed)
    w, w_ag = _mb_acsgd_reference(obj, m, t, k, eta, seed)
    same = np.array_equal(a.final_avg_w_ag, w_ag) and \
        np.array_equal(a.final_avg_w, w)
    return same, "delegated and direct batched chains agree bitwise"


def check_equivalences() -> CheckResult:
    def run():
        for fn in (_equivalence_fedavg_mb_sgd, _equivalence_sync_free,
                   _equivalence_mb_acsgd):
            passed, detail = fn()
            if not passed:
                return False, f"{fn.__name__}: {detail}"
        return True, "averaging, sync-frequency, and batching equivalences hold"
    return _timed(run, "equivalences")


def check_norm_bounds(samples: int = 1000, n_h: int = 21,
                      seed: int = 2024) -> CheckResult:
    def run():
        draws = sample_admissible(seed, samples)
        report = norm_bound_sweep(draws[:, 0], draws[:, 1], draws[:, 2:], n_h)
        violations, worst_margin = len(report.violations), report.worst_margin
        detail = (f"{samples} hyperparameter draws x {n_h} curvatures x 2 "
                  f"schedules, {violations} violations, worst margin "
                  f"{worst_margin:.3e}")
        return violations == 0, detail
    return _timed(run, "norm-bounds")


def potential_trials(trials: int, steps: int, seed: int):
    """(psi at steps + 1 states, rate 1 - gamma mu) of FedAc (M = 4, K = 1,
    eta = 1/L) on each of ``trials`` random quadratics.  All are drawn
    first, then run as the replicas of one ``run_replicas`` call, each
    padded to width 10 by coordinates of zero curvature, shift and start,
    which stay 0; psi on a trial's own rows and columns is its run alone's."""
    stream, m = StreamBundle(seed, [0]), 4
    spectra, shifts, starts = np.zeros((3, trials, 10))
    quads, hypers = [], []
    for i in range(trials):
        dim = 2 + int(stream.indices(9, 1)[0, 0])
        u = stream.uniforms(2)[0]
        mu = 0.05 + u[0]
        # kappa >= 20 keeps the potential above the float measurement
        # floor of the w - shift cancellation through all 100 steps
        kappa = 20.0 + 30.0 * u[1]
        spectra[i, :dim] = np.linspace(mu, mu * kappa, dim)
        shifts[i, :dim] = stream.gaussians(dim)[0]
        quads.append(Quadratic(spectra[i, :dim], shift=shifts[i, :dim]))
        hypers.append(schedule_fedac1(1.0 / quads[i].l_est, mu, 1))
        starts[i, :dim] = shifts[i, :dim] + stream.gaussians(dim)[0]
    ws, w_ags = np.empty((2, steps + 1, trials * m, 10))

    def cb(step, w, w_ag):
        ws[step], w_ags[step] = w, w_ag

    stack = Quadratic(np.repeat(spectra, m, 0), shift=np.repeat(shifts, m, 0))
    res = run_replicas(stack, m, steps, 1, hypers, [3] * trials, w0=starts,
                       callback=cb)
    for failed in filter(None, res.diverged):
        raise DivergenceError(*failed)
    return [(potential_psi(ws[:, m * i:m * i + m, :q.dim],
                           w_ags[:, m * i:m * i + m, :q.dim], q, q.mu_est,
                           q.shift, 0.0), 1.0 - h.gamma * q.mu_est)
            for i, (q, h) in enumerate(zip(quads, hypers))]


def check_potential_contraction(trials: int = 50, steps: int = 100,
                                seed: int = 77) -> CheckResult:
    def run():
        worst_excess = -math.inf
        bad = 0
        for psis, rate in potential_trials(trials, steps, seed):
            excess = psis[1:] - rate * psis[:-1] * (1.0 + 1e-9)
            worst_excess = excess.max(initial=worst_excess)
            bad += int((~(excess <= 0)).sum())
        detail = (f"{trials} quadratics x {steps} steps, {bad} violations, "
                  f"worst excess {worst_excess:.3e}")
        return bad == 0, detail
    return _timed(run, "potential-contraction")


def instability_run(k: int, kappa: float = 25.0) -> Tuple[float, InstabilityResult]:
    """The instability experiment with K stages at condition number kappa
    (mu = 1), and the offset eps its two trajectories start apart."""
    objective, w0, w0_ag, delta = construct_instability_objective(kappa, 1.0, k)
    # 1e-9 at the problem scale, shrunk when the curvature clearance cannot
    # absorb the amplified gap
    amp = (2.0 * AgdStep(kappa, 1.0).c_shrink ** 3) ** k
    eps = min(1e-9, 0.25 * delta / amp)
    return eps, instability_experiment(objective, w0, w0_ag, kappa, 1.0, eps, k)


def check_instability(ks: Tuple[int, ...] = (1, 2, 4, 8),
                      kappa: float = 25.0) -> CheckResult:
    def run():
        details = []
        for k in ks:
            eps, result = instability_run(k, kappa)
            verdict = result.verdict(eps)
            details.append(
                f"K={k}: ratio err {verdict.ratio_error:.1e}, map err "
                f"{result.max_map_error:.1e}, gap {result.final_gap_w:.3e} >= "
                f"{verdict.gap_floor:.3e}: {'ok' if verdict.ok else 'FAIL'}")
            if not verdict.ok:
                return False, "; ".join(details)
        return True, "; ".join(details)
    return _timed(run, "instability")


def _fd_gradient(obj: Objective, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences along each coordinate, the 2*dim stencil points
    evaluated in two ``eval_many`` calls."""
    e = h * np.eye(len(w))
    return (obj.eval_many(w + e) - obj.eval_many(w - e)) / (2.0 * h)


def check_gradients(points: int = 20, seed: int = 99) -> CheckResult:
    def run():
        stream = StreamBundle(seed, [0])
        logistic = Logistic(make_synthetic_logistic(60, 12, seed=21, nnz=5),
                            lam=0.05)
        bumpy = PiecewiseCurvature1D(1.0, 25.0, [(0.35, 0.05), (-0.8, 0.1)])
        kinds: List[Tuple[str, Objective]] = [
            ("quadratic", Quadratic(np.linspace(0.5, 5.0, 8),
                                    shift=np.linspace(-1, 1, 8), sigma=0.0)),
            ("logistic", logistic),
            ("augmented", Augmented(logistic, lam=0.3, w0=np.full(12, 0.2))),
            ("piecewise", bumpy),
        ]
        worst = 0.0
        for name, obj in kinds:
            accepted = 0
            while accepted < points:
                w = stream.gaussians(obj.dim)[0]
                if isinstance(obj, PiecewiseCurvature1D):
                    # keep the difference stencil inside one curvature region
                    h = 1e-6
                    if obj.curvature(w - h) != obj.curvature(w + h):
                        continue
                g = obj.grad(w)
                rel = float(np.linalg.norm(_fd_gradient(obj, w) - g)
                            / max(np.linalg.norm(g), 1e-12))
                worst = max(worst, rel)
                if not rel <= 1e-6:
                    return False, f"{name}: relative error {rel:.2e} > 1e-6"
                accepted += 1
        return True, (f"{len(kinds)} objective kinds x {points} points, "
                      f"worst relative error {worst:.2e}")
    return _timed(run, "gradient-fd")


def check_determinism() -> CheckResult:
    def run():
        cfg = ExperimentConfig(
            dataset="synthetic", synthetic_n=200, synthetic_dim=30,
            synthetic_seed=3, synthetic_nnz=6, lam=0.01,
            algorithms=("fedac1", "fedavg", "mb_sgd", "mb_acsgd"),
            t=32, k_list=(1, 4), m_list=(1, 2), etas=(0.1, 1.0),
            seeds=(0, 1), eval_every=16)
        obj, _ = build_objective(cfg)
        opt = compute_optimum(obj)

        def artifact(threads: int) -> bytes:
            cells, rows = tune_and_sweep(cfg, obj, opt.f_star, threads=threads)
            with tempfile.TemporaryDirectory() as tmp:
                rec, swp = Path(tmp, "records.csv"), Path(tmp, "sweep.csv")
                write_records_csv(cells, rec)
                write_sweep_csv(rows, swp)
                return rec.read_bytes() + swp.read_bytes()

        same = artifact(1) == artifact(4)
        return same, "serial and 4-thread sweeps wrote identical bytes"
    return _timed(run, "determinism")


ALL_CHECKS = (
    check_equivalences,
    check_norm_bounds,
    check_potential_contraction,
    check_instability,
    check_gradients,
    check_determinism,
)


def run_all() -> List[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
