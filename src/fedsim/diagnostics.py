"""Stability diagnostics: potentials, transfer matrices, instability experiment.

Three groups of tools:

* Lyapunov potentials measuring progress of a worker ensemble toward the
  optimum (a decentralized variant averaging per-worker function values, and
  a centralized variant evaluating at the averaged iterate), plus worker
  discrepancy statistics.  They take one (M, dim) state or an (S, M, dim)
  stack of S states, whose F values come from one ``eval_many`` call; slice
  s of a stack's result is the call on state s, bit for bit.

* The 2x2 transfer matrices governing how the difference between two
  noise-free accelerated chains evolves per local step, as (..., 2, 2)
  arrays over broadcast arguments, together with the similarity transform
  under which their spectral norm stays uniformly close to 1, taken over
  whole stacks at once.  The d-dimensional block matrices are
  simultaneously diagonalizable in the curvature, so the scalar-curvature
  2x2 case checked here covers the general one.

* A constructive worst-case experiment for classic Nesterov AGD: a 1-D
  piecewise-curvature objective on which two trajectories started an
  arbitrarily small distance apart separate exponentially, with closed-form
  per-3-step amplification -2 (1 - 1/sqrt(kappa))**3 times an idempotent
  projector.  Its construction tries each stage's bump widths in one batched
  AGD run, a row per width, and keeps the first that passes, bit for bit the
  width a one-at-a-time search keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .algorithms import AgdStep, agd_run
from .objectives import Objective
from .rng import StreamBundle


@dataclass(frozen=True)
class PotentialReport:
    """Potentials and worker-spread statistics: floats for one state, (S,)
    arrays for a stack of S states."""

    psi: float | np.ndarray
    phi: float | np.ndarray
    discrepancy_max: float | np.ndarray
    discrepancy_mean_sq: float | np.ndarray


class ConstructionError(RuntimeError):
    """The instability objective constructor failed to separate trajectory points."""


class InstabilityRegionError(RuntimeError):
    """A trajectory escaped its constant-curvature neighborhood; carries the step."""

    def __init__(self, step: int, detail: str):
        self.step = int(step)
        super().__init__(f"step {step}: {detail}")


def _per_state(value):
    """A float for one state's 0-d result; a stack's (S,) array as it is."""
    return float(value) if np.ndim(value) == 0 else value


def _eval(obj: Objective, points) -> np.ndarray:
    """F at each point of a (..., dim) array, in one ``eval_many`` call."""
    points = np.asarray(points, dtype=np.float64)
    return obj.eval_many(points.reshape(-1, points.shape[-1])).reshape(points.shape[:-1])


def _potential(f_term, w: np.ndarray, weight: float, w_star, f_star: float):
    """``f_term`` - F* + weight * ||w_bar - w*||**2 for each state of ``w``."""
    d = np.mean(w, axis=-2) - np.atleast_1d(np.asarray(w_star, dtype=np.float64))
    return _per_state(f_term - f_star + weight * (d * d).sum(axis=-1))


def potential_psi(w: np.ndarray, w_ag: np.ndarray, obj: Objective, mu: float,
                  w_star, f_star: float):
    """Decentralized potential: mean_m F(w_ag^m) - F* + (mu/2) ||w_bar - w*||**2,
    on (M, dim) worker arrays as a driver callback receives them (a float),
    or on (S, M, dim) stacks of S states (an (S,) array)."""
    return _potential(_eval(obj, w_ag).mean(axis=-1), w, 0.5 * mu, w_star, f_star)


def potential_phi(w: np.ndarray, w_ag: np.ndarray, obj: Objective, mu: float,
                  w_star, f_star: float):
    """Centralized potential: F(w_bar_ag) - F* + (mu/6) ||w_bar - w*||**2,
    on one (M, dim) state or an (S, M, dim) stack, as ``potential_psi``."""
    return _potential(_eval(obj, np.mean(w_ag, axis=-2)), w, mu / 6.0, w_star, f_star)


def potential_report(w: np.ndarray, w_ag: np.ndarray, obj: Objective, mu: float,
                     w_star, f_star: float) -> PotentialReport:
    """Both potentials plus max/mean-square deviation of workers from their
    average, on one (M, dim) state or an (S, M, dim) stack."""
    dev = np.sqrt(((w - np.mean(w, axis=-2, keepdims=True)) ** 2).sum(axis=-1))
    return PotentialReport(potential_psi(w, w_ag, obj, mu, w_star, f_star),
                           potential_phi(w, w_ag, obj, mu, w_star, f_star),
                           _per_state(dev.max(axis=-1)),
                           _per_state((dev * dev).mean(axis=-1)))


def transfer_matrix_fedac1(mu, gamma, eta, h) -> np.ndarray:
    """Per-local-step difference map for the first acceleration schedule.

    (1/(1+gamma mu)) [[1-eta H, gamma mu (1-eta H)],
                      [-gamma (H-mu), 1-gamma**2 mu H]]
    """
    _validate_transfer_args(mu, gamma, eta, h)
    pre = 1.0 / (1.0 + gamma * mu)
    return _stack_2x2(pre * (1.0 - eta * h),
                      pre * gamma * mu * (1.0 - eta * h),
                      pre * (-gamma * (h - mu)),
                      pre * (1.0 - gamma * gamma * mu * h))


def transfer_matrix_fedac2(mu, gamma, eta, h) -> np.ndarray:
    """Per-local-step difference map for the second acceleration schedule.

    Prefactor 1/(9 - gamma mu (6 + gamma mu)); entries
    [[(3-gm)(3-2gm)(1-eta H), 3 gm (1-gm)(1-eta H)],
     [(3-2gm)(2 gm - (3-gm) gamma H), 3 (1-gm)((3-gm) - gamma**2 mu H)]]
    with gm = gamma mu.
    """
    _validate_transfer_args(mu, gamma, eta, h)
    gm = gamma * mu
    pre = 1.0 / (9.0 - gm * (6.0 + gm))
    return _stack_2x2(pre * (3.0 - gm) * (3.0 - 2.0 * gm) * (1.0 - eta * h),
                      pre * 3.0 * gm * (1.0 - gm) * (1.0 - eta * h),
                      pre * (3.0 - 2.0 * gm) * (2.0 * gm - (3.0 - gm) * gamma * h),
                      pre * 3.0 * (1.0 - gm) * ((3.0 - gm) - gamma * gamma * mu * h))


def transfer_matrix_from_hyper(hyper, h) -> np.ndarray:
    """Difference map for arbitrary (eta, gamma, alpha, beta), derived directly
    from one local step of the coupled update.

    Used to cross-check the schedule-specific closed forms: substituting a
    schedule's (alpha, beta) here must reproduce the same matrix.
    """
    inv_a = 1.0 / hyper.alpha
    inv_b = 1.0 / hyper.beta
    md_ag, md_w = 1.0 - inv_b, inv_b  # w_md difference in (d_ag, d_w) basis
    c_ag = 1.0 - hyper.eta * h
    c_w = inv_a - hyper.gamma * h
    return _stack_2x2(c_ag * md_ag, c_ag * md_w, c_w * md_ag,
                      c_w * md_w + (1.0 - inv_a))


def _stack_2x2(a11, a12, a21, a22) -> np.ndarray:
    """(..., 2, 2) matrices from entries broadcast against each other."""
    entries = np.broadcast_arrays(a11, a12, a21, a22)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


def _validate_transfer_args(mu, gamma, eta, h):
    if not np.all((gamma > 0) & (eta > 0)):
        raise ValueError(f"gamma and eta must be positive, got {gamma}, {eta}")
    if not np.all(h >= mu):
        raise ValueError(f"curvature {h} below strong-convexity {mu}")


def spectral_norm_2x2(b: np.ndarray):
    """Largest singular value of each 2x2 matrix in a (..., 2, 2) stack via
    the closed-form Gram eigenvalue."""
    g = np.swapaxes(b, -1, -2) @ b
    g00, g01, g10, g11 = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
    half_tr = 0.5 * (g00 + g11)
    disc = np.maximum(half_tr * half_tr - (g00 * g11 - g01 * g10), 0.0)
    return np.sqrt(np.maximum(half_tr + np.sqrt(disc), 0.0))


def transformed_norm(a: np.ndarray, gamma, eta):
    """Spectral norm of X^-1 A X with X = [[eta/gamma, 0], [1, 1]], for a
    (..., 2, 2) stack ``a`` and ``gamma``, ``eta`` broadcast against its
    leading dimensions."""
    if not np.all((gamma > 0) & (eta > 0)):
        raise ValueError(f"gamma and eta must be positive, got {gamma}, {eta}")
    r = eta / gamma
    x = _stack_2x2(r, 0.0, 1.0, 1.0)
    x_inv = _stack_2x2(1.0 / r, 0.0, -1.0 / r, 1.0)
    return spectral_norm_2x2(x_inv @ a @ x)


def norm_bound_fedac1(mu, gamma, eta):
    """Uniform-in-H bound on the transformed norm: 1 + 2 gamma**2 mu / eta
    for gamma > eta, sharpening to exactly 1 at gamma = eta."""
    return np.where(gamma == eta, 1.0, 1.0 + 2.0 * gamma * gamma * mu / eta)


def norm_bound_fedac2(mu, gamma, eta):
    """As above for the second schedule: 1 + gamma**2 mu / eta, or 1 at gamma = eta."""
    return np.where(gamma == eta, 1.0, 1.0 + gamma * gamma * mu / eta)


_TRANSFER = {"fedac1": (transfer_matrix_fedac1, norm_bound_fedac1),
             "fedac2": (transfer_matrix_fedac2, norm_bound_fedac2)}
# a transformed norm this far above its bound still counts as within it
_TOLERANCE = 1e-9
_MAX_SHRINKS = 60  # bump widths tried per instability construction stage


@dataclass(frozen=True)
class NormBoundRow:
    schedule: str
    gamma: float
    eta: float
    max_norm: float
    bound: float

    @property
    def margin(self) -> float:
        return self.bound - self.max_norm


@dataclass(frozen=True)
class NormBoundReport:
    rows: List[NormBoundRow]

    @property
    def violations(self) -> List[NormBoundRow]:
        return [r for r in self.rows if not r.max_norm <= r.bound + _TOLERANCE]

    @property
    def worst_margin(self) -> float:
        return min((r.margin for r in self.rows), default=math.inf)


def norm_bound_sweep(mu, big_l, points, n_h: int = 21) -> NormBoundReport:
    """Maximize the transformed norm over curvatures and compare to the bounds.

    ``points`` holds (gamma, eta) pairs with eta in (0, 1/L] and gamma in
    [eta, sqrt(eta/mu)]; ``mu`` and ``big_l`` are scalars or one per point,
    and a ValueError names the first point that breaks these.  Curvature is
    sampled on an ``n_h``-point grid spanning [mu, L] inclusive, bit for bit
    each point's own ``np.linspace`` unless some point has mu = L.  Rows run
    point by point, ``fedac1`` then ``fedac2``.
    """
    gamma, eta = np.asarray(points, dtype=np.float64).reshape(-1, 2).T
    mu, big_l = np.broadcast_arrays(mu, big_l, gamma)[:2]
    # a warning here comes from a point that fails an earlier check
    with np.errstate(invalid="ignore", divide="ignore"):
        checks = [((0 < mu) & (mu <= big_l), "need 0 < mu <= L, got {mu}, {big_l}"),
                  ((0.0 < eta) & (eta <= 1.0 / big_l * (1 + 1e-12)),
                   "eta={eta} outside (0, 1/L] for L={big_l}"),
                  ((eta <= gamma) & (gamma <= np.sqrt(eta / mu) * (1 + 1e-12)),
                   "gamma={gamma} outside [eta, sqrt(eta/mu)] for eta={eta}, mu={mu}")]
    bad = ~np.logical_and.reduce([ok for ok, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(next(text for ok, text in checks if not ok[i]).format(
            mu=mu[i], big_l=big_l[i], gamma=gamma[i], eta=eta[i]))
    hs = np.linspace(mu, big_l, n_h, axis=-1)
    m, g, e = mu[:, None], gamma[:, None], eta[:, None]
    columns = [(name, transformed_norm(matrix_fn(m, g, e, hs), g, e).max(axis=-1),
                bound_fn(mu, gamma, eta))
               for name, (matrix_fn, bound_fn) in _TRANSFER.items()]
    return NormBoundReport([
        NormBoundRow(name, float(gamma[i]), float(eta[i]), float(norms[i]),
                     float(bounds[i]))
        for i in range(gamma.size) for name, norms, bounds in columns])


def sample_admissible(seed: int, count: int,
                      mu_range: Tuple[float, float] = (1e-3, 1.0),
                      kappa_range: Tuple[float, float] = (1.5, 1e4)) -> np.ndarray:
    """Random (mu, L, gamma, eta) tuples satisfying the norm-sweep preconditions.

    mu and kappa are log-uniform, eta is uniform in (0, 1/L], gamma uniform in
    [eta, sqrt(eta/mu)].  Returns an array of shape (count, 4).
    """
    u = StreamBundle(seed, [0]).uniforms(4 * count).reshape(count, 4)
    log_mu = np.log(mu_range[0]) + u[:, 0] * (np.log(mu_range[1]) - np.log(mu_range[0]))
    log_k = np.log(kappa_range[0]) + u[:, 1] * (np.log(kappa_range[1]) - np.log(kappa_range[0]))
    mu = np.exp(log_mu)
    big_l = mu * np.exp(log_k)
    gamma, eta = norm_bound_draws(u[:, 2:], mu, big_l)
    return np.column_stack([mu, big_l, gamma, eta])


def norm_bound_draws(u: np.ndarray, mu, big_l) -> Tuple[np.ndarray, np.ndarray]:
    """``(gamma, eta)`` from uniforms ``u`` of shape (count, 2): eta uniform in
    (0, 1/L] from ``u[:, 0]``, gamma uniform in [eta, sqrt(eta/mu)] from
    ``u[:, 1]``.  ``mu`` and ``big_l`` are scalars or per-row arrays."""
    eta = (1.0 - u[:, 0]) / big_l
    gamma = eta + u[:, 1] * (np.sqrt(eta / mu) - eta)
    return gamma, eta


class PiecewiseCurvature1D(Objective):
    """1-D objective with curvature mu everywhere except on closed bump
    intervals where it is L; F and F' are exact integrals anchored at 0.

    With R(x) = clip(x, a, b) for a bump [a, b]:
    F''(w) = mu + (L-mu) sum_i 1[a_i <= w <= b_i],
    F'(w)  = mu w + (L-mu) sum_i (R_i(w) - R_i(0)),
    F(w)   = mu w**2/2 + (L-mu) sum_i (R_i(w) w - R_i(w)**2/2
                                        + R_i(0)**2/2 - R_i(0) w).
    Bump intervals must be pairwise disjoint, so F'' is {mu, L}-valued and F'
    is continuous.
    """

    def __init__(self, base_mu: float, big_l: float,
                 bumps: Sequence[Tuple[float, float]] = ()):
        if not (0 < base_mu <= big_l):
            raise ValueError(f"need 0 < mu <= L, got {base_mu}, {big_l}")
        self.dim = 1
        self.base_mu = self.mu_est = float(base_mu)
        self.big_l = self.l_est = float(big_l)
        self.bumps = [(float(c), float(h)) for c, h in bumps]
        if any(h <= 0 for _, h in self.bumps):
            raise ValueError("bump half-width must be positive")
        self._a = np.array([c - h for c, h in self.bumps])
        self._b = np.array([c + h for c, h in self.bumps])
        order = np.argsort(self._a)
        self._a = self._a[order]
        self._b = self._b[order]
        if len(self._a) > 1 and not (self._b[:-1] < self._a[1:]).all():
            raise ValueError("bump intervals must be pairwise disjoint")
        self._r0 = np.clip(0.0, self._a, self._b)

    def with_bump(self, center: float, half_width: float) -> "PiecewiseCurvature1D":
        return PiecewiseCurvature1D(self.base_mu, self.big_l,
                                    self.bumps + [(center, half_width)])

    def _scalar(self, w) -> float:
        return float(self._check_point(np.reshape(w, -1))[0])

    def eval(self, w) -> float:
        x = self._scalar(w)
        val = 0.5 * self.base_mu * x * x
        if len(self._a):
            rw = np.clip(x, self._a, self._b)
            r0 = self._r0
            val += (self.big_l - self.base_mu) * float(
                (rw * x - 0.5 * rw * rw + 0.5 * r0 * r0 - r0 * x).sum())
        return val

    def grad(self, w) -> np.ndarray:
        x = self._check_point(np.reshape(w, -1))
        slope = self.base_mu * x
        if self._a.shape[-1]:  # summed along rows: bits alike for any count
            slope = slope + (self.big_l - self.base_mu) * (
                np.clip(x[:, None], self._a, self._b) - self._r0).sum(axis=-1)
        return slope

    def curvature(self, w) -> float:
        """Second derivative at w; bump membership is boundary-inclusive."""
        x = self._scalar(w)
        inside = ((self._a <= x) & (x <= self._b)).any()
        return self.big_l if inside else self.base_mu


class _BumpRows(PiecewiseCurvature1D):
    """``objective.with_bump(centers[c], eps[c])`` for each c, side by side
    as one separable objective of dim C for ``agd_run``: coordinate c's
    ``grad`` is that objective's bit for bit, as each row of bumps sums
    alone.  Only ``grad`` takes rows.  ``ok[c]`` is whether ``with_bump``
    accepts bump c (a width > 0, no overlap); a refused row has zero-width
    bumps at 0, which add nothing to the slope."""

    def __init__(self, objective: PiecewiseCurvature1D, centers: np.ndarray,
                 eps: np.ndarray):
        super().__init__(objective.base_mu, objective.big_l)
        shape = (len(eps), len(objective._a))
        a = np.column_stack([np.broadcast_to(objective._a, shape), centers - eps])
        b = np.column_stack([np.broadcast_to(objective._b, shape), centers + eps])
        order = np.argsort(a, axis=1)
        a, b = np.take_along_axis(a, order, 1), np.take_along_axis(b, order, 1)
        self.ok = (eps > 0) & (b[:, :-1] < a[:, 1:]).all(axis=1)
        self._a, self._b = (np.where(self.ok[:, None], x, 0.0) for x in (a, b))
        self.dim, self._r0 = len(eps), np.clip(0.0, self._a, self._b)


def construct_instability_objective(big_l: float, mu: float, k: int,
                                    eps_shrink: float = 0.5):
    """Build the 1-D piecewise-curvature objective that destabilizes AGD.

    Starting from the bare quadratic (mu/2) w**2, repeat K times: run AGD for
    3K steps, place a provisional L-curvature bump of half-width eps centered
    at the step-(3k+1) gradient-query point, rerun, then fix the bump at the
    recomputed query point.  eps starts at half the minimum pairwise distance
    between query points and shrinks geometrically until the perturbed
    trajectory stays within a quarter of that distance and every query point
    sees the intended curvature (L exactly at steps t = 1 mod 3 already
    covered by a bump, mu elsewhere).  The ``_MAX_SHRINKS`` widths of a stage
    run side by side, a ``_BumpRows`` row each, and the first to pass wins.

    Returns ``(objective, w0, w0_ag, delta)`` where delta is half the final
    minimum clearance between any query point and any region of the opposite
    curvature; perturbations below delta provably stay in-region.
    """
    if not (mu > 0) or big_l / mu < 25.0:
        raise ValueError(f"need L/mu >= 25, got {big_l / mu if mu > 0 else 'inf'}")
    if k < 0:
        raise ValueError("K must be >= 0")
    if not (0 < eps_shrink < 1):
        raise ValueError("eps_shrink must be in (0, 1)")
    # a generic start: w0_ag on the invariant ray of the bare quadratic
    # (e.g. 0.6 for kappa 25) makes early query points coincide exactly
    w0 = 1.0
    w0_ag = 0.45
    objective = PiecewiseCurvature1D(mu, big_l)
    if k == 0:
        return objective, w0, w0_ag, math.inf
    steps = 3 * k

    def mds_of(f):
        return agd_run(f, w0_ag, w0, big_l, mu, steps).w_md

    md = mds_of(objective)[:, 0]
    for stage in range(k):
        d_min = float(np.diff(np.sort(md)).min())
        if d_min <= 0:
            raise ConstructionError(
                f"stage {stage}: coincident gradient-query points; adjust the start")
        eps, width = np.empty(_MAX_SHRINKS), 0.5 * d_min
        for i in range(_MAX_SHRINKS):
            eps[i], width = width, width * eps_shrink
        s = 3 * stage + 1
        provisional = _BumpRows(objective, np.full(eps.size, md[s]), eps)
        center = mds_of(provisional)[s]
        candidate = _BumpRows(objective, center, eps)
        md_fin = mds_of(candidate)
        inside = ((candidate._a <= md_fin[..., None])
                  & (md_fin[..., None] <= candidate._b)).any(axis=-1)
        t = np.arange(steps)[:, None]
        want_l = (t % 3 == 1) & (t < 3 * stage + 3)
        # these keep each query point before s off both new bumps and not
        # between them, so md_fin[s] lands on center up to rounding
        ok = (provisional.ok & candidate.ok
              & (np.abs(md_fin - md[:, None]).max(axis=0) <= 0.25 * d_min)
              & (inside == want_l).all(axis=0))
        if not ok.any():
            raise ConstructionError(
                f"stage {stage}: no bump width separated the query points "
                f"after {_MAX_SHRINKS} shrinks")
        first = int(np.argmax(ok))
        objective = objective.with_bump(float(center[first]), float(eps[first]))
        md = md_fin[:, first]

    # each query point's distance to its nearest bump edge: max(a - x, x - b)
    # is minus that distance inside a bump, the distance to one outside it
    x = md[:, None]
    clearance = np.abs(np.maximum(objective._a - x, x - objective._b)).min()
    return objective, w0, w0_ag, 0.5 * float(clearance)


@dataclass
class InstabilityResult:
    """Measured separation of two AGD trajectories started eps apart.

    ``block_gaps`` holds the paired-difference gap vector (ag, w) at t = 0, 3,
    ..., 3K; ``ratios`` are per-3-step norm amplifications measured after
    projecting the previous gap onto the invariant direction (the first block
    also absorbs a one-time projection of the initial offset).  Final gaps are
    measured directly from the two explicitly simulated trajectories;
    ``max_pairing_error`` bounds the disagreement between that direct
    subtraction and the cancellation-free paired recursion.
    """

    ratios: np.ndarray
    final_gap_w: float
    final_gap_w_ag: float
    block_gaps: np.ndarray
    max_map_error: float
    max_pairing_error: float
    amplification: float
    predicted_gap_w: float
    predicted_gap_w_ag: float

    def verdict(self, eps: float) -> "InstabilityVerdict":
        """The experiment's acceptance rule for a run started ``eps`` apart.

        Every measured ratio must match the closed-form amplification within
        1e-3 and the projector map must hold within 1e-8.  With K > 0 stages
        and eps > 0, the final w gap must also reach ``0.5 * eps * 1.02**K``.
        """
        k = self.ratios.size
        ratio_error = float(np.abs(self.ratios - self.amplification).max(initial=0.0))
        gap_floor = 0.5 * eps * 1.02 ** k
        ok = (ratio_error <= 1e-3 and self.max_map_error <= 1e-8
              and (k == 0 or eps == 0 or self.final_gap_w >= gap_floor))
        return InstabilityVerdict(ok, ratio_error, gap_floor)


class InstabilityVerdict(NamedTuple):
    """Whether the acceptance rule holds, the largest ratio error, and the
    floor the final w gap had to reach."""

    ok: bool
    ratio_error: float
    gap_floor: float


def instability_experiment(objective: PiecewiseCurvature1D, w0: float, w0_ag: float,
                           big_l: float, mu: float, eps: float,
                           k: int) -> InstabilityResult:
    """Run AGD from (w0_ag, w0) and (w0_ag - eps, w0 - eps) for 3K steps.

    Both trajectories are simulated explicitly; their gap is additionally
    propagated by the exact difference recursion (the objective is piecewise
    quadratic, so within matching curvature regions the gap dynamics are
    exactly linear and can be evolved without catastrophic cancellation).
    Errors out, naming the step, if the two trajectories ever query gradients
    in regions of different curvature.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if k < 0:
        raise ValueError("K must be >= 0")
    steps = 3 * k
    agd = AgdStep(big_l, mu)
    rk = agd.rk

    lead = agd_run(objective, w0_ag, w0, big_l, mu, steps)
    trail = agd_run(objective, w0_ag - eps, w0 - eps, big_l, mu, steps)

    d_ag, d_w = float(eps), float(eps)
    blocks = [(d_ag, d_w)]
    for t in range(steps):
        h_lead = objective.curvature(lead.w_md[t, 0])
        h_trail = objective.curvature(trail.w_md[t, 0])
        if h_lead != h_trail:
            raise InstabilityRegionError(
                t, "trajectories query different curvature regions; reduce eps")
        want_l = t % 3 == 1
        if (h_lead == objective.big_l) != want_l:
            raise InstabilityRegionError(
                t, f"curvature {h_lead} breaks the mu,L,mu step pattern")
        d_md = agd.couple(d_w, d_ag)
        d_ag, d_w = agd.update(d_w, d_md, h_lead * d_md)
        if (t + 1) % 3 == 0:
            blocks.append((d_ag, d_w))
    block_gaps = np.array(blocks)

    scale = -2.0 * agd.c_shrink ** 3
    projector = np.array([[0.5, 0.5 / rk], [rk / 2.0, 0.5]])
    ratios = np.zeros(k)
    max_map_error = 0.0
    for i in range(k):
        projected = projector @ block_gaps[i]
        nxt = block_gaps[i + 1]
        denom = np.linalg.norm(nxt)
        if denom > 0:
            ratios[i] = denom / np.linalg.norm(projected)
            max_map_error = max(
                max_map_error,
                float(np.linalg.norm(nxt - scale * projected) / denom))

    explicit_ag = lead.w_ag[::3, 0] - trail.w_ag[::3, 0]
    explicit_w = lead.w[::3, 0] - trail.w[::3, 0]
    explicit = np.column_stack([explicit_ag, explicit_w])
    max_pairing_error = float(np.abs(explicit - block_gaps).max())

    growth = abs(scale) ** k
    return InstabilityResult(
        ratios=ratios,
        final_gap_w=abs(float(explicit_w[-1])),
        final_gap_w_ag=abs(float(explicit_ag[-1])),
        block_gaps=block_gaps,
        max_map_error=max_map_error,
        max_pairing_error=max_pairing_error,
        amplification=abs(scale),
        predicted_gap_w=0.5 * eps * growth * (rk + 1.0),
        predicted_gap_w_ag=0.5 * eps * growth * (1.0 + agd.c_pull),
    )
