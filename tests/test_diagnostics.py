"""Tests for potentials, transfer matrices, norm bounds, and the
initial-value-instability construction."""

import math

import numpy as np
import pytest

import fedsim.diagnostics as diagnostics
from fedsim.algorithms import Hyper, agd_run, fedac_run, schedule_fedac1
from fedsim.diagnostics import (
    ConstructionError,
    InstabilityRegionError,
    PiecewiseCurvature1D,
    construct_instability_objective,
    instability_experiment,
    norm_bound_fedac1,
    norm_bound_draws,
    norm_bound_fedac2,
    norm_bound_sweep,
    potential_phi,
    potential_psi,
    potential_report,
    sample_admissible,
    spectral_norm_2x2,
    transfer_matrix_fedac1,
    transfer_matrix_fedac2,
    transfer_matrix_from_hyper,
    transformed_norm,
)
from fedsim.objectives import Quadratic
from rng_reference import RngStream


def states(pairs):
    """(w, w_ag) worker arrays of shape (M, dim) from per-worker pairs."""
    return tuple(np.stack([np.atleast_1d(np.asarray(v, float)) for v in column])
                 for column in zip(*pairs))


# ---------------------------------------------------------------------------
# potentials


def test_potentials_zero_at_optimum():
    obj = Quadratic([1.0])
    workers = states([(0.0, 0.0)] * 3)
    assert potential_psi(*workers, obj, 1.0, [0.0], 0.0) == 0.0
    assert potential_phi(*workers, obj, 1.0, [0.0], 0.0) == 0.0


def test_potential_psi_hand_value():
    obj = Quadratic([1.0])
    workers = states([(1.0, 2.0)])  # w=1, w_ag=2
    assert potential_psi(*workers, obj, 1.0, [0.0], 0.0) == pytest.approx(2.5, abs=1e-15)


def test_potential_phi_hand_value():
    obj = Quadratic([1.0])
    workers = states([(1.0, 2.0)])
    assert potential_phi(*workers, obj, 1.0, [0.0], 0.0) == pytest.approx(
        2.0 + 1.0 / 6.0, abs=1e-15)


def test_potential_psi_symmetric_pair():
    obj = Quadratic([1.0])
    workers = states([(1.0, 1.0), (-1.0, -1.0)])
    assert potential_psi(*workers, obj, 1.0, [0.0], 0.0) == pytest.approx(0.5, abs=1e-15)


def test_phi_mean_term_obeys_jensen():
    obj = Quadratic([1.0, 3.0], shift=[0.5, -0.5])
    rng = np.random.default_rng(3)
    w_ags = rng.normal(size=(5, 2))
    workers = states([(rng.normal(size=2), ag) for ag in w_ags])
    centered = obj.eval(np.mean(w_ags, axis=0))
    mean_of_values = np.mean([obj.eval(ag) for ag in w_ags])
    assert centered <= mean_of_values + 1e-12


def test_potential_report_discrepancy():
    obj = Quadratic([1.0])
    workers = states([(1.0, 1.0), (3.0, 3.0)])
    rep = potential_report(*workers, obj, 1.0, [0.0], 0.0)
    assert rep.discrepancy_max == pytest.approx(1.0, abs=1e-15)
    assert rep.discrepancy_mean_sq == pytest.approx(1.0, abs=1e-15)
    assert rep.psi == potential_psi(*workers, obj, 1.0, [0.0], 0.0)
    assert rep.phi == potential_phi(*workers, obj, 1.0, [0.0], 0.0)


# a stack's F values come from one eval_many call over all its rows; numpy's
# pairwise sums work in blocks of 128, so the dims reach past one block
STACK_M = [1, 3, 4, 9, 17]
STACK_DIMS = [1, 2, 9, 129, 300]


def random_stack(m, dim, states=6, seed=0):
    """A Quadratic of ``dim`` and (S, M, dim) stacks ``w``, ``w_ag`` whose
    states span several orders of magnitude, with ``w_star`` and ``f_star``."""
    rng = np.random.default_rng([m, dim, seed])
    obj = Quadratic(rng.uniform(0.1, 10.0, dim), shift=rng.normal(size=dim))
    scale = np.geomspace(1e-3, 1e3, states)[:, None, None]
    w = obj.shift + scale * rng.normal(size=(states, m, dim))
    w_ag = obj.shift + scale * rng.normal(size=(states, m, dim))
    return obj, w, w_ag, obj.shift + rng.normal(size=dim) * 1e-2, 0.25


@pytest.mark.parametrize("dim", STACK_DIMS)
@pytest.mark.parametrize("m", STACK_M)
def test_stacked_potentials_equal_per_state_calls(m, dim):
    obj, w, w_ag, w_star, f_star = random_stack(m, dim)
    args = (obj, 0.7, w_star, f_star)
    psi, phi = potential_psi(w, w_ag, *args), potential_phi(w, w_ag, *args)
    rep = potential_report(w, w_ag, *args)
    assert psi.shape == phi.shape == rep.discrepancy_max.shape == (len(w),)
    for s in range(len(w)):
        one = potential_report(w[s], w_ag[s], *args)
        assert type(one.psi) is float and type(one.discrepancy_max) is float
        assert psi[s] == potential_psi(w[s], w_ag[s], *args) == one.psi
        assert phi[s] == potential_phi(w[s], w_ag[s], *args) == one.phi
        assert rep.psi[s] == one.psi and rep.phi[s] == one.phi
        assert rep.discrepancy_max[s] == one.discrepancy_max
        assert rep.discrepancy_mean_sq[s] == one.discrepancy_mean_sq


@pytest.mark.parametrize("dim", STACK_DIMS)
@pytest.mark.parametrize("m", STACK_M)
def test_potentials_equal_the_per_point_formulas(m, dim):
    """One state's potentials, against the formulas written out with one
    ``eval`` per point and the canonical worker mean."""
    obj, w, w_ag, w_star, f_star = random_stack(m, dim, states=2)
    for s in range(len(w)):
        d = np.mean(w[s], axis=0) - w_star
        values = np.array([obj.eval(a) for a in w_ag[s]])
        psi = float(np.mean(values) - f_star + 0.5 * 0.7 * (d * d).sum())
        phi = float(obj.eval(np.mean(w_ag[s], axis=0)) - f_star
                    + 0.7 / 6.0 * (d * d).sum())
        dev = np.sqrt(((w[s] - np.mean(w[s], axis=0)) ** 2).sum(axis=1))
        rep = potential_report(w[s], w_ag[s], obj, 0.7, w_star, f_star)
        assert (rep.psi, rep.phi) == (psi, phi)
        assert rep.discrepancy_max == float(dev.max())
        assert rep.discrepancy_mean_sq == float((dev * dev).mean())


def test_potentials_of_an_empty_stack():
    obj, w, w_ag, w_star, f_star = random_stack(3, 2)
    rep = potential_report(w[:0], w_ag[:0], obj, 0.7, w_star, f_star)
    assert rep.psi.shape == rep.phi.shape == rep.discrepancy_max.shape == (0,)


def test_recorded_trajectory_potentials_equal_per_step_calls():
    """The record-then-evaluate pattern: states copied in the callback, then
    one call over the trajectory, equal the per-step calls bit for bit."""
    obj = Quadratic(np.linspace(0.5, 15.0, 6), shift=np.linspace(-1.0, 1.0, 6))
    hyper = schedule_fedac1(1.0 / obj.l_est, 0.5, 1)
    steps, per_step = 30, []
    ws, w_ags = np.empty((2, steps + 1, 4, 6))

    def track(step, w, w_ag):
        ws[step], w_ags[step] = w, w_ag
        per_step.append(potential_psi(w, w_ag, obj, 0.5, obj.shift, 0.0))

    fedac_run(obj, 4, steps, 1, hyper, seed=2, w0=obj.shift + 1.0, callback=track)
    assert potential_psi(ws, w_ags, obj, 0.5, obj.shift, 0.0).tolist() == per_step


# ---------------------------------------------------------------------------
# transfer matrices


def test_fedac1_matrix_spec_point():
    a = transfer_matrix_fedac1(1.0, 0.1, 0.1, 10.0)
    assert a[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert a[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert a[1, 0] == pytest.approx(-0.9 / 1.1, rel=1e-12)
    assert a[1, 1] == pytest.approx(0.9 / 1.1, rel=1e-12)


def test_fedac1_matrix_h_equals_mu_zeroes_a21():
    a = transfer_matrix_fedac1(0.7, 0.3, 0.05, 0.7)
    assert a[1, 0] == 0.0


def test_fedac1_matrix_eta_h_one_zeroes_first_row():
    a = transfer_matrix_fedac1(0.5, 0.4, 0.25, 4.0)  # eta * H = 1
    assert a[0, 0] == 0.0
    assert a[0, 1] == 0.0


def test_fedac2_matrix_eta_h_one_zeroes_first_row():
    a = transfer_matrix_fedac2(0.5, 0.4, 0.25, 4.0)
    assert a[0, 0] == 0.0
    assert a[0, 1] == 0.0


def test_fedac2_matrix_small_gamma_mu_limit():
    # gamma * mu = 1e-8 with mu << H so the curvature terms dominate:
    # the matrix collapses to [[1 - eta H, 0], [-gamma H, 1]]
    mu, gamma, eta, h = 1e-8, 1.0, 0.01, 5.0
    a = transfer_matrix_fedac2(mu, gamma, eta, h)
    assert a[0, 0] == pytest.approx(1.0 - eta * h, rel=1e-7)
    assert a[0, 1] == pytest.approx(0.0, abs=1e-7)
    assert a[1, 0] == pytest.approx(-gamma * h, rel=1e-6)
    assert a[1, 1] == pytest.approx(1.0, rel=1e-7)


def fedac1_hyper(mu, gamma, eta):
    alpha = 1.0 / (gamma * mu)
    return Hyper(eta=eta, gamma=gamma, alpha=alpha, beta=alpha + 1.0)


def fedac2_hyper(mu, gamma, eta):
    alpha = 3.0 / (2.0 * gamma * mu) - 0.5
    beta = (2.0 * alpha * alpha - 1.0) / (alpha - 1.0)
    return Hyper(eta=eta, gamma=gamma, alpha=alpha, beta=beta)


def test_fedac2_matrix_cross_checked_against_general_form():
    mu, gamma, eta, h = 1.0, 0.1, 0.1, 10.0
    closed = transfer_matrix_fedac2(mu, gamma, eta, h)
    general = transfer_matrix_from_hyper(fedac2_hyper(mu, gamma, eta), h)
    np.testing.assert_allclose(closed, general, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_both_matrices_cross_checked_on_random_points(seed):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.05, 1.0)
    big_l = mu * rng.uniform(2.0, 50.0)
    eta = rng.uniform(0.1, 1.0) / big_l
    gamma = rng.uniform(eta, math.sqrt(eta / mu))
    h = rng.uniform(mu, big_l)
    closed1 = transfer_matrix_fedac1(mu, gamma, eta, h)
    general1 = transfer_matrix_from_hyper(fedac1_hyper(mu, gamma, eta), h)
    np.testing.assert_allclose(closed1, general1, atol=1e-12)
    closed2 = transfer_matrix_fedac2(mu, gamma, eta, h)
    general2 = transfer_matrix_from_hyper(fedac2_hyper(mu, gamma, eta), h)
    np.testing.assert_allclose(closed2, general2, atol=1e-12)


def test_transfer_matrix_validation():
    with pytest.raises(ValueError):
        transfer_matrix_fedac1(1.0, 0.1, 0.1, 0.5)  # H below mu
    with pytest.raises(ValueError):
        transfer_matrix_fedac1(1.0, -0.1, 0.1, 2.0)
    with pytest.raises(ValueError):
        transfer_matrix_fedac2(1.0, 0.1, 0.0, 2.0)


def test_one_step_difference_law_matches_simulation():
    """The (d_ag, d_w) gap of two noise-free chains evolves exactly by the
    local-step transfer matrix as long as no synchronization intervenes."""
    mu, h, eta = 0.5, 2.0, 0.1
    obj = Quadratic([h])
    hyper = schedule_fedac1(eta, mu, 1)
    a = transfer_matrix_fedac1(mu, hyper.gamma, eta, h)

    t = 10
    trajs = []
    for start in (1.3, 1.3 + 1e-3):
        seen = []
        fedac_run(obj, m=1, t=t, k=t + 1, hyper=hyper, seed=0, w0=[start],
                  callback=lambda s, W, W_ag: seen.append((W_ag[0, 0], W[0, 0])))
        trajs.append(np.array(seen))
    gaps = trajs[1] - trajs[0]

    predicted = gaps[0]
    for s in range(1, t + 1):
        predicted = a @ predicted
        np.testing.assert_allclose(gaps[s], predicted, atol=1e-12)


# ---------------------------------------------------------------------------
# transformed norm and bounds


def test_transformed_norm_identity_and_zero():
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    for gamma, eta in [(0.1, 0.1), (0.5, 0.01), (2.0, 0.25)]:
        assert transformed_norm(eye, gamma, eta) == pytest.approx(1.0, rel=1e-12)
        assert transformed_norm(zero, gamma, eta) == 0.0


def test_transformed_norm_spec_point():
    a = transfer_matrix_fedac1(1.0, 0.1, 0.1, 10.0)
    assert transformed_norm(a, 0.1, 0.1) == pytest.approx(0.9 / 1.1, rel=1e-9)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(8)
    for _ in range(50):
        b = rng.normal(size=(2, 2))
        assert spectral_norm_2x2(b) == pytest.approx(
            np.linalg.svd(b, compute_uv=False)[0], rel=1e-12)


def test_norm_bound_values():
    assert norm_bound_fedac1(1.0, 0.1, 0.01) == pytest.approx(3.0, rel=1e-12)
    assert norm_bound_fedac2(1.0, 0.1, 0.01) == pytest.approx(2.0, rel=1e-12)
    assert norm_bound_fedac1(1.0, 0.05, 0.05) == 1.0
    assert norm_bound_fedac2(1.0, 0.05, 0.05) == 1.0


def test_norm_bound_sweep_spec_point():
    report = norm_bound_sweep(1.0, 100.0, [(0.1, 0.01)], n_h=1000)
    by_schedule = {r.schedule: r for r in report.rows}
    assert by_schedule["fedac1"].bound == pytest.approx(3.0, rel=1e-12)
    assert by_schedule["fedac2"].bound == pytest.approx(2.0, rel=1e-12)
    assert not report.violations
    assert by_schedule["fedac1"].max_norm <= 3.0 + 1e-9
    assert by_schedule["fedac2"].max_norm <= 2.0 + 1e-9


def test_norm_bound_sweep_gamma_equals_eta_is_contractive():
    mu, big_l = 0.3, 10.0
    points = [(eta, eta) for eta in (0.001, 0.01, 0.05, 0.1)]
    report = norm_bound_sweep(mu, big_l, points, n_h=101)
    assert not report.violations
    for r in report.rows:
        assert r.bound == 1.0
        assert r.max_norm <= 1.0 + 1e-9


def test_norm_bound_sweep_precondition_errors():
    with pytest.raises(ValueError):
        norm_bound_sweep(1.0, 10.0, [(0.2, 0.2)])  # eta > 1/L
    with pytest.raises(ValueError):
        norm_bound_sweep(1.0, 10.0, [(0.01, 0.05)])  # gamma < eta
    with pytest.raises(ValueError):
        norm_bound_sweep(1.0, 10.0, [(0.9, 0.05)])  # gamma > sqrt(eta/mu)
    with pytest.raises(ValueError):
        norm_bound_sweep(-1.0, 10.0, [(0.05, 0.05)])


def test_sample_admissible_satisfies_preconditions():
    draws = sample_admissible(seed=123, count=200)
    assert draws.shape == (200, 4)
    mu, big_l, gamma, eta = draws.T
    assert np.all(mu > 0)
    assert np.all(big_l >= mu)
    assert np.all((eta > 0) & (eta <= 1.0 / big_l + 1e-15))
    assert np.all(gamma >= eta - 1e-15)
    assert np.all(gamma <= np.sqrt(eta / mu) * (1 + 1e-12))


def test_norm_bound_sweep_random_admissible_points():
    for mu, big_l, gamma, eta in sample_admissible(seed=5, count=25):
        report = norm_bound_sweep(mu, big_l, [(gamma, eta)], n_h=11)
        assert not report.violations


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def test_transfer_matrices_on_arrays_equal_their_scalar_calls():
    rng = np.random.default_rng(3)
    mu = rng.uniform(0.05, 1.0, (4, 1))
    eta = rng.uniform(0.1, 1.0, (4, 1)) / (mu * 40.0)
    gamma = eta + rng.uniform(0.0, 1.0, (4, 1)) * (np.sqrt(eta / mu) - eta)
    hs = mu * np.linspace(1.0, 40.0, 6)
    for matrix_fn in (transfer_matrix_fedac1, transfer_matrix_fedac2):
        stack = matrix_fn(mu, gamma, eta, hs)
        assert stack.shape == (4, 6, 2, 2)
        for i, j in np.ndindex(4, 6):
            args = (float(mu[i, 0]), float(gamma[i, 0]), float(eta[i, 0]),
                    float(hs[i, j]))
            assert bits(stack[i, j]) == bits(matrix_fn(*args))
        norms = transformed_norm(stack, gamma, eta)
        assert norms.shape == (4, 6)
        for i, j in np.ndindex(4, 6):
            assert bits(norms[i, j]) == bits(transformed_norm(
                stack[i, j], float(gamma[i, 0]), float(eta[i, 0])))
    hyper = fedac1_hyper(0.3, 0.2, 0.05)
    stack = transfer_matrix_from_hyper(hyper, hs[0])
    assert stack.shape == (6, 2, 2)
    for j, h in enumerate(hs[0]):
        assert bits(stack[j]) == bits(transfer_matrix_from_hyper(hyper, float(h)))


def scalar_max_norm(matrix_fn, mu, big_l, gamma, eta, n_h=21):
    """The transformed norm maximized over the curvature grid, one 2x2
    ``np.matmul`` at a time."""
    mu, big_l, gamma, eta = (float(v) for v in (mu, big_l, gamma, eta))
    r = eta / gamma
    x = np.array([[r, 0.0], [1.0, 1.0]])
    x_inv = np.array([[1.0 / r, 0.0], [-1.0 / r, 1.0]])
    worst = -math.inf
    for h in np.linspace(mu, big_l, n_h):
        b = np.matmul(np.matmul(x_inv, matrix_fn(mu, gamma, eta, float(h))), x)
        g = np.matmul(b.T, b)
        half_tr = 0.5 * (g[0, 0] + g[1, 1])
        disc = max(half_tr * half_tr - (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]), 0.0)
        worst = max(worst, math.sqrt(max(half_tr + math.sqrt(disc), 0.0)))
    return worst


def cli_draws(seed, samples=200, mu=0.1, big_l=10.0):
    """The (mu, L, gamma, eta) rows ``fedsim norm-bounds`` sweeps."""
    u = RngStream(seed, 0).uniforms(2 * samples).reshape(samples, 2)
    gamma, eta = norm_bound_draws(u, mu, big_l)
    return np.column_stack([np.full(samples, mu), np.full(samples, big_l),
                            gamma, eta])


@pytest.mark.parametrize("draws", [sample_admissible(2024, 1000), cli_draws(0)],
                         ids=["verify", "cli"])
def test_array_sweep_max_norm_equals_the_scalar_reference_bitwise(draws):
    report = norm_bound_sweep(draws[:, 0], draws[:, 1], draws[:, 2:])
    assert len(report.rows) == 2 * len(draws)
    for i, (mu, big_l, gamma, eta) in enumerate(draws):
        for row, matrix_fn in zip(report.rows[2 * i:2 * i + 2],
                                  (transfer_matrix_fedac1, transfer_matrix_fedac2)):
            assert (row.gamma, row.eta) == (gamma, eta)
            assert bits(row.max_norm) == bits(
                scalar_max_norm(matrix_fn, mu, big_l, gamma, eta))


def test_norm_bound_sweep_rows_equal_one_call_per_point():
    draws = sample_admissible(seed=5, count=25)
    one_call = norm_bound_sweep(draws[:, 0], draws[:, 1], draws[:, 2:], n_h=11)
    per_point = [row for mu, big_l, gamma, eta in draws
                 for row in norm_bound_sweep(mu, big_l, [(gamma, eta)], n_h=11).rows]
    assert one_call.rows == per_point
    assert [r.schedule for r in one_call.rows[:4]] == ["fedac1", "fedac2"] * 2


@pytest.mark.parametrize("mu, big_l, points, message", [
    (1.0, 10.0, [(0.05, 0.05), (0.01, 0.05), (0.2, 0.2)],
     "gamma=0.01 outside [eta, sqrt(eta/mu)] for eta=0.05, mu=1.0"),
    (1.0, [10.0, 8.0, 10.0], [(0.05, 0.05), (0.15, 0.15), (0.01, 0.05)],
     "eta=0.15 outside (0, 1/L] for L=8.0"),
    ([1.0, 3.0], [10.0, 2.0], [(0.05, 0.05), (0.05, 0.05)],
     "need 0 < mu <= L, got 3.0, 2.0"),
], ids=["gamma", "eta", "mu"])
def test_norm_bound_sweep_names_the_first_bad_point(mu, big_l, points, message):
    with pytest.raises(ValueError) as info:
        norm_bound_sweep(mu, big_l, points)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# piecewise-curvature objective


def test_piecewise_base_case_is_quadratic():
    f = PiecewiseCurvature1D(0.04, 1.0)
    for x in [-2.0, 0.0, 0.7, 3.0]:
        assert f.eval([x]) == pytest.approx(0.5 * 0.04 * x * x, abs=1e-15)
        assert f.grad([x])[0] == pytest.approx(0.04 * x, abs=1e-15)
        assert f.curvature([x]) == 0.04


def test_piecewise_bump_curvature_boundary_inclusive():
    f = PiecewiseCurvature1D(0.04, 1.0, [(0.5, 0.1)])
    assert f.curvature([0.5]) == 1.0
    assert f.curvature([0.4]) == 1.0
    assert f.curvature([0.6]) == 1.0
    assert f.curvature([0.39999]) == 0.04
    assert f.curvature([0.60001]) == 0.04


def test_piecewise_disjointness_enforced():
    f = PiecewiseCurvature1D(0.04, 1.0, [(0.5, 0.1)])
    with pytest.raises(ValueError):
        f.with_bump(0.55, 0.1)
    g = f.with_bump(0.9, 0.05)  # disjoint: fine
    assert len(g.bumps) == 2


@pytest.mark.parametrize("call", [
    lambda f: f.eval(np.nan), lambda f: f.eval([np.inf]),
    lambda f: f.grad(np.inf), lambda f: f.grad([-np.inf]),
    lambda f: f.curvature(np.nan), lambda f: f.curvature([np.nan]),
    lambda f: f.eval_many(np.array([0.3, 0.4])),
    lambda f: f.eval_many(np.array([0.3])),
    lambda f: f.eval_many(np.array([[0.3], [np.nan]])),
    lambda f: f.eval([0.3, 0.4]), lambda f: f.grad([0.3, 0.4]),
], ids=["eval-nan", "eval-inf", "grad-inf", "grad-minus-inf", "curvature-nan",
        "curvature-nan-row", "eval_many-1d", "eval_many-one-1d",
        "eval_many-nan-row", "eval-two-points", "grad-two-points"])
def test_piecewise_checks_its_point(call):
    f = PiecewiseCurvature1D(0.04, 1.0, [(0.5, 0.1)])
    with pytest.raises(ValueError):
        call(f)


def test_piecewise_takes_a_point_in_any_one_value_shape():
    """A scalar, a (1,) point and a (1, 1) row are one point, as they are to
    ``Objective.eval`` on any objective."""
    f = PiecewiseCurvature1D(0.04, 1.0, [(0.5, 0.1)])
    for x in (0.45, -2.0):
        assert f.eval(x) == f.eval([x]) == f.eval([[x]]) == f.eval(np.float64(x))
        assert f.grad([[x]]).tolist() == f.grad(x).tolist()
        assert f.curvature([[x]]) == f.curvature(x)
    assert f.eval_many(np.array([[0.45], [-2.0]])).tolist() == \
        [f.eval(0.45), f.eval(-2.0)]
    assert f.eval_many(np.empty((0, 1))).shape == (0,)
    assert Quadratic([0.04]).eval([[-2.0]]) == Quadratic([0.04]).eval(-2.0)


def test_piecewise_gradient_matches_finite_differences():
    f = PiecewiseCurvature1D(0.04, 1.0, [(0.5, 0.1), (-1.2, 0.3)])
    for x in [-2.0, -1.2, -0.5, 0.45, 0.5, 0.8, 2.0]:
        h = 1e-7
        fd = (f.eval([x + h]) - f.eval([x - h])) / (2 * h)
        assert f.grad([x])[0] == pytest.approx(fd, abs=1e-6)


# ---------------------------------------------------------------------------
# instability construction


def test_construct_rejects_small_condition_number():
    with pytest.raises(ValueError):
        construct_instability_objective(10.0, 1.0, 2)


def test_construct_k_zero_is_bare_quadratic():
    f, w0, w0_ag, delta = construct_instability_objective(25.0, 1.0, 0)
    assert f.bumps == []
    assert delta == math.inf
    assert f.eval([2.0]) == pytest.approx(0.5 * 1.0 * 4.0, abs=1e-15)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_construct_curvature_pattern_on_trajectory(k):
    big_l, mu = 25.0, 1.0
    f, w0, w0_ag, delta = construct_instability_objective(big_l, mu, k)
    assert delta > 0
    assert len(f.bumps) == k
    traj = agd_run(f, w0_ag, w0, big_l, mu, 3 * k)
    for t in range(3 * k):
        h = f.curvature(traj.w_md[t])
        assert h == (big_l if t % 3 == 1 else mu)


def test_construct_gradient_continuity_at_boundaries():
    f, _, _, _ = construct_instability_objective(25.0, 1.0, 2)
    boundaries = [c - hw for c, hw in f.bumps] + [c + hw for c, hw in f.bumps]
    for c in boundaries:
        prev = None
        for h in [1e-4, 1e-6, 1e-8]:
            jump = abs(f.grad([c + h / 2])[0] - f.grad([c - h / 2])[0])
            assert jump <= f.big_l * h
            if prev is not None:
                assert jump < prev
            prev = jump


def test_construct_input_validation():
    with pytest.raises(ValueError):
        construct_instability_objective(25.0, 1.0, -1)
    with pytest.raises(ValueError):
        construct_instability_objective(25.0, 1.0, 2, eps_shrink=1.5)


def reference_construction(big_l, mu, k, eps_shrink=0.5, max_shrinks=60,
                           run=agd_run):
    """The construction as a sequential loop over bump widths: per stage,
    shrink eps from half the smallest query-point gap until a provisional
    run, a candidate run and the checks all pass.  ``run`` is ``agd_run``."""
    w0, w0_ag = 1.0, 0.45
    objective = PiecewiseCurvature1D(mu, big_l)
    if k == 0:
        return objective, w0, w0_ag, math.inf
    steps = 3 * k

    def mds_of(f):
        return run(f, w0_ag, w0, big_l, mu, steps).w_md[:, 0]

    def pattern_ok(f, mds, stages_done):
        return all((f.curvature(x) == f.big_l)
                   == ((t % 3 == 1) and t < 3 * stages_done)
                   for t, x in enumerate(mds))

    for stage in range(k):
        md = mds_of(objective)
        d_min = float(np.diff(np.sort(md)).min())
        if d_min <= 0:
            raise ConstructionError(
                f"stage {stage}: coincident gradient-query points; adjust the start")
        eps = 0.5 * d_min
        placed = None
        for _ in range(max_shrinks):
            try:
                provisional = objective.with_bump(float(md[3 * stage + 1]), eps)
            except ValueError:
                eps *= eps_shrink
                continue
            center = float(mds_of(provisional)[3 * stage + 1])
            try:
                candidate = objective.with_bump(center, eps)
            except ValueError:
                eps *= eps_shrink
                continue
            md_fin = mds_of(candidate)
            if (np.abs(md_fin - md).max() <= 0.25 * d_min
                    and abs(md_fin[3 * stage + 1] - center) <= 0.25 * eps
                    and pattern_ok(candidate, md_fin, stage + 1)):
                placed = candidate
                break
            eps *= eps_shrink
        if placed is None:
            raise ConstructionError(
                f"stage {stage}: no bump width separated the query points "
                f"after {max_shrinks} shrinks")
        objective = placed

    md = mds_of(objective)
    clearance = math.inf
    a, b = objective._a, objective._b
    for t, x in enumerate(md):
        if t % 3 == 1:
            i = int(np.where((a <= x) & (x <= b))[0][0])
            clearance = min(clearance, x - a[i], b[i] - x)
        else:
            clearance = min(clearance, float(np.maximum(a - x, x - b).min()))
    return objective, w0, w0_ag, 0.5 * clearance


def construction_outcome(build, kappa, k, eps_shrink):
    """The bits of ``(objective.bumps, w0, w0_ag, delta)``, or the message of
    the ConstructionError raised instead."""
    try:
        f, w0, w0_ag, delta = build(kappa, 1.0, k, eps_shrink)
    except ConstructionError as e:
        return str(e)
    return [float(x).hex() for pair in f.bumps for x in pair] + \
        [float(x).hex() for x in (w0, w0_ag, delta)]


@pytest.mark.parametrize("kappa,k,eps_shrink", [
    *((kappa, k, 0.5) for kappa in (25.0, 30.0, 47.5, 100.0, 400.0)
      for k in (0, 1, 2, 4, 9, 10)),
    (25.0, 9, 0.3), (47.5, 5, 0.8), (400.0, 4, 0.3), (30.0, 10, 0.8),
    (100.0, 9, 0.7)])
def test_construction_matches_the_sequential_search(kappa, k, eps_shrink):
    """All bump widths of a stage searched in one batched run pick the bumps,
    start and delta of the loop that tries them one at a time, bit for bit,
    or fail with its message (kappa 100, K = 9 at shrink 0.7 runs out of
    widths).  At K = 9 and 10 a row holds 8 or more bumps, which numpy sums
    in its unrolled branch of the pairwise sum."""
    assert construction_outcome(construct_instability_objective, kappa, k,
                                eps_shrink) == \
        construction_outcome(reference_construction, kappa, k, eps_shrink)


@pytest.mark.parametrize("kappa,k,shrinks", [(25.0, 8, 1), (25.0, 8, 4),
                                             (25.0, 8, 20), (100.0, 6, 2)])
def test_construction_runs_out_of_widths_as_the_sequential_search(
        monkeypatch, kappa, k, shrinks):
    """Fewer widths per stage than it needs end the search at the stage,
    and with the message, of the sequential loop (stages 0, 1, 6 and 0)."""
    monkeypatch.setattr(diagnostics, "_MAX_SHRINKS", shrinks)
    with pytest.raises(ConstructionError) as want:
        reference_construction(kappa, 1.0, k, max_shrinks=shrinks)
    with pytest.raises(ConstructionError) as got:
        construct_instability_objective(kappa, 1.0, k)
    assert str(got.value) == str(want.value)
    assert f"after {shrinks} shrinks" in str(got.value)


def test_construction_refuses_coincident_query_points(monkeypatch):
    """A run whose query points collide (here rounded to whole numbers)
    stops the construction with the sequential search's message."""
    def rounded(*args):
        traj = agd_run(*args)
        traj.w_md = np.round(traj.w_md)
        return traj

    monkeypatch.setattr(diagnostics, "agd_run", rounded)
    with pytest.raises(ConstructionError) as want:
        reference_construction(25.0, 1.0, 3, run=rounded)
    with pytest.raises(ConstructionError) as got:
        construct_instability_objective(25.0, 1.0, 3)
    assert str(got.value) == str(want.value)
    assert "coincident gradient-query points" in str(got.value)


def float_slope(f, x):
    """F' at the float x by the formula in plain floats, one bump sum."""
    return f.base_mu * x + (f.big_l - f.base_mu) * float(
        (np.clip(x, f._a, f._b) - f._r0).sum())


@pytest.mark.parametrize("nb", range(1, 13))
def test_bump_rows_slope_is_the_scalar_slope(nb):
    """Rows adding one bump of nb in any gap of the other nb - 1 (or beyond
    them) give the grad of the objective ``with_bump`` makes bit for bit at
    random points, and it keeps the bits of the plain float formula."""
    rng = np.random.default_rng(nb)
    base = PiecewiseCurvature1D(0.04, 1.0, [(2.0 * i - 3.0, rng.uniform(0.1, 0.3))
                                            for i in range(nb - 1)])
    gaps = rng.integers(-1, nb, 24)
    centers = 2.0 * gaps - 2.0 + rng.uniform(-0.1, 0.1, gaps.size)
    eps = rng.uniform(0.05, 0.3, gaps.size)
    rows = diagnostics._BumpRows(base, centers, eps)
    assert rows.ok.all() and rows._a.shape == (gaps.size, nb)
    objectives = [base.with_bump(c, e) for c, e in zip(centers, eps)]
    for _ in range(20):
        x = rng.uniform(-2.0 * nb, 2.0 * nb, gaps.size)
        batched = rows.grad(x)
        for c, f in enumerate(objectives):
            assert f.grad([x[c]]).tolist() == [batched[c]] == [float_slope(f, x[c])]


def test_bump_rows_refuse_what_with_bump_refuses():
    """A width <= 0 or an overlap refuses a row, which then has no bumps that
    add to the slope: it is the bare quadratic's."""
    base = PiecewiseCurvature1D(0.04, 1.0, [(0.0, 0.5), (2.0, 0.5)])
    centers = np.array([1.0, 1.0, 1.0, 1.4, -0.6, 3.0, 3.0])
    eps = np.array([0.4, 0.0, -0.1, 0.2, 0.2, 0.6, 0.49])
    rows = diagnostics._BumpRows(base, centers, eps)

    def accepts(center, width):
        try:
            base.with_bump(center, width)
        except ValueError:
            return False
        return True

    assert rows.ok.tolist() == [accepts(c, e) for c, e in zip(centers, eps)] \
        == [True, False, False, False, False, False, True]
    x = np.linspace(-1.0, 4.0, centers.size)
    assert (rows.grad(x)[~rows.ok] == 0.04 * x[~rows.ok]).all()


# ---------------------------------------------------------------------------
# instability experiment


def run_instability(k, kappa=25.0):
    big_l, mu = kappa, 1.0
    f, w0, w0_ag, delta = construct_instability_objective(big_l, mu, k)
    amp = 2.0 * (1.0 - 1.0 / math.sqrt(kappa)) ** 3
    eps = min(1e-9, 0.25 * delta / amp**k)
    res = instability_experiment(f, w0, w0_ag, big_l, mu, eps, k)
    return res, eps, amp


@pytest.mark.parametrize("k", [1, 2, 4])
def test_instability_amplification_matches_closed_form(k):
    res, eps, amp = run_instability(k)
    assert amp == pytest.approx(1.024, rel=1e-12)
    assert res.amplification == pytest.approx(amp, rel=1e-12)
    assert res.ratios.shape == (k,)
    np.testing.assert_allclose(res.ratios, amp, atol=1e-3)
    assert res.max_map_error <= 1e-8


@pytest.mark.parametrize("k", [1, 2, 4])
def test_instability_final_gaps(k):
    res, eps, amp = run_instability(k)
    growth = amp**k
    # guaranteed growth floor, looser than the exact 1.024 rate
    assert res.final_gap_w >= 0.5 * eps * 1.02**k
    # exact closed forms from the 3-step map, within 1%
    rk = 5.0
    assert res.predicted_gap_w == pytest.approx(0.5 * eps * growth * (rk + 1), rel=1e-12)
    assert res.predicted_gap_w_ag == pytest.approx(
        0.5 * eps * growth * (1 + 1 / rk), rel=1e-12)
    assert res.final_gap_w == pytest.approx(res.predicted_gap_w, rel=0.01)
    assert res.final_gap_w_ag == pytest.approx(res.predicted_gap_w_ag, rel=0.01)
    assert res.max_pairing_error <= 1e-12


def test_instability_verdict():
    res, eps, _ = run_instability(4)
    verdict = res.verdict(eps)
    assert verdict.ok
    assert verdict.gap_floor == 0.5 * eps * 1.02**4
    assert verdict.ratio_error == float(np.abs(res.ratios - res.amplification).max())
    assert not res.verdict(2.0 * res.final_gap_w / 1.02**4 * 1.01).ok  # gap below floor
    res.ratios[1] += 2e-3
    assert not res.verdict(eps).ok
    res.ratios[1] = np.nan
    assert not res.verdict(eps).ok
    f, w0, w0_ag, _ = construct_instability_objective(25.0, 1.0, 0)
    empty = instability_experiment(f, w0, w0_ag, 25.0, 1.0, 1e-9, 0)
    assert empty.verdict(1e-9) == (True, 0.0, 0.5e-9)
    zero = instability_experiment(f, w0, w0_ag, 25.0, 1.0, 0.0, 0)
    assert zero.verdict(0.0).ok


def test_instability_zero_eps_means_zero_gaps():
    f, w0, w0_ag, delta = construct_instability_objective(25.0, 1.0, 2)
    res = instability_experiment(f, w0, w0_ag, 25.0, 1.0, 0.0, 2)
    assert res.final_gap_w == 0.0
    assert res.final_gap_w_ag == 0.0
    assert np.all(res.block_gaps == 0.0)


def test_instability_oversized_eps_reports_step():
    f, w0, w0_ag, delta = construct_instability_objective(25.0, 1.0, 1)
    with pytest.raises(InstabilityRegionError) as ei:
        instability_experiment(f, w0, w0_ag, 25.0, 1.0, 0.1, 1)
    assert 0 <= ei.value.step <= 2


def test_instability_input_validation():
    f, w0, w0_ag, _ = construct_instability_objective(25.0, 1.0, 1)
    with pytest.raises(ValueError):
        instability_experiment(f, w0, w0_ag, 25.0, 1.0, -1e-9, 1)
    with pytest.raises(ValueError):
        instability_experiment(f, w0, w0_ag, 25.0, 1.0, 1e-9, -1)
