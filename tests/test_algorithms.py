"""Tests for the optimization drivers and hyperparameter schedules."""

import numpy as np
import pytest

from fedsim.algorithms import (
    AgdTrajectory,
    DivergenceError,
    Hyper,
    RunResult,
    ScheduleError,
    agd_run,
    fedac_run,
    fedavg_run,
    _bad_workers,
    mb_acsgd_run,
    mb_sgd_run,
    replica_mean,
    _run_minibatch,
    run_replicas,
    schedule_fedac1,
    schedule_fedac2,
    schedule_vanilla,
    worker_mean,
)
from fedsim.harness import make_synthetic_logistic, run_group
from fedsim.objectives import Logistic, Quadratic, _as_row
from fedsim.rng import StreamBundle


class Capture:
    """Callback that records averaged iterates per step."""

    def __init__(self):
        self.ts = []
        self.w = []
        self.w_ag = []

    def __call__(self, t, W, W_ag):
        self.ts.append(t)
        self.w.append(W.copy())
        self.w_ag.append(None if W_ag is None else W_ag.copy())

    def mean_w(self):
        return [worker_mean(W) for W in self.w]

    def mean_w_ag(self):
        return [worker_mean(W) for W in self.w_ag]


# ---------------------------------------------------------------------------
# schedules


def test_schedule_fedac1_values():
    h = schedule_fedac1(0.01, 1.0, 4)
    assert h.gamma == pytest.approx(0.05, rel=1e-12)
    assert h.alpha == pytest.approx(20.0, rel=1e-12)
    assert h.beta == pytest.approx(21.0, rel=1e-12)

    h = schedule_fedac1(0.25, 1.0, 1)
    assert (h.gamma, h.alpha, h.beta) == (0.5, 2.0, 3.0)

    h = schedule_fedac1(1.0, 1.0, 1)
    assert (h.gamma, h.alpha, h.beta) == (1.0, 1.0, 2.0)


def test_schedule_fedac2_values():
    h = schedule_fedac2(0.01, 1.0, 4)
    assert h.gamma == pytest.approx(0.05, rel=1e-12)
    assert h.alpha == pytest.approx(29.5, rel=1e-12)
    assert h.beta == pytest.approx(1739.5 / 28.5, rel=1e-12)

    h = schedule_fedac2(0.04, 1.0, 1)
    assert h.gamma == pytest.approx(0.2, rel=1e-12)
    assert h.alpha == pytest.approx(7.0, rel=1e-12)
    assert h.beta == pytest.approx(97.0 / 6.0, rel=1e-12)


def test_schedule_fedac2_alpha_boundary_errors():
    with pytest.raises(ScheduleError):
        schedule_fedac2(1.0, 1.0, 1)


def test_schedule_vanilla_values():
    h = schedule_vanilla(0.01, 1.0)
    assert h.gamma == pytest.approx(0.1, rel=1e-12)
    assert h.alpha == pytest.approx(10.0, rel=1e-12)
    assert h.beta == pytest.approx(11.0, rel=1e-12)

    h = schedule_vanilla(1.0, 1.0)
    assert (h.gamma, h.alpha, h.beta) == (1.0, 1.0, 2.0)

    h = schedule_vanilla(0.04, 0.25)
    assert h.gamma == pytest.approx(0.4, rel=1e-12)
    assert h.alpha == pytest.approx(10.0, rel=1e-12)
    assert h.beta == pytest.approx(11.0, rel=1e-12)


def test_schedule_argument_validation():
    for bad in [(-0.1, 1.0, 1), (0.1, 0.0, 1), (0.1, 1.0, 0)]:
        with pytest.raises(ScheduleError):
            schedule_fedac1(*bad)
        with pytest.raises(ScheduleError):
            schedule_fedac2(*bad)
    with pytest.raises(ScheduleError):
        schedule_vanilla(0.1, -1.0)


def test_hyper_invariants():
    with pytest.raises(ValueError):
        Hyper(eta=0.0, gamma=1.0, alpha=2.0, beta=2.0)
    with pytest.raises(ValueError):
        Hyper(eta=0.5, gamma=0.25, alpha=2.0, beta=2.0)  # gamma < eta
    with pytest.raises(ValueError):
        Hyper(eta=0.1, gamma=0.2, alpha=0.5, beta=2.0)
    with pytest.raises(ValueError):
        Hyper(eta=0.1, gamma=0.2, alpha=2.0, beta=0.5)
    nan = float("nan")  # each invariant is written so that a nan fails it
    for values in [(nan, 0.2, 2.0, 2.0), (0.1, nan, 2.0, 2.0),
                   (0.1, 0.2, nan, 2.0), (0.1, 0.2, 2.0, nan),
                   (0.1, 0.2, nan, float("inf"))]:
        with pytest.raises(ValueError):
            Hyper(*values)


# ---------------------------------------------------------------------------
# fedac_run


def test_fedac_hand_stepped_single_update():
    obj = Quadratic([1.0])
    hyper = Hyper(eta=0.25, gamma=0.5, alpha=2.0, beta=3.0)
    res = fedac_run(obj, m=1, t=1, k=1, hyper=hyper, seed=0, w0=[1.0])
    assert res.final_avg_w[0] == pytest.approx(0.5, abs=1e-15)
    assert res.final_avg_w_ag[0] == pytest.approx(0.75, abs=1e-15)


def test_fedac_fixed_point_at_optimum():
    obj = Quadratic([2.0, 0.5], shift=[0.0, 0.0], sigma=0.0)
    hyper = schedule_fedac1(0.1, obj.mu_est, 3)
    cap = Capture()
    res = fedac_run(obj, m=4, t=9, k=3, hyper=hyper, seed=5, w0=[0.0, 0.0],
                    callback=cap)
    assert all(np.all(W == 0.0) for W in cap.w)
    assert np.all(res.final_avg_w == 0.0)
    assert np.all(res.final_avg_w_ag == 0.0)


def test_fedac_zero_noise_worker_and_k_independence():
    """With a deterministic oracle all workers coincide, so M and K are inert."""
    obj = Quadratic([1.0, 2.0, 0.7], shift=[0.3, -0.2, 0.9], sigma=0.0)
    hyper = schedule_fedac1(0.2, obj.mu_est, 1)
    base = Capture()
    fedac_run(obj, m=1, t=20, k=20, hyper=hyper, seed=0, w0=[1.0, 1.0, 1.0],
              callback=base)
    # power-of-two worker counts keep the averaging exact: bitwise match
    other = Capture()
    fedac_run(obj, m=4, t=20, k=5, hyper=hyper, seed=9, w0=[1.0, 1.0, 1.0],
              callback=other)
    for a, b in zip(base.mean_w(), other.mean_w()):
        np.testing.assert_array_equal(a, b)
    # odd worker counts can pick up averaging dust; still 1e-12 close
    third = Capture()
    fedac_run(obj, m=3, t=20, k=2, hyper=hyper, seed=1, w0=[1.0, 1.0, 1.0],
              callback=third)
    for a, b in zip(base.mean_w(), third.mean_w()):
        np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("k_values", [(1, 2, 5, 30)])
def test_fedac_zero_noise_k_independence_final(k_values):
    obj = Quadratic([0.5, 1.5], shift=[1.0, -1.0], sigma=0.0)
    hyper = schedule_fedac1(0.3, obj.mu_est, 1)
    finals = [
        fedac_run(obj, m=2, t=30, k=k, hyper=hyper, seed=3, w0=[0.0, 0.0]).final_avg_w
        for k in k_values
    ]
    for f in finals[1:]:
        np.testing.assert_allclose(f, finals[0], atol=1e-12)


@pytest.mark.parametrize("m", [2, 4])
def test_fedac_k1_equals_averaged_gradient_chain(m):
    """At K=1 every step synchronizes, so the run collapses to one chain
    driven by the worker-averaged gradient at the shared query point."""
    obj = Quadratic([1.0, 2.0, 0.5], shift=[0.1, 0.2, 0.3], sigma=1.0)
    hyper = schedule_fedac1(0.1, obj.mu_est, 1)
    t = 50
    w0 = np.array([1.0, -1.0, 0.5])

    cap = Capture()
    fedac_run(obj, m=m, t=t, k=1, hyper=hyper, seed=42, w0=w0, callback=cap)

    bundle = StreamBundle(42, np.arange(m))
    w = w0.copy()
    w_ag = w0.copy()
    ref = [w.copy()]
    for _ in range(t):
        w_md = (1.0 / hyper.beta) * w + (1.0 - 1.0 / hyper.beta) * w_ag
        g = worker_mean(obj.stoch_grad_multi(w_md, bundle))
        w_ag = w_md - hyper.eta * g
        w = (1.0 - 1.0 / hyper.alpha) * w + (1.0 / hyper.alpha) * w_md - hyper.gamma * g
        ref.append(w.copy())

    means = cap.mean_w()
    assert len(means) == t + 1
    for a, b in zip(means, ref):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_fedac_sync_is_projection():
    obj = Quadratic([1.0, 1.0], sigma=1.0)
    hyper = schedule_fedac1(0.1, 1.0, 4)
    cap = Capture()
    fedac_run(obj, m=3, t=12, k=4, hyper=hyper, seed=7, w0=[1.0, 0.0], callback=cap)
    saw_spread = False
    for t, W, W_ag in zip(cap.ts, cap.w, cap.w_ag):
        if t % 4 == 0:
            assert np.all(W == W[0])
            assert np.all(W_ag == W_ag[0])
        elif not np.all(W == W[0]):
            saw_spread = True
    assert saw_spread  # noise does separate workers between syncs


def test_fedac_gradient_calls_and_validation():
    obj = Quadratic([1.0])
    hyper = schedule_fedac1(0.1, 1.0, 1)
    res = fedac_run(obj, m=3, t=7, k=7, hyper=hyper, seed=0)
    assert res.gradient_calls == 21
    with pytest.raises(ValueError):
        fedac_run(obj, m=0, t=7, k=7, hyper=hyper, seed=0)
    with pytest.raises(ValueError):
        fedac_run(obj, m=1, t=0, k=1, hyper=hyper, seed=0)


def test_fedac_divergence_reports_step_and_worker():
    obj = Quadratic([1.0])
    hyper = Hyper(eta=1e300, gamma=1e300, alpha=2.0, beta=2.0)
    with pytest.raises(DivergenceError) as ei:
        fedac_run(obj, m=2, t=10, k=1, hyper=hyper, seed=0, w0=[1.0])
    assert ei.value.step >= 0
    assert ei.value.worker in (0, 1)


def test_the_kernel_reports_divergence_under_a_strict_errstate():
    """A caller's ``np.errstate(all="raise")`` neither turns a divergence
    into a FloatingPointError nor reaches the callback: the kernel owns
    its overflow and invalid-operation policy."""
    obj = Quadratic([1.0])
    seen = []

    def policy(t, w, w_ag):
        seen.append((np.geterr()["over"], np.geterr()["invalid"]))

    with np.errstate(all="raise"):
        res = run_replicas(obj, 2, 10, 1, [0.1, 1e300], [0, 1], w0=[1.0],
                           callback=policy)
        with pytest.raises(DivergenceError):
            fedac_run(obj, m=2, t=10, k=1, seed=0, w0=[1.0],
                      hyper=Hyper(eta=1e300, gamma=1e300, alpha=2.0, beta=2.0))
        assert np.geterr()["over"] == "raise"
    assert res.diverged[0] is None and res.diverged[1] is not None
    assert set(seen) == {("ignore", "ignore")}


# ---------------------------------------------------------------------------
# fedavg_run


def test_fedavg_hand_stepped_single_update():
    obj = Quadratic([1.0])
    res = fedavg_run(obj, m=3, t=1, k=1, eta=0.5, seed=0, w0=[1.0])
    assert res.final_avg_w[0] == 0.5


def test_fedavg_k1_equals_minibatch_sgd_bitwise():
    obj = Quadratic([1.0, 0.5], shift=[0.2, -0.4], sigma=1.0)
    t, m = 40, 4
    cap_avg = Capture()
    res_avg = fedavg_run(obj, m=m, t=t, k=1, eta=0.05, seed=12,
                         w0=[1.0, 1.0], callback=cap_avg)
    cap_mb = Capture()
    res_mb = mb_sgd_run(obj, m=m, t=t, k=1, eta=0.05, seed=12,
                        w0=[1.0, 1.0], callback=cap_mb)
    for a, b in zip(cap_avg.mean_w(), cap_mb.mean_w()):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(res_avg.final_avg_w, res_mb.final_avg_w)


def test_fedavg_m1_kt_is_sequential_sgd():
    obj = Quadratic([2.0], shift=[1.0], sigma=0.7)
    t = 25
    res = fedavg_run(obj, m=1, t=t, k=t, eta=0.1, seed=4, w0=[0.0])

    bundle = StreamBundle(4, np.arange(1))
    w = np.array([0.0])
    for _ in range(t):
        w = w - 0.1 * obj.stoch_grad_multi(w, bundle)[0]
    np.testing.assert_allclose(res.final_avg_w, w, atol=1e-15)


def test_fedavg_rho_average_matches_direct_sum():
    obj = Quadratic([1.0, 3.0], shift=[0.5, 0.5], sigma=0.5)
    m, t, k, eta = 3, 20, 4, 0.1
    cap = Capture()
    res = fedavg_run(obj, m=m, t=t, k=k, eta=eta, seed=8, w0=[2.0, -2.0],
                     callback=cap)
    mu = obj.mu_est
    rho = np.array([(1.0 - 0.5 * eta * mu) ** (t - s - 1) for s in range(t)])
    means = np.stack(cap.mean_w()[:t])
    direct = (rho[:, None] * means).sum(axis=0) / rho.sum()
    np.testing.assert_allclose(res.rho_avg_w, direct, atol=1e-12)


def test_fedavg_rho_average_zero_mu_is_uniform():
    obj = Quadratic([1.0], sigma=0.3, mu_est=0.0)
    t = 10
    cap = Capture()
    res = fedavg_run(obj, m=2, t=t, k=2, eta=0.05, seed=2, w0=[1.0], callback=cap)
    uniform = np.mean(np.stack(cap.mean_w()[:t]), axis=0)
    np.testing.assert_allclose(res.rho_avg_w, uniform, atol=1e-12)


def test_fedavg_sync_is_projection():
    obj = Quadratic([1.0], sigma=1.0)
    cap = Capture()
    fedavg_run(obj, m=3, t=9, k=3, eta=0.1, seed=5, w0=[0.5], callback=cap)
    for t, W in zip(cap.ts, cap.w):
        if t % 3 == 0:
            assert np.all(W == W[0])


def test_fedavg_gradient_calls_and_divergence():
    obj = Quadratic([1.0])
    res = fedavg_run(obj, m=3, t=7, k=7, eta=0.1, seed=0)
    assert res.gradient_calls == 21
    with pytest.raises(DivergenceError) as ei:
        fedavg_run(obj, m=2, t=10, k=1, eta=1e300, seed=0, w0=[1.0])
    assert ei.value.step >= 0


# ---------------------------------------------------------------------------
# run_replicas


class Spike(Quadratic):
    """A noisy quadratic whose oracle returns inf on chosen rows at one call,
    or on the rows ``spikes[c]`` at each call c."""

    def __init__(self, rows=(), call=-1, spikes=None):
        super().__init__([1.0, 2.0], shift=[0.5, -0.5], sigma=0.3)
        self.spikes = {call: list(rows)} if spikes is None else spikes
        self.calls = 0

    def stoch_grad_multi(self, W, bundle, **work):
        g = super().stoch_grad_multi(W, bundle, **work)
        g[self.spikes.get(self.calls, [])] = np.inf
        self.calls += 1
        return g


@pytest.mark.parametrize("accelerated", [True, False])
@pytest.mark.parametrize("m,k", [(1, 1), (3, 4), (4, 1)])
def test_run_replicas_rows_match_single_runs(accelerated, m, k):
    obj = Spike()
    etas, seeds = [0.05, 0.2, 0.05], [0, 0, 7]
    steps = [schedule_fedac1(e, obj.mu_est, k) for e in etas] if accelerated \
        else etas
    cap = Capture()
    res = run_replicas(obj, m, 12, k, steps, seeds, w0=[1.0, -1.0], callback=cap)
    assert res.diverged == [None] * 3
    assert res.gradient_calls == [m * 12] * 3
    assert cap.ts == list(range(13))
    for r, (eta, seed) in enumerate(zip(etas, seeds)):
        single = Capture()
        if accelerated:
            one = fedac_run(obj, m, 12, k, steps[r], seed, w0=[1.0, -1.0],
                            callback=single)
            assert res.rho_avg_w is None
        else:
            one = fedavg_run(obj, m, 12, k, eta, seed, w0=[1.0, -1.0],
                             callback=single)
            np.testing.assert_array_equal(res.rho_avg_w[r], one.rho_avg_w)
        np.testing.assert_array_equal(res.final_avg_w[r], one.final_avg_w)
        np.testing.assert_array_equal(res.final_avg_w_ag[r], one.final_avg_w_ag)
        rows = slice(r * m, (r + 1) * m)
        for W, W_ag, w1, ag1 in zip(cap.w, cap.w_ag, single.w, single.w_ag):
            assert len(W) == 3 * m
            np.testing.assert_array_equal(W[rows], w1)
            if accelerated:
                np.testing.assert_array_equal(W_ag[rows], ag1)


def test_replica_mean_matches_worker_mean():
    a = np.random.default_rng(0).normal(size=(5 * 7, 11)) * 1e3
    means = replica_mean(a, 7)
    for r in range(5):
        np.testing.assert_array_equal(means[r], worker_mean(a[r * 7:(r + 1) * 7]))


@pytest.mark.parametrize("accelerated", [True, False])
def test_run_replicas_drops_a_diverged_replica(accelerated):
    """Replica 1's workers 1 and 2 blow up at local step 2: it is recorded as
    diverged at (2, 1) and drops out of the results, its rows frozen at the
    start point (the origin) and its finals nan, and the others run on
    unchanged."""
    m, t, k = 3, 8, 4
    etas, seeds = [0.05, 0.1, 0.2], [3, 4, 5]
    steps = [schedule_fedac1(e, 1.0, k) for e in etas] if accelerated else etas
    cap = Capture()
    res = run_replicas(Spike(rows=[m + 1, m + 2], call=2), m, t, k, steps,
                       seeds, callback=cap)
    assert res.diverged == [None, (2, 1), None]
    assert cap.ts == list(range(t + 1))
    for step, W, W_ag in zip(cap.ts, cap.w, cap.w_ag):
        for state in (W, W_ag) if accelerated else (W,):
            assert np.isfinite(state).all()
            assert (state[m:2 * m] == 0.0).all() == (step > 2 or step == 0)
    assert np.isnan(res.final_avg_w[1]).all()
    assert np.isnan(res.final_avg_w_ag[1]).all()
    if not accelerated:
        assert np.isnan(res.rho_avg_w[1]).all()
    for r in (0, 2):
        if accelerated:
            one = fedac_run(Spike(), m, t, k, steps[r], seeds[r])
        else:
            one = fedavg_run(Spike(), m, t, k, etas[r], seeds[r])
            np.testing.assert_array_equal(res.rho_avg_w[r], one.rho_avg_w)
        np.testing.assert_array_equal(res.final_avg_w[r], one.final_avg_w)
        np.testing.assert_array_equal(res.final_avg_w_ag[r], one.final_avg_w_ag)


def spike_divergence(driver, call):
    """The (step, worker) a 3-worker, K = 4 run on ``Spike`` reports when
    workers 1 and 2 blow up at oracle call ``call``, and the callback steps."""
    obj = Spike(rows=[1, 2], call=call)
    seen = []
    with pytest.raises(DivergenceError) as ei:
        if driver == "fedac":
            fedac_run(obj, 3, 8, 4, schedule_fedac1(0.1, 1.0, 4), 0,
                      callback=lambda t, w, w_ag: seen.append(t))
        else:
            fedavg_run(obj, 3, 8, 4, 0.1, 0,
                       callback=lambda t, w, w_ag: seen.append(t))
    return (ei.value.step, ei.value.worker), seen


@pytest.mark.parametrize("driver", ["fedac", "fedavg"])
def test_single_run_divergence_reports_lowest_worker(driver):
    report, seen = spike_divergence(driver, 2)
    assert report == (2, 1)
    assert seen == [0, 1, 2]


@pytest.mark.parametrize("driver", ["fedac", "fedavg"])
def test_divergence_at_a_synchronized_step_reports_worker_zero(driver):
    """Step 3 synchronizes (K = 4): every row is the block mean, which the
    kernel checks in place of the rows, so worker 0 is reported."""
    report, seen = spike_divergence(driver, 3)
    assert report == (3, 0)
    assert seen == [0, 1, 2, 3]


def test_bad_workers_checks_w_before_w_ag():
    w = np.zeros((9, 2))
    w_ag = np.zeros((9, 2))
    w[2, 1] = np.nan      # replica 0: w bad at worker 2 ...
    w_ag[0, 0] = np.inf   # ... and w_ag at worker 0: w is reported
    w_ag[5, 0] = -np.inf  # replica 1: only w_ag, at worker 2
    assert _bad_workers([w, w_ag], 3) == [2, 2, None]
    assert _bad_workers([w], 3) == [2, None, None]


def test_run_replicas_validation():
    obj = Quadratic([1.0])
    hyper = schedule_fedac1(0.1, 1.0, 1)
    with pytest.raises(ValueError):
        run_replicas(obj, 1, 4, 1, [hyper], [0, 1])
    with pytest.raises(ValueError):
        run_replicas(obj, 1, 4, 1, [], [])
    with pytest.raises(ValueError):
        run_replicas(obj, 1, 4, 1, [hyper, 0.1], [0, 1])
    with pytest.raises(ValueError):
        run_replicas(obj, 1, 4, 1, [0.1, 0.0], [0, 1])
    with pytest.raises(ValueError):
        run_replicas(obj, 0, 4, 1, [0.1], [0])
    with pytest.raises(ValueError, match="one K per seed"):
        run_replicas(obj, 1, 4, [1, 2, 4], [0.1, 0.2], [0, 1])
    with pytest.raises(ValueError, match="one M and one K per seed"):
        run_replicas(obj, [1, 2, 3], 4, 1, [0.1, 0.2], [0, 1])
    with pytest.raises(ValueError):
        run_replicas(obj, [1, 0], 4, 1, [0.1, 0.2], [0, 1])
    with pytest.raises(ValueError):
        run_replicas(obj, 1, 4, [1, 0], [0.1, 0.2], [0, 1])


def mixed_k_replicas(accelerated, ks):
    """Two replicas per K, the Ks in contiguous blocks in the given order:
    (K column, step rules, seeds)."""
    etas, seeds = [0.05, 0.2], [0, 7]
    column, steps = [], []
    for k in ks:
        column += [k] * len(etas)
        steps += [schedule_fedac1(e, 1.0, k) for e in etas] if accelerated \
            else etas
    return column, steps, seeds * len(ks)


def assert_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("accelerated", [True, False])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("ks", [(1, 2, 4), (2, 3)])
def test_mixed_k_call_equals_per_k_calls(accelerated, m, ks):
    """One call over replicas of several K gives each K's own call: the
    finals, FedAvg's weighted averages and every callback view, bit for
    bit; 2 and 3 also sync apart."""
    t, w0 = 12, [1.0, -1.0]
    column, steps, seeds = mixed_k_replicas(accelerated, ks)
    cap = Capture()
    res = run_replicas(Spike(), m, t, column, steps, seeds, w0=w0,
                       callback=cap)
    assert res.diverged == [None] * len(seeds)
    assert res.gradient_calls == [m * t] * len(seeds)
    assert cap.ts == list(range(t + 1))
    for i, k in enumerate(ks):
        reps = slice(2 * i, 2 * i + 2)
        rows = slice(2 * i * m, (2 * i + 2) * m)
        own_cap = Capture()
        own = run_replicas(Spike(), m, t, k, steps[reps], seeds[reps], w0=w0,
                           callback=own_cap)
        assert_bits(res.final_avg_w[reps], own.final_avg_w)
        assert_bits(res.final_avg_w_ag[reps], own.final_avg_w_ag)
        if accelerated:
            assert res.rho_avg_w is None
        else:
            assert_bits(res.rho_avg_w[reps], own.rho_avg_w)
        assert own_cap.ts == cap.ts
        for W, alone in zip(cap.w, own_cap.w):
            assert_bits(W[rows], alone)
        for W_ag, alone in zip(cap.w_ag, own_cap.w_ag):
            if accelerated:
                assert_bits(W_ag[rows], alone)
            else:
                assert W_ag is None and alone is None


@pytest.mark.parametrize("accelerated", [True, False])
@pytest.mark.parametrize("call", [3, 7])
def test_mixed_k_divergence_reports_the_pair_of_a_run_alone(accelerated,
                                                           call):
    """Among replicas of K = 1, 4, 8 and 2 (M = 3, T = 8), workers 1 and 2
    of the K = 4 and K = 8 replicas blow up at step ``call``.  At step 3 the
    K = 4 replica syncs and reports worker 0 while the K = 8 one, on a local
    step, reports worker 1; at step 7 every replica syncs.  Each report is
    that of the replica's run alone, and the others run on unchanged."""
    m, t, ks = 3, 8, [1, 4, 8, 2]
    etas, seeds = [0.05, 0.1, 0.2, 0.1], [3, 4, 5, 6]
    steps = [schedule_fedac1(e, 1.0, k) for e, k in zip(etas, ks)] \
        if accelerated else etas
    res = run_replicas(Spike(rows=[4, 5, 7, 8], call=call), m, t, ks,
                       steps, seeds)
    alone = [run_replicas(Spike(rows=[1, 2] if r in (1, 2) else [],
                                call=call),
                          m, t, ks[r], steps[r:r + 1], seeds[r:r + 1])
             for r in range(4)]
    assert res.diverged == [a.diverged[0] for a in alone]
    assert res.diverged == [None, (call, 0), (call, 1 if call == 3 else 0),
                            None]
    for r in (0, 3):
        assert_bits(res.final_avg_w[r], alone[r].final_avg_w[0])
        assert_bits(res.final_avg_w_ag[r], alone[r].final_avg_w_ag[0])


def replica_rows(cap, r, ms):
    """Replica r's (t, W, W_ag) rows in each captured call, replicas owning
    ``ms[r]`` rows each in order."""
    first = np.cumsum([0, *ms])
    rows = slice(first[r], first[r + 1])
    return [(step, W[rows], None if W_ag is None else W_ag[rows])
            for step, W, W_ag in zip(cap.ts, cap.w, cap.w_ag)]


@pytest.mark.parametrize("accelerated", [True, False])
@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("call", [3, 5])
def test_mixed_m_call_equals_one_replica_runs(accelerated, order, call):
    """One call over a replica of each (M, K) in {1, 2, 3, 5} x {1, 2, 4}
    gives every replica its one-replica run: each callback state, the
    finals, FedAvg's weighted average and the divergence pair, bit for bit.
    Four replicas blow up at their last worker at step ``call``: at step 3
    every K syncs, so each reports worker 0 (M > 1); at step 5 the K = 4
    ones are on a local step and report worker M - 1.  From the next step
    on, each of the four holds the start point, which its run alone never
    reaches."""
    t, w0 = 12, [1.0, -1.0]
    cells = [(m, k) for m in (1, 2, 3, 5) for k in (1, 2, 4)]
    cells = cells if order == "ascending" else cells[::-1]
    ms, ks = [m for m, _ in cells], [k for _, k in cells]
    etas = [(0.05, 0.2, 0.1)[i % 3] for i in range(len(cells))]
    steps = [schedule_fedac1(e, 1.0, k) for e, k in zip(etas, ks)] \
        if accelerated else etas
    seeds = [i % 4 for i in range(len(cells))]
    blown = {0, 5, 7, 11}
    first = np.cumsum([0, *ms])
    cap = Capture()
    res = run_replicas(Spike(rows=[first[r + 1] - 1 for r in sorted(blown)],
                             call=call),
                       ms, t, ks, steps, seeds, w0=w0, callback=cap)
    assert res.gradient_calls == [m * t for m in ms]
    assert [d is not None for d in res.diverged] == \
        [r in blown for r in range(len(cells))]
    for r, (m, k) in enumerate(cells):
        own = Capture()
        alone = run_replicas(Spike(rows=[m - 1] if r in blown else [],
                                   call=call),
                             m, t, k, steps[r:r + 1], seeds[r:r + 1],
                             w0=w0, callback=own)
        assert res.diverged[r] == alone.diverged[0]
        if r in blown:
            assert res.diverged[r] == \
                (call, m - 1 if (call + 1) % k else 0)
        assert_bits(res.final_avg_w[r], alone.final_avg_w[0])
        assert_bits(res.final_avg_w_ag[r], alone.final_avg_w_ag[0])
        if accelerated:
            assert res.rho_avg_w is None
        else:
            assert_bits(res.rho_avg_w[r], alone.rho_avg_w[0])
        mixed, single = replica_rows(cap, r, ms), replica_rows(own, 0, [m])
        assert [s[0] for s in mixed] == list(range(t + 1))
        assert [s[0] for s in single] == \
            list(range(call + 1 if r in blown else t + 1))
        for (_, w, ag), (_, w1, ag1) in zip(mixed, single):
            assert_bits(w, w1)
            if accelerated:
                assert_bits(ag, ag1)
            else:
                assert ag is None and ag1 is None
        for _, w, ag in mixed[len(single):]:
            for state in (w, ag) if accelerated else (w,):
                assert (state == w0).all()


@pytest.mark.parametrize("accelerated", [True, False])
def test_frozen_replicas_hold_the_start_row_beside_their_own_runs(
        accelerated):
    """In one call of mixed (M, K), replica 1 blows up at step 3 (a sync
    step for its K = 4), replica 3 at step 5 (a local one), and replica 1
    again at step 7, when it is frozen.  Each keeps its first (step,
    worker), holds the start row from the next step to T and has nan
    finals and weighted averages; every other replica is its one-replica
    run, bit for bit."""
    t, ms, ks = 12, [2, 3, 1, 3, 2], [1, 4, 1, 4, 2]
    etas, seeds = [0.05, 0.1, 0.2, 0.1, 0.05], [0, 1, 2, 3, 4]
    steps = [schedule_fedac1(e, 1.0, k) for e, k in zip(etas, ks)] \
        if accelerated else etas
    first = np.cumsum([0, *ms])
    spikes = {3: [first[2] - 1], 5: [first[4] - 1],
              7: list(range(first[1], first[2]))}
    cap = Capture()
    res = run_replicas(Spike(spikes=spikes), ms, t, ks, steps, seeds,
                       callback=cap)
    assert res.diverged == [None, (3, 0), None, (5, 2), None]
    assert cap.ts == list(range(t + 1))
    for r, step in ((1, 3), (3, 5)):
        assert np.isnan(res.final_avg_w[r]).all()
        assert np.isnan(res.final_avg_w_ag[r]).all()
        if not accelerated:
            assert np.isnan(res.rho_avg_w[r]).all()
        frozen = replica_rows(cap, r, ms)[step + 1:]
        assert len(frozen) == t - step
        for _, w, ag in frozen:
            for state in (w, ag) if accelerated else (w,):
                assert (state == 0.0).all()
    for r in (0, 2, 4):
        own = Capture()
        alone = run_replicas(Spike(), ms[r], t, ks[r], steps[r:r + 1],
                             seeds[r:r + 1], callback=own)
        assert_bits(res.final_avg_w[r], alone.final_avg_w[0])
        assert_bits(res.final_avg_w_ag[r], alone.final_avg_w_ag[0])
        if not accelerated:
            assert_bits(res.rho_avg_w[r], alone.rho_avg_w[0])
        for (_, w, ag), (_, w1, ag1) in zip(replica_rows(cap, r, ms),
                                            replica_rows(own, 0, [ms[r]])):
            assert_bits(w, w1)
            if accelerated:
                assert_bits(ag, ag1)


@pytest.mark.parametrize("accelerated", [True, False])
def test_one_start_row_per_replica(accelerated):
    """With ``w0`` one row per replica, each replica is its one-replica run
    from its own row, bit for bit.  Replica 1 blows up at worker 1 on step
    2, a local step for K = 2, and holds its own start row from step 3 on,
    not the others' rows."""
    m, t, k, call = 2, 8, 2, 2
    etas, seeds = [0.05, 0.1, 0.2], [0, 1, 2]
    steps = [schedule_fedac1(e, 1.0, k) for e in etas] if accelerated \
        else etas
    starts = np.array([[1.0, -1.0], [0.5, 2.0], [-3.0, 0.25]])
    cap = Capture()
    res = run_replicas(Spike(rows=[3], call=call), m, t, k, steps, seeds,
                       w0=starts, callback=cap)
    assert res.diverged == [None, (call, 1), None]
    for r in range(3):
        own = Capture()
        alone = run_replicas(Spike(), m, t, k, steps[r:r + 1], seeds[r:r + 1],
                             w0=starts[r], callback=own)
        states = replica_rows(cap, r, [m] * 3)
        if r == 1:
            states, frozen = states[:call + 1], states[call + 1:]
            assert len(frozen) == t - call
            for _, w, ag in frozen:
                for state in (w, ag) if accelerated else (w,):
                    assert (state == starts[1]).all()
        else:
            assert_bits(res.final_avg_w[r], alone.final_avg_w[0])
            assert_bits(res.final_avg_w_ag[r], alone.final_avg_w_ag[0])
        for (_, w, ag), (_, w1, ag1) in zip(states, replica_rows(own, 0, [m])):
            assert_bits(w, w1)
            if accelerated:
                assert_bits(ag, ag1)


@pytest.mark.parametrize("w0", [np.zeros((2, 2)), np.zeros((3, 3)),
                                np.zeros(3), np.zeros((3, 2, 1))])
def test_run_replicas_rejects_a_start_of_the_wrong_shape(w0):
    """Three replicas of dim 2 take one start, one entry or three rows of
    two; any other shape raises a ValueError that names ``w0``."""
    with pytest.raises(ValueError, match="^w0 length"):
        run_replicas(Spike(), 2, 4, 1, [0.1] * 3, [0, 1, 2], w0=w0)


@pytest.mark.parametrize("accelerated", [True, False])
def test_a_call_stops_when_every_replica_has_diverged(accelerated):
    """Replicas blowing up at steps 2 and 4 end the call after step 4: the
    callback runs before steps 0 to 4 and not at T, and the oracle is
    queried five times."""
    m, t, k = 2, 12, 2
    steps = [schedule_fedac1(e, 1.0, k) for e in (0.05, 0.1)] \
        if accelerated else [0.05, 0.1]
    obj, cap = Spike(spikes={2: [0], 4: [2, 3]}), Capture()
    res = run_replicas(obj, m, t, k, steps, [0, 1], callback=cap)
    assert res.diverged == [(2, 0), (4, 0)]
    assert cap.ts == [0, 1, 2, 3, 4]
    assert obj.calls == 5
    assert res.gradient_calls == [m * 5] * 2
    assert np.isnan(res.final_avg_w).all()
    assert np.isnan(res.final_avg_w_ag).all()


@pytest.mark.parametrize("accelerated", [True, False])
def test_a_stopped_minibatch_call_counts_the_rounds_it_took(accelerated):
    """Replicas of M*K = 4 streams blowing up in rounds 1 and 3 end the call
    after four rounds, K queries each per conceptual worker."""
    m, t, k = 2, 12, 2
    steps = [schedule_vanilla(e, 1.0) for e in (0.05, 0.1)] \
        if accelerated else [0.05, 0.1]
    obj = Spike(spikes={1: [0], 3: [5]})
    res = _run_minibatch(obj, m, t, k, steps, [0, 1])
    assert res.diverged == [(3, 0), (7, 0)]
    assert obj.calls == 4
    assert res.gradient_calls == [4 * k] * 2


def test_replica_mean_takes_one_m_per_replica():
    a = np.random.default_rng(1).normal(size=(1 + 3 + 3 + 2 + 1, 5)) * 1e3
    ms = [1, 3, 3, 2, 1]
    first = np.cumsum([0, *ms])
    means = replica_mean(a, ms)
    assert means.shape == (5, 5)
    for r in range(5):
        assert_bits(means[r], worker_mean(a[first[r]:first[r + 1]]))
    assert replica_mean(a[:0], []).shape == (0, 5)


@pytest.mark.parametrize("m", [4, [4, 4], [4, 4, 4]])
def test_replica_mean_rejects_m_values_that_miss_rows(m):
    """Ten rows are neither replicas of 4 nor 8 or 12 rows in all: no row
    is dropped or read past without an error."""
    a = np.arange(30.0).reshape(10, 3)
    with pytest.raises(ValueError, match="rows"):
        replica_mean(a, m)


# ---------------------------------------------------------------------------
# mb_sgd_run


def test_mb_sgd_zero_noise_is_gradient_descent():
    obj = Quadratic([1.0, 0.5], shift=[1.0, -1.0], sigma=0.0)
    t, k = 12, 3
    res = mb_sgd_run(obj, m=2, t=t, k=k, eta=0.4, seed=0, w0=[0.0, 0.0])
    w = np.zeros(2)
    for _ in range(t // k):
        w = w - 0.4 * obj.grad(w)
    np.testing.assert_allclose(res.final_avg_w, w, atol=1e-12)


def test_mb_sgd_one_step_to_optimum():
    obj = Quadratic([1.0], sigma=0.0)
    res = mb_sgd_run(obj, m=1, t=1, k=1, eta=1.0, seed=0, w0=[1.0])
    assert res.final_avg_w[0] == 0.0


def test_mb_sgd_holds_one_state_row_per_replica():
    """The M*K streams of an mb_sgd replica query its one state row through
    the oracle's shared-point form, in each of the T/K steps."""
    seen = []

    class Spy(Quadratic):
        def stoch_grad_multi(self, W, bundle, **work):
            seen.append((W.shape, len(bundle)))
            return super().stoch_grad_multi(W, bundle, **work)

    obj = Spy([1.0, 2.0], shift=[0.3, -0.6], sigma=1.0)
    res = _run_minibatch(obj, 3, 8, 4, [0.1, 0.2], [0, 1])
    assert seen == [((2, 2), 24)] * 2
    for r, (eta, seed) in enumerate([(0.1, 0), (0.2, 1)]):
        np.testing.assert_array_equal(
            res.final_avg_w[r], mb_sgd_run(obj, 3, 8, 4, eta, seed).final_avg_w)


def test_mb_sgd_k_must_divide_t():
    obj = Quadratic([1.0])
    with pytest.raises(ValueError):
        mb_sgd_run(obj, m=1, t=10, k=3, eta=0.1, seed=0)


def test_mb_sgd_gradient_calls():
    obj = Quadratic([1.0])
    res = mb_sgd_run(obj, m=3, t=8, k=4, eta=0.1, seed=0)
    assert res.gradient_calls == 8


def test_mb_sgd_divergence():
    obj = Quadratic([1.0])
    with pytest.raises(DivergenceError):
        mb_sgd_run(obj, m=1, t=10, k=1, eta=1e300, seed=0, w0=[1.0])


def test_mb_sgd_divergence_reports_parallel_step():
    obj = Quadratic([1.0])
    with pytest.raises(DivergenceError) as ei:
        mb_sgd_run(obj, m=2, t=16, k=4, eta=1e300, seed=0, w0=[1.0])
    # round 0 lands on -1e300, round 1 overflows; its last parallel step is 7
    assert (ei.value.step, ei.value.worker) == (7, 0)


def test_divergence_report_matches_between_fedavg_and_mb_sgd_at_k1():
    obj = Quadratic([1.0])
    reports = []
    for run in (fedavg_run, mb_sgd_run):
        with pytest.raises(DivergenceError) as ei:
            run(obj, m=3, t=10, k=1, eta=1e300, seed=0, w0=[1.0])
        reports.append((ei.value.step, ei.value.worker))
    assert reports[0] == reports[1] == (1, 0)


# ---------------------------------------------------------------------------
# mb_acsgd_run


def test_mb_acsgd_hand_stepped_single_update():
    obj = Quadratic([1.0])
    res = mb_acsgd_run(obj, m=1, t=1, k=1, eta=1.0, seed=0, w0=[1.0])
    assert res.final_avg_w[0] == 0.0
    assert res.final_avg_w_ag[0] == 0.0


def test_mb_acsgd_equals_the_plain_reference():
    obj = Quadratic([1.0, 2.0], shift=[0.3, 0.6], sigma=1.0)
    m, t, k, eta = 3, 24, 4, 0.05
    res = mb_acsgd_run(obj, m=m, t=t, k=k, eta=eta, seed=77, w0=[1.0, 1.0])
    ref = reference_mb_acsgd(obj, m, t, k, eta, 77, [1.0, 1.0],
                             lambda *state: None)
    np.testing.assert_array_equal(res.final_avg_w, ref.final_avg_w)
    np.testing.assert_array_equal(res.final_avg_w_ag, ref.final_avg_w_ag)


def test_mb_acsgd_group_records_equal_the_plain_reference():
    """A sweep group of three mb_acsgd replicas records F at the plain
    reference's ``w_ag`` at every eval step, bit for bit."""
    obj = small_logistic()
    m, t, k, every = 3, 24, 4, 8
    replicas = [(0.05, 5), (0.2, 6), (0.5, 7)]
    values = []
    for eta, seed in replicas:
        cap = Capture()
        reference_mb_acsgd(obj, m, t, k, eta, seed, None, cap)
        values.append([obj.eval(w_ag[0]) for s, w_ag in zip(cap.ts, cap.w_ag)
                       if s % every == 0])
    cells = run_group(obj, "mb_acsgd", m, k, replicas, t, every, 0.0)
    assert [[r.suboptimality for r in c.records] for c in cells] == values


def test_mb_acsgd_callback_steps_are_rescaled():
    obj = Quadratic([1.0], sigma=0.0)
    cap = Capture()
    mb_acsgd_run(obj, m=2, t=12, k=4, eta=0.1, seed=0, w0=[1.0], callback=cap)
    assert cap.ts == [0, 4, 8, 12]


def test_mb_acsgd_potential_decreases_at_eta_one_over_l():
    obj = Quadratic([0.5, 2.0], shift=[1.0, -1.0], sigma=0.0)
    big_l = obj.l_est
    mu = obj.mu_est
    cap = Capture()
    mb_acsgd_run(obj, m=1, t=40, k=1, eta=1.0 / big_l, seed=0,
                 w0=[3.0, 3.0], callback=cap)
    star = obj.shift
    pots = []
    for W, W_ag in zip(cap.w, cap.w_ag):
        w = worker_mean(W)
        w_ag = worker_mean(W_ag)
        pots.append(0.5 * mu * float((w - star) @ (w - star)) + obj.eval(w_ag))
    pots = np.array(pots)
    assert np.all(pots[1:] <= pots[:-1] * (1 + 1e-12) + 1e-15)


def test_mb_acsgd_gradient_calls():
    obj = Quadratic([1.0])
    res = mb_acsgd_run(obj, m=3, t=8, k=4, eta=0.1, seed=0)
    assert res.gradient_calls == 8


def test_mb_acsgd_divergence_reports_parallel_step():
    obj = Quadratic([1e-3, 1e3])
    m, t, k, eta = 2, 400, 4, 1e3
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as ref:
            reference_mb_acsgd(obj, m, t, k, eta, 0, [1.0, 1.0],
                               lambda *state: None)
        with pytest.raises(DivergenceError) as outer:
            mb_acsgd_run(obj, m, t, k, eta, 0, w0=[1.0, 1.0])
    # a later round than the first, reported at its last parallel step
    assert ref.value.step > k - 1 and (ref.value.step + 1) % k == 0
    assert (outer.value.step, outer.value.worker) == (ref.value.step, 0)


def test_mb_acsgd_requires_positive_mu():
    obj = Quadratic([1.0], mu_est=0.0)
    with pytest.raises(ValueError):
        mb_acsgd_run(obj, m=1, t=4, k=1, eta=0.1, seed=0)


# ---------------------------------------------------------------------------
# the minibatch wrappers against the per-cell chains they replaced


def reference_mb_sgd(obj, m, t, k, eta, seed, w0, callback):
    """Minibatch SGD as its own loop: one (dim,) iterate and T/K steps, each
    the mean over the M*K streams of ``w - eta * g_j``."""
    bundle = StreamBundle(seed, np.arange(m * k))
    w = _as_row(w0, obj.dim, "w0")
    for r in range(t // k):
        callback(r * k, w[None, :], None)
        g = obj.stoch_grad_multi(w, bundle)
        w = worker_mean(w[None, :] - eta * g)
        if not np.isfinite(w).all():
            raise DivergenceError((r + 1) * k - 1, 0)
    callback(t, w[None, :], None)
    return RunResult(w, w, t)


def reference_mb_acsgd(obj, m, t, k, eta, seed, w0, callback):
    """Accelerated minibatch SGD as its own loop: one (dim,) pair of iterates
    and T/K steps of FedAc's update with the vanilla schedule, each on the
    mean gradient of the M*K streams at the coupled point."""
    h = schedule_vanilla(eta, obj.mu_est)
    inv_a, inv_b = 1.0 / h.alpha, 1.0 / h.beta
    bundle = StreamBundle(seed, np.arange(m * k))
    w = w_ag = _as_row(w0, obj.dim, "w0")
    for r in range(t // k):
        callback(r * k, w[None, :], w_ag[None, :])
        w_md = inv_b * w + (1.0 - inv_b) * w_ag
        g = np.add.reduce(obj.stoch_grad_multi(w_md, bundle), axis=0) / (m * k)
        w_ag = w_md - h.eta * g
        w = (1.0 - inv_a) * w + inv_a * w_md - h.gamma * g
        if not (np.isfinite(w).all() and np.isfinite(w_ag).all()):
            raise DivergenceError((r + 1) * k - 1, 0)
    callback(t, w[None, :], w_ag[None, :])
    return RunResult(w, w_ag, t)


MINIBATCH = {"mb_sgd": (mb_sgd_run, reference_mb_sgd),
             "mb_acsgd": (mb_acsgd_run, reference_mb_acsgd)}


def small_logistic():
    return Logistic(make_synthetic_logistic(40, 6, seed=2, nnz=3), lam=0.05)


def assert_same_capture(a, b):
    assert a.ts == b.ts
    for x, y in zip(a.w + a.w_ag, b.w + b.w_ag):
        if x is None or y is None:
            assert x is None and y is None
        else:
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("algorithm", sorted(MINIBATCH))
@pytest.mark.parametrize("objective", ["quadratic", "logistic"])
@pytest.mark.parametrize("m,k", [(1, 1), (3, 1), (2, 4), (3, 4)])
def test_minibatch_wrapper_matches_per_cell_chain(algorithm, objective, m, k):
    """Every callback state and the final averages, bit for bit; M*K = 3 or
    12 rows do not average back to their common value exactly."""
    if objective == "quadratic":
        obj = Quadratic([1.0, 2.0], shift=[0.3, -0.6], sigma=1.0)
    else:
        obj = small_logistic()
    driver, reference = MINIBATCH[algorithm]
    w0 = np.linspace(-1.0, 1.0, obj.dim)
    got, want = Capture(), Capture()
    res = driver(obj, m, 24, k, 0.2, 5, w0=w0, callback=got)
    ref = reference(obj, m, 24, k, 0.2, 5, w0, want)
    assert got.ts == list(range(0, 25, k))
    assert all(w.shape == (1, obj.dim) for w in got.w)
    assert_same_capture(got, want)
    np.testing.assert_array_equal(res.final_avg_w, ref.final_avg_w)
    np.testing.assert_array_equal(res.final_avg_w_ag, ref.final_avg_w_ag)
    assert res.gradient_calls == ref.gradient_calls == 24


@pytest.mark.parametrize("algorithm", sorted(MINIBATCH))
@pytest.mark.parametrize("m,k", [(1, 1), (3, 1), (2, 4)])
def test_minibatch_wrapper_diverges_like_per_cell_chain(algorithm, m, k):
    obj, eta = (Quadratic([1.0]), 1e300) if algorithm == "mb_sgd" \
        else (Quadratic([1e-3, 1e3]), 1e3)
    w0 = np.ones(obj.dim)
    got, want = Capture(), Capture()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as mine:
            MINIBATCH[algorithm][0](obj, m, 400, k, eta, 0, w0=w0, callback=got)
        with pytest.raises(DivergenceError) as theirs:
            MINIBATCH[algorithm][1](obj, m, 400, k, eta, 0, w0, want)
    assert (mine.value.step, mine.value.worker) == \
        (theirs.value.step, theirs.value.worker)
    assert mine.value.step > k - 1
    assert_same_capture(got, want)


@pytest.mark.parametrize("algorithm", sorted(MINIBATCH))
def test_run_minibatch_replicas_match_single_runs(algorithm):
    """Replicas of either chain, side by side with one diverging, give each
    replica's single-run callback states, finals and divergence report."""
    m, k = 3, 4
    if algorithm == "mb_sgd":
        obj, t, etas = Quadratic([1.0, 2.0], shift=[0.3, -0.6], sigma=1.0), \
            16, [0.05, 1e300, 0.2]
        steps = etas
    else:
        obj, t, etas = Quadratic([1e-3, 1e3], shift=[0.3, -0.6], sigma=1.0), \
            400, [1e-4, 1e3, 5e-4]
        steps = [schedule_vanilla(e, obj.mu_est) for e in etas]
    seeds = [1, 1, 2]
    driver = MINIBATCH[algorithm][0]
    cap = Capture()
    res = _run_minibatch(obj, m, t, k, steps, seeds, callback=cap)
    with pytest.raises(DivergenceError) as ei:
        driver(obj, m, t, k, etas[1], seeds[1])
    assert res.gradient_calls == [t] * 3
    assert res.rho_avg_w is None
    assert res.diverged == [None, (ei.value.step, ei.value.worker), None]
    assert np.isnan(res.final_avg_w[1]).all()
    # replica 1 is frozen at the origin after its round's last step
    assert [(W[1] == 0.0).all() for W in cap.w] == \
        [step == 0 or step > ei.value.step for step in cap.ts]
    for r in (0, 2):
        single = Capture()
        one = driver(obj, m, t, k, etas[r], seeds[r], callback=single)
        np.testing.assert_array_equal(res.final_avg_w[r], one.final_avg_w)
        np.testing.assert_array_equal(res.final_avg_w_ag[r], one.final_avg_w_ag)
        assert cap.ts == single.ts
        for W, w in zip(cap.w, single.w):
            np.testing.assert_array_equal(W[r], w[0])


# ---------------------------------------------------------------------------
# callbacks


@pytest.mark.parametrize("driver", ["fedac", "fedavg", "mb_sgd", "mb_acsgd"])
def test_callback_state_is_read_only(driver):
    obj = Quadratic([1.0, 2.0], shift=[0.5, -0.5], sigma=0.5)
    runs = {
        "fedac": lambda cb: fedac_run(obj, 2, 8, 2, schedule_fedac1(0.1, 1.0, 2),
                                      3, callback=cb),
        "fedavg": lambda cb: fedavg_run(obj, 2, 8, 2, 0.1, 3, callback=cb),
        "mb_sgd": lambda cb: mb_sgd_run(obj, 2, 8, 2, 0.1, 3, callback=cb),
        "mb_acsgd": lambda cb: mb_acsgd_run(obj, 2, 8, 2, 0.1, 3, callback=cb),
    }
    seen = []

    def write(step, w, w_ag):
        for a in (w, w_ag):
            if a is not None:
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0] = 123.0
        seen.append(step)

    observed = runs[driver](write)
    plain = runs[driver](None)
    assert seen[-1] == 8
    np.testing.assert_array_equal(observed.final_avg_w, plain.final_avg_w)
    np.testing.assert_array_equal(observed.final_avg_w_ag, plain.final_avg_w_ag)


@pytest.mark.parametrize("driver", ["fedac1", "fedavg", "mb_sgd", "mb_acsgd"])
@pytest.mark.parametrize("objective", ["quadratic", "logistic"])
@pytest.mark.parametrize("k", [1, 4])
def test_negative_zero_start_at_m1_changes_no_result(driver, objective, k):
    """At M = 1 no rows are averaged, so -0.0 start coordinates may reach
    the callback as -0.0; the finals and FedAvg's weighted average are
    those of the +0.0 start, byte for byte."""
    if objective == "quadratic":
        obj = Quadratic([1.0, 2.0, 0.5], shift=[0.3, -0.6, 0.0], sigma=1.0)
    else:
        obj = small_logistic()
    runs = {
        "fedac1": lambda w0: fedac_run(
            obj, 1, 16, k, schedule_fedac1(0.1, obj.mu_est, k), 3, w0),
        "fedavg": lambda w0: fedavg_run(obj, 1, 16, k, 0.1, 3, w0),
        "mb_sgd": lambda w0: mb_sgd_run(obj, 1, 16, k, 0.1, 3, w0),
        "mb_acsgd": lambda w0: mb_acsgd_run(obj, 1, 16, k, 0.1, 3, w0),
    }
    plus = runs[driver](np.zeros(obj.dim))
    some = np.zeros(obj.dim)
    some[::2] = -0.0
    for w0 in (np.full(obj.dim, -0.0), some):
        got = runs[driver](w0)
        for name in ("final_avg_w", "final_avg_w_ag", "rho_avg_w"):
            a, b = getattr(got, name), getattr(plus, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


KERNEL_DRIVERS = {
    "fedac1": lambda obj, cb: fedac_run(obj, 4, 32, 8,
                                        schedule_fedac1(0.1, obj.mu_est, 8), 3,
                                        callback=cb),
    "fedavg": lambda obj, cb: fedavg_run(obj, 4, 32, 8, 0.1, 3, callback=cb),
    "mb_sgd": lambda obj, cb: mb_sgd_run(obj, 2, 64, 2, 0.1, 3, callback=cb),
    "mb_acsgd": lambda obj, cb: mb_acsgd_run(obj, 2, 64, 2, 0.1, 3, callback=cb),
}  # 32 kernel steps each, on 4 streams


@pytest.mark.parametrize("driver", sorted(KERNEL_DRIVERS))
def test_one_leaf_oracle_call_per_kernel_step(driver, monkeypatch):
    """Each kernel step calls the leaf oracle's public ``stoch_grad_multi``
    exactly once, with one stream per gradient query and the kernel's work
    arrays: a traced run counts oracle rows through this method."""
    calls = []
    leaf = Logistic.stoch_grad_multi

    def counted(self, W, bundle, *, out=None, scratch=None):
        calls.append((len(bundle), out is not None and scratch is not None))
        return leaf(self, W, bundle, out=out, scratch=scratch)

    monkeypatch.setattr(Logistic, "stoch_grad_multi", counted)
    obj = small_logistic()
    res = KERNEL_DRIVERS[driver](obj, None)
    assert calls == [(4, True)] * 32
    assert res.gradient_calls == (64 if driver.startswith("mb_") else 4 * 32)


@pytest.mark.parametrize("driver", sorted(KERNEL_DRIVERS))
def test_callback_state_reuses_its_buffers(driver):
    """The kernel steps in place: over 32 steps the callback's ``w`` views
    share at most three data buffers, and ``w_ag`` likewise."""
    buffers = {"w": set(), "w_ag": set()}

    def record(step, w, w_ag):
        buffers["w"].add(w.__array_interface__["data"][0])
        if w_ag is not None:
            buffers["w_ag"].add(w_ag.__array_interface__["data"][0])

    KERNEL_DRIVERS[driver](small_logistic(), record)
    assert 1 <= len(buffers["w"]) <= 3
    assert len(buffers["w_ag"]) <= 3


# ---------------------------------------------------------------------------
# agd_run


def test_agd_kappa_one_solves_in_one_step():
    obj = Quadratic([1.0])
    traj = agd_run(obj, w0_ag=0.7, w0=-1.3, big_l=1.0, mu=1.0, steps=1)
    assert traj.w[1, 0] == pytest.approx(0.0, abs=1e-15)
    assert traj.w_ag[1, 0] == pytest.approx(0.0, abs=1e-15)


def test_agd_stationary_at_optimum():
    obj = Quadratic([2.0], shift=[1.5])
    traj = agd_run(obj, w0_ag=1.5, w0=1.5, big_l=2.0, mu=2.0, steps=5)
    assert np.all(traj.w == 1.5)
    assert np.all(traj.w_ag == 1.5)
    assert np.all(traj.w_md == 1.5)


def test_agd_ag_iterate_contracts_on_pure_quadratic():
    big_l = 4.0
    obj = Quadratic([big_l])
    traj = agd_run(obj, w0_ag=1.0, w0=1.0, big_l=big_l, mu=1.0, steps=40)
    mags = np.abs(traj.w_ag[:, 0])
    assert np.all(mags[1:] <= mags[:-1] + 1e-15)
    assert mags[-1] < 1e-6


def test_agd_trajectory_shapes():
    obj = Quadratic([1.0, 1.0])
    traj = agd_run(obj, w0_ag=[1.0, 2.0], w0=[0.0, 0.0], big_l=2.0, mu=0.5,
                   steps=7)
    assert isinstance(traj, AgdTrajectory)
    assert traj.w.shape == (8, 2)
    assert traj.w_ag.shape == (8, 2)
    assert traj.w_md.shape == (7, 2)


def test_agd_broadcasts_scalar_start():
    obj = Quadratic([1.0, 2.0])
    traj = agd_run(obj, 0, 0, 2.0, 1.0, 3)
    ref = agd_run(obj, np.zeros(2), np.zeros(2), 2.0, 1.0, 3)
    for a, b in ((traj.w, ref.w), (traj.w_ag, ref.w_ag), (traj.w_md, ref.w_md)):
        np.testing.assert_array_equal(a, b)
    shifted = agd_run(Quadratic([1.0, 2.0], shift=[1.0, 1.0]), 0.5, 0.5, 2.0, 1.0, 2)
    np.testing.assert_array_equal(shifted.w[0], [0.5, 0.5])
    with pytest.raises(ValueError):
        agd_run(obj, [1.0, 2.0, 3.0], 0, 2.0, 1.0, 3)


def test_agd_validation():
    obj = Quadratic([1.0])
    with pytest.raises(ValueError):
        agd_run(obj, 1.0, 1.0, big_l=1.0, mu=0.0, steps=3)
    with pytest.raises(ValueError):
        agd_run(obj, 1.0, 1.0, big_l=0.5, mu=1.0, steps=3)
    with pytest.raises(ValueError):
        agd_run(obj, 1.0, 1.0, big_l=1.0, mu=1.0, steps=-1)
