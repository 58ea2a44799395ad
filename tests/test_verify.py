"""The verify battery's batched checks against per-run references."""

import math

import numpy as np
import pytest

from fedsim import verify
from fedsim.algorithms import fedac_run, schedule_fedac1
from fedsim.diagnostics import potential_psi
from fedsim.objectives import Quadratic
from fedsim.rng import StreamBundle


def reference_potential_trials(trials, steps, seed):
    """The contraction trials one ``fedac_run`` at a time, each drawn just
    before its run: one ((steps + 1,) psi, rate) per trial."""
    stream = StreamBundle(seed, [0])
    out = []
    for _ in range(trials):
        dim = 2 + int(stream.indices(9, 1)[0, 0])
        u = stream.uniforms(2)[0]
        mu = 0.05 + u[0]
        kappa = 20.0 + 30.0 * u[1]
        spectrum = np.linspace(mu, mu * kappa, dim)
        shift = stream.gaussians(dim)[0]
        obj = Quadratic(spectrum, shift=shift, sigma=0.0)
        hyper = schedule_fedac1(1.0 / obj.l_est, mu, 1)
        ws, w_ags = np.empty((2, steps + 1, 4, dim))

        def cb(step, w, w_ag):
            ws[step], w_ags[step] = w, w_ag

        w0 = shift + stream.gaussians(dim)[0]
        fedac_run(obj, 4, steps, 1, hyper, seed=3, w0=w0, callback=cb)
        out.append((potential_psi(ws, w_ags, obj, mu, shift, 0.0),
                    1.0 - hyper.gamma * mu))
    return out


def reference_detail(trials, steps, seed):
    worst_excess, bad = -math.inf, 0
    for psis, rate in reference_potential_trials(trials, steps, seed):
        excess = psis[1:] - rate * psis[:-1] * (1.0 + 1e-9)
        worst_excess = excess.max(initial=worst_excess)
        bad += int((~(excess <= 0)).sum())
    return (f"{trials} quadratics x {steps} steps, {bad} violations, "
            f"worst excess {worst_excess:.3e}")


@pytest.mark.parametrize("seed", [77, 4242])
def test_batched_trials_are_the_per_trial_runs(seed):
    """Every trial's psi array and rate, and the check's detail line, are
    those of the trials run one at a time, bit for bit."""
    batched = verify.potential_trials(50, 100, seed)
    reference = reference_potential_trials(50, 100, seed)
    assert len(batched) == len(reference) == 50
    for (psis, rate), (ref_psis, ref_rate) in zip(batched, reference):
        assert psis.shape == ref_psis.shape == (101,)
        assert psis.tobytes() == ref_psis.tobytes()
        assert rate == ref_rate
    result = verify.check_potential_contraction(50, 100, seed)
    assert result.passed
    assert result.detail == reference_detail(50, 100, seed)


def test_contraction_check_is_one_kernel_call_through_the_quadratic_oracle(
        monkeypatch):
    """The check runs its trials in one ``run_replicas`` call, and every
    oracle row goes through ``Quadratic.stoch_grad_multi``, which the
    benchmark's tracer counts by class name: 100 calls of 200 rows."""
    kernel_calls, oracle_rows = [], []
    run_replicas = verify.run_replicas
    stoch_grad_multi = Quadratic.stoch_grad_multi

    def counted_kernel(*args, **kwargs):
        kernel_calls.append(len(args[4]))
        return run_replicas(*args, **kwargs)

    def counted_oracle(self, W, bundle, **work):
        oracle_rows.append(len(bundle))
        return stoch_grad_multi(self, W, bundle, **work)

    monkeypatch.setattr(verify, "run_replicas", counted_kernel)
    monkeypatch.setattr(Quadratic, "stoch_grad_multi", counted_oracle)
    assert verify.check_potential_contraction().passed
    assert kernel_calls == [50]
    assert oracle_rows == [200] * 100


def test_sync_free_equivalence_is_the_per_k_runs():
    """The four K values as one kernel call give the deviation of four
    ``fedac_run`` calls."""
    obj = Quadratic(np.linspace(1.0, 4.0, 6), shift=0.7, sigma=0.0)
    hyper = schedule_fedac1(0.2, obj.mu_est, 1)
    finals = [fedac_run(obj, 3, 100, k, hyper, seed=5,
                        w0=np.ones(6)).final_avg_w_ag for k in (1, 2, 5, 100)]
    worst = max(float(np.abs(f - finals[0]).max()) for f in finals[1:])
    assert verify._equivalence_sync_free() == \
        (True, f"max deviation across K {worst:.2e}")
    assert f"{worst:.2e}" == "3.33e-16"
