"""End-to-end acceptance battery.

Eight criteria, each printing one ``ACCEPTANCE <n> <status>`` line (visible
under ``pytest -s``):

1. algorithm equivalences (averaging, sync frequency, batching),
2. transfer-matrix transformed norms against their closed-form bounds,
3. per-step contraction of the decentralized potential,
4. the piecewise-curvature instability experiment against its closed forms,
5. finite-difference validation of every gradient implementation,
6. golden statistics of the census income dataset (a9a),
7. the desk-scale speedup sweep and its qualitative ordering,
8. byte-identical sweep artifacts across sweep worker counts.

Criteria 6 and 7 look for dataset files under ``$FEDSIM_DATA`` or
``<repo>/data``.  6 reports a distinct SKIP status when a9a is absent;
7 falls back to a synthetic stand-in with the same shape (123 binary
features, ~14 per row, noisy labels) and the identical protocol.
"""

import contextlib
import os
import statistics
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fedsim.algorithms import (fedac_run, fedavg_run, mb_acsgd_run, mb_sgd_run,
                               schedule_fedac1, worker_mean)
from fedsim.dataio import dataset_stats, load_dataset
from fedsim.diagnostics import norm_bound_sweep, sample_admissible
from fedsim.harness import (DEFAULT_ETA_GRID, ExperimentConfig, compute_optimum,
                            make_synthetic_logistic, tune_and_sweep,
                            write_records_csv, write_sweep_csv)
from fedsim.objectives import Logistic, Quadratic
from fedsim.verify import (_mb_acsgd_reference, check_gradients,
                           check_instability, check_norm_bounds,
                           check_potential_contraction, instability_run)


@contextlib.contextmanager
def criterion(n, note=""):
    suffix = f" ({note})" if note else ""
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} FAIL{suffix}", flush=True)
        raise
    print(f"ACCEPTANCE {n} PASS{suffix}", flush=True)


def find_dataset(*names):
    roots = []
    env = os.environ.get("FEDSIM_DATA")
    if env:
        roots.append(Path(env))
    roots.append(Path(__file__).resolve().parents[1] / "data")
    for root in roots:
        for name in names:
            for suffix in ("", ".gz"):
                path = root / (name + suffix)
                if path.exists():
                    return path
    return None


# ---------------------------------------------------------------------------
# 1. equivalences


def test_acceptance_1_equivalences():
    with criterion(1):
        # (a) worker averaging: FedAvg at K=1 is minibatch SGD, bitwise
        obj = Quadratic(np.linspace(0.4, 2.5, 5), shift=0.6 * np.arange(5) - 1,
                        sigma=1.2)
        fa, mb = [], []
        fedavg_run(obj, 4, 100, 1, 0.04, seed=13,
                   callback=lambda s, w, w_ag: fa.append(worker_mean(w)))
        mb_sgd_run(obj, 4, 100, 1, 0.04, seed=13,
                   callback=lambda s, w, w_ag: mb.append(worker_mean(w)))
        assert len(fa) == len(mb) == 101
        assert all(np.array_equal(a, b) for a, b in zip(fa, mb))

        # (b) without noise the sync frequency is irrelevant to 1e-12
        clean = Quadratic(np.linspace(0.4, 2.5, 5), shift=0.7, sigma=0.0)
        hyper = schedule_fedac1(0.15, clean.mu_est, 1)
        finals = [fedac_run(clean, 3, 100, k, hyper, seed=5, w0=np.ones(5))
                  for k in (1, 2, 5, 100)]
        for res in finals[1:]:
            assert np.abs(res.final_avg_w_ag
                          - finals[0].final_avg_w_ag).max() <= 1e-12
            assert np.abs(res.final_avg_w
                          - finals[0].final_avg_w).max() <= 1e-12

        # (c) accelerated minibatch SGD is the one-worker chain on the mean
        # of M*K gradients, written as a plain loop, bitwise
        noisy = Quadratic(np.linspace(0.8, 3.0, 4), shift=-0.4, sigma=0.5)
        m, t, k, eta, seed = 2, 60, 4, 0.08, 17
        direct = mb_acsgd_run(noisy, m, t, k, eta, seed)
        w, w_ag = _mb_acsgd_reference(noisy, m, t, k, eta, seed)
        assert np.array_equal(direct.final_avg_w_ag, w_ag)
        assert np.array_equal(direct.final_avg_w, w)


# ---------------------------------------------------------------------------
# 2-5. the verify battery at the acceptance parameters


def passes(result):
    assert result.passed, f"{result.name}: {result.detail}"


def test_acceptance_2_norm_bounds():
    with criterion(2):
        # every transformed norm within 1e-9 of its closed-form bound
        passes(check_norm_bounds(samples=1000, n_h=21, seed=1234))


def test_acceptance_3_potential_contraction():
    with criterion(3):
        # psi contracts by 1 - gamma mu per step on 50 random quadratics
        passes(check_potential_contraction(trials=50, steps=100, seed=4242))


def test_acceptance_4_instability():
    with criterion(4):
        # ratios within 1e-3 of 1.024, map error <= 1e-8, and the final gap
        # at least 0.5 eps 1.02**K
        passes(check_instability(ks=(1, 2, 4, 8), kappa=25.0))


def test_acceptance_5_gradients():
    with criterion(5):
        # relative error of the central difference at most 1e-6 on a
        # quadratic, logistic, augmented and piecewise objective
        passes(check_gradients(points=20, seed=909))


# ---------------------------------------------------------------------------
# 6. dataset golden values


def test_acceptance_6_dataset_golden_values():
    path = find_dataset("a9a", "a9a.txt")
    if path is None:
        print("ACCEPTANCE 6 SKIP (a9a not present)", flush=True)
        pytest.skip("a9a not present under $FEDSIM_DATA or <repo>/data")
    with criterion(6):
        ds = load_dataset(path, 123)
        stats = dataset_stats(ds)
        assert stats.n == 32561
        assert stats.dim == 123
        # binary indicator features: the largest row norm is the largest
        # per-row nonzero count
        nnz_per_row = np.diff(ds.X.indptr)
        assert stats.max_row_norm_sq == float(nnz_per_row.max())

        epsilon = find_dataset("epsilon", "epsilon_normalized")
        if epsilon is not None:
            eps_stats = dataset_stats(load_dataset(epsilon, 2000))
            assert eps_stats.n == 400000
            assert eps_stats.dim == 2000


# ---------------------------------------------------------------------------
# 7. desk-scale speedup sweep


@pytest.fixture(scope="module")
def speedup():
    path = find_dataset("a9a", "a9a.txt")
    if path is not None:
        ds = load_dataset(path, 123)
        note = "a9a"
    else:
        # same shape and noise regime as the census set, sized for the desk
        ds = make_synthetic_logistic(8000, 123, seed=7, nnz=14, flip=0.03)
        note = "synthetic stand-in"
    obj = Logistic(ds, lam=1e-3)
    cfg = ExperimentConfig(
        dataset="synthetic", lam=1e-3,
        algorithms=("fedac1", "fedavg", "mb_sgd", "mb_acsgd"),
        t=1024, k_list=(1, 16, 64), m_list=(1, 4, 16, 64),
        etas=DEFAULT_ETA_GRID, seeds=(0, 1, 2), eval_every=128)
    opt = compute_optimum(obj)
    cells, rows = tune_and_sweep(cfg, obj, opt.f_star, threads=8)
    return SimpleNamespace(cfg=cfg, obj=obj, f_star=opt.f_star,
                           cells=cells, rows=rows, note=note)


def tuned_value(cells, algorithm, m, k):
    """Best median-over-seeds suboptimality along the evaluation curves.

    Uses each algorithm's designated evaluated iterate so the comparison is
    like for like; the decay-weighted FedAvg average stays a tuning-only
    candidate in the sweep rows.
    """
    per_eta = {}
    for cell in cells:
        if (cell.algorithm, cell.m, cell.k) == (algorithm, m, k):
            per_eta.setdefault(cell.eta, []).append(
                min(r.suboptimality for r in cell.records))
    assert per_eta, (algorithm, m, k)
    return min(statistics.median(v) for v in per_eta.values())


@pytest.mark.slow
def test_acceptance_7_speedup_ordering(speedup):
    with criterion(7, speedup.note):
        cfg = speedup.cfg
        assert len(speedup.rows) == (len(cfg.algorithms) * len(cfg.m_list)
                                     * len(cfg.k_list))
        at = {alg: tuned_value(speedup.cells, alg, 64, 64)
              for alg in ("fedac1", "fedavg", "mb_sgd")}
        assert np.isfinite(list(at.values())).all()
        # infrequent synchronization: acceleration wins at K=64, M=64
        assert at["fedac1"] <= at["fedavg"]
        assert at["fedac1"] <= at["mb_sgd"]
        # frequent synchronization: all four algorithms comparable at K=1
        four = [tuned_value(speedup.cells, alg, 64, 1)
                for alg in cfg.algorithms]
        assert max(four) <= 2.0 * min(four)


@pytest.mark.slow
def test_acceptance_7_default_grid_never_diverges(speedup):
    """The kernel keeps a diverged replica's oracle work going to T, frozen
    at the start point, which costs time only where a cell diverges: none
    of the 1872 cells of this grid does."""
    with criterion(7, speedup.note):
        assert len(speedup.cells) == 1872
        assert [c for c in speedup.cells if c.diverged] == []


# ---------------------------------------------------------------------------
# 8. determinism


def artifact_bytes(cells, rows, tmp_path, tag):
    rec = tmp_path / f"records_{tag}.csv"
    swp = tmp_path / f"sweep_{tag}.csv"
    write_records_csv(cells, rec)
    write_sweep_csv(rows, swp)
    return rec.read_bytes() + swp.read_bytes()


@pytest.mark.slow
def test_acceptance_8_thread_and_repeat_determinism(speedup, tmp_path):
    with criterion(8, speedup.note):
        # the sweep is the only path with worker processes: rerun it
        # serially and require byte-identical artifacts
        cells1, rows1 = tune_and_sweep(speedup.cfg, speedup.obj,
                                       speedup.f_star, threads=1)
        assert artifact_bytes(cells1, rows1, tmp_path, "serial") == \
            artifact_bytes(speedup.cells, speedup.rows, tmp_path, "pooled")

        # the remaining criteria are single-threaded computations: repeat
        # representative ones and require exact equality
        def norm_rows():
            return [norm_bound_sweep(mu, big_l, [(gamma, eta)]).rows
                    for mu, big_l, gamma, eta in sample_admissible(77, 50)]
        assert norm_rows() == norm_rows()
        _, first = instability_run(4)
        _, second = instability_run(4)
        assert np.array_equal(first.ratios, second.ratios)
        assert first.final_gap_w == second.final_gap_w
        assert np.array_equal(first.block_gaps, second.block_gaps)
