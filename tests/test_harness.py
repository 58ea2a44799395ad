"""Tests for experiment orchestration: optima, sweep cells, tuning, artifacts."""

import contextlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

import fedsim.algorithms as algorithms
import fedsim.harness as harness
from fedsim.algorithms import (agd_run, fedac_run, fedavg_run, mb_acsgd_run,
                               mb_sgd_run, replica_mean, schedule_fedac1,
                               schedule_fedac2, schedule_vanilla, worker_mean)
from fedsim.dataio import Dataset, parse_libsvm
from fedsim.harness import (
    ALGORITHMS,
    DEFAULT_ETA_GRID,
    ConfigError,
    EvalRecord,
    ExperimentConfig,
    OptimumError,
    SweepRow,
    build_config,
    build_objective,
    cached_optimum,
    compute_optimum,
    make_synthetic_logistic,
    parse_config_text,
    read_records_csv,
    read_sweep_csv,
    records_to_rows,
    resolve_out_dir,
    run_cell,
    tune_and_sweep,
    write_records_csv,
    write_records_json,
    write_sweep_csv,
    write_sweep_json,
)
from fedsim import rng
from fedsim.objectives import Augmented, Logistic, Quadratic


def small_cfg(**overrides):
    base = dict(
        dataset="synthetic",
        synthetic_n=50,
        synthetic_dim=12,
        synthetic_seed=3,
        synthetic_nnz=4,
        algorithms=("fedavg",),
        t=8,
        k_list=(2,),
        m_list=(2,),
        etas=(0.1,),
        seeds=(0,),
        eval_every=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# compute_optimum


def test_optimum_of_shifted_quadratic():
    obj = Quadratic([2.0, 0.5], shift=[1.0, -2.0])
    res = compute_optimum(obj)
    np.testing.assert_allclose(res.w_star, [1.0, -2.0], atol=1e-8)
    assert res.f_star == pytest.approx(0.0, abs=1e-12)


def test_optimum_of_single_sample_logistic():
    obj = Logistic(parse_libsvm("+1 1:1\n"), lam=1.0)
    res = compute_optimum(obj)
    # independent bisection on the stationarity condition w - sigmoid(-w) = 0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - expit(-mid) < 0:
            lo = mid
        else:
            hi = mid
    w_root = 0.5 * (lo + hi)
    assert w_root == pytest.approx(0.401058, abs=1e-6)
    assert res.w_star[0] == pytest.approx(w_root, abs=1e-9)
    f_root = math.log1p(math.exp(-w_root)) + 0.5 * w_root * w_root
    assert res.f_star == pytest.approx(f_root, abs=1e-12)
    assert res.f_star == pytest.approx(0.593015, abs=1e-6)


def test_optimum_already_optimal_start():
    obj = Quadratic([1.0], shift=[0.0])  # solver starts at the origin
    res = compute_optimum(obj)
    assert res.iterations == 0
    assert res.grad_norm == 0.0


def test_optimum_iteration_cap_reports_gradient():
    obj = Quadratic([1.0], shift=[5.0])
    with pytest.raises(OptimumError) as ei:
        compute_optimum(obj, max_iter=0)
    assert ei.value.grad_norm > 0
    assert ei.value.iterations == 0


def test_optimum_requires_strong_convexity():
    obj = Quadratic([1.0], mu_est=0.0)
    with pytest.raises(ValueError):
        compute_optimum(obj)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_optimum_rejects_bad_tolerance(tmp_path, tol):
    """A tolerance the gradient norm can never meet fails at once instead of
    running to the iteration cap; the cache adds no entry for it."""
    ds = make_synthetic_logistic(200, 20, seed=1)
    obj = Logistic(ds, 1e-2)
    with pytest.raises(ValueError, match="tol"):
        # the cap makes an unchecked tolerance fail fast with OptimumError
        compute_optimum(obj, tol=tol, max_iter=1000)
    cache = tmp_path / "optima.json"
    with pytest.raises(ValueError, match="tol"):
        cached_optimum(obj, ds, 1e-2, tol, cache)
    assert not cache.exists()
    assert compute_optimum(obj, tol=1e-6).grad_norm <= 1e-6


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_optimum_is_the_last_agd_query_point(kind):
    if kind == "quadratic":
        obj = Quadratic([2.0, 0.5, 1.0], shift=[1.0, -2.0, 0.25])
    else:
        obj = Logistic(make_synthetic_logistic(40, 10, seed=1, nnz=3), lam=0.1)
    opt = compute_optimum(obj)
    zeros = np.zeros(obj.dim)
    traj = agd_run(obj, zeros, zeros, obj.l_est, obj.mu_est, opt.iterations + 1)
    np.testing.assert_array_equal(opt.w_star, traj.w_md[-1])


def reference_optimum(obj, tol=None, max_iter=10 ** 6):
    """The optimum solver as first written: AGD that takes F at every query
    point.  ``compute_optimum`` skips F where its stop test cannot pass, and
    must return what this loop returns, bit for bit."""
    agd = algorithms.AgdStep(obj.l_est, obj.mu_est)
    w = w_ag = np.zeros(obj.dim)
    iterations = 0
    while True:
        w_md = agd.couple(w, w_ag)
        value, grad = obj.eval(w_md), obj.grad(w_md)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= (tol if tol is not None else 1e-12 * (1.0 + abs(value))):
            return harness.OptimumResult(w_md, value, iterations, grad_norm)
        if iterations >= max_iter:
            raise OptimumError(grad_norm, iterations)
        w_ag, w = agd.update(w, w_md, grad)
        iterations += 1


def optimum_objective(case, monkeypatch):
    """``logistic-<n>-dense`` or ``-csr`` (half of 123 features set, so a sum
    in another order shows in the last bits), ``quadratic`` or
    ``augmented``."""
    if case == "quadratic":
        return Quadratic([2.0, 0.5, 1.0, 30.0], shift=[1.0, -2.0, 0.25, 3.0])
    if case == "augmented":
        inner = Logistic(make_synthetic_logistic(300, 20, seed=2), lam=1e-3)
        return Augmented(inner, 0.5, np.linspace(-1.0, 1.0, 20))
    _, n, form = case.split("-")
    if form == "csr":
        monkeypatch.setattr(Logistic, "_DENSE_CACHE_LIMIT", 0)
    gen = np.random.default_rng(int(n))
    x = sp.random(int(n), 123, density=0.5, format="csr", random_state=gen,
                  data_rvs=gen.standard_normal)
    labels = np.where(gen.random(int(n)) < 0.5, 1.0, -1.0)
    obj = Logistic(Dataset(X=x, labels=labels), lam=0.05)
    assert (obj._dense is None) == (form == "csr")
    return obj


def solve(solver, obj, **kwargs):
    """The solver's w*, f*, iterations and gradient norm, or its
    OptimumError's fields."""
    try:
        opt = solver(obj, **kwargs)
    except OptimumError as exc:
        return "OptimumError", exc.grad_norm, exc.iterations
    return opt.w_star.tobytes(), opt.f_star, opt.iterations, opt.grad_norm


@pytest.mark.parametrize("kwargs", [{}, {"tol": 1e-8}, {"max_iter": 5}],
                         ids=["tol-default", "tol-1e-8", "max-iter-5"])
@pytest.mark.parametrize("case", [
    f"logistic-{n}-{form}" for n in (60, 2000, 8001) for form in ("dense", "csr")
] + ["quadratic", "augmented"])
def test_optimum_is_the_loop_that_takes_f_everywhere(case, kwargs, monkeypatch):
    obj = optimum_objective(case, monkeypatch)
    assert solve(compute_optimum, obj, **kwargs) == \
        solve(reference_optimum, obj, **kwargs)


def test_optimum_takes_f_only_where_it_can_stop(monkeypatch):
    """F costs a pass over the data beside the gradient's two: the solver
    takes a gradient at each query point and F at no more than five."""
    obj = optimum_objective("logistic-2000-dense", monkeypatch)
    calls = {"eval": 0, "grad": 0}
    for name in calls:
        def counted(w, method=getattr(obj, name), name=name):
            calls[name] += 1
            return method(w)
        monkeypatch.setattr(obj, name, counted)
    opt = compute_optimum(obj)
    assert calls["grad"] == opt.iterations + 1 > 100
    assert 1 <= calls["eval"] <= 5


@pytest.mark.parametrize("content", [b'{"trunc', b"", b"[1, 2]", b"\xff\xfe"])
def test_cached_optimum_treats_corrupt_cache_as_miss(tmp_path, content):
    ds = make_synthetic_logistic(40, 10, seed=1, nnz=3)
    obj = Logistic(ds, lam=0.1)
    cache = tmp_path / "optima.json"
    cache.write_bytes(content)
    result = cached_optimum(obj, ds, 0.1, None, cache)
    assert result.f_star == compute_optimum(obj).f_star
    (entry,) = json.loads(cache.read_text()).values()
    assert entry["f_star"] == result.f_star
    assert [p.name for p in tmp_path.iterdir()] == ["optima.json"]


def spoil(entry, name, value):
    """``entry`` with field ``name`` set to ``value``, or dropped for None."""
    spoiled = dict(entry)
    spoiled.pop(name) if value is None else spoiled.update({name: value})
    return spoiled


# each turns the entry under the key into one that was not written as it is
BAD_ENTRIES = {
    "no-iterations": lambda e: spoil(e, "iterations", None),
    "no-w_star": lambda e: spoil(e, "w_star", None),
    "string-entry": lambda e: "entry",
    "list-entry": lambda e: list(e.values()),
    "null-entry": lambda e: None,
    "string-f_star": lambda e: spoil(e, "f_star", str(e["f_star"])),
    "int-f_star": lambda e: spoil(e, "f_star", 0),
    "nan-f_star": lambda e: spoil(e, "f_star", math.nan),
    "inf-grad_norm": lambda e: spoil(e, "grad_norm", math.inf),
    "string-grad_norm": lambda e: spoil(e, "grad_norm", "0.0"),
    "float-iterations": lambda e: spoil(e, "iterations", float(e["iterations"])),
    "bool-iterations": lambda e: spoil(e, "iterations", True),
    "short-w_star": lambda e: spoil(e, "w_star", e["w_star"][:-1]),
    "long-w_star": lambda e: spoil(e, "w_star", e["w_star"] + [0.0]),
    "nan-in-w_star": lambda e: spoil(e, "w_star", [math.nan] + e["w_star"][1:]),
    "string-in-w_star": lambda e: spoil(e, "w_star", ["0.5"] + e["w_star"][1:]),
    "string-w_star": lambda e: spoil(e, "w_star", "0.5"),
}


@pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
def test_cached_optimum_recomputes_a_bad_entry(tmp_path, bad):
    """An entry under the key that the cache would not have written is a
    miss: the result is the cold run's bit for bit, and the entry is
    written again as the cold run wrote it."""
    ds = make_synthetic_logistic(40, 10, seed=1, nnz=3)
    obj = Logistic(ds, lam=0.1)
    cache = tmp_path / "optima.json"
    cold = cached_optimum(obj, ds, 0.1, None, cache)
    written = cache.read_text()
    (key, entry), = json.loads(written).items()
    cache.write_text(json.dumps({key: BAD_ENTRIES[bad](entry)}))
    again = cached_optimum(obj, ds, 0.1, None, cache)
    assert again.w_star.tobytes() == cold.w_star.tobytes()
    assert (again.f_star, again.iterations, again.grad_norm) == \
        (cold.f_star, cold.iterations, cold.grad_norm)
    assert cache.read_text() == written


def test_cached_optimum_round_trip(tmp_path):
    ds = make_synthetic_logistic(40, 10, seed=1, nnz=3)
    obj = Logistic(ds, lam=0.1)
    cache = tmp_path / "optima.json"
    first = cached_optimum(obj, ds, 0.1, None, cache)
    assert cache.exists()
    again = cached_optimum(obj, ds, 0.1, None, cache)
    np.testing.assert_array_equal(again.w_star, first.w_star)
    assert again.f_star == first.f_star
    # prove the second call served from disk: plant a sentinel and observe it
    blob = json.loads(cache.read_text())
    key = next(iter(blob))
    blob[key]["f_star"] = -123.0
    cache.write_text(json.dumps(blob))
    assert cached_optimum(obj, ds, 0.1, None, cache).f_star == -123.0


# ---------------------------------------------------------------------------
# synthetic data and objective construction


def test_synthetic_dataset_is_deterministic():
    a = make_synthetic_logistic(100, 30, seed=5, nnz=6)
    b = make_synthetic_logistic(100, 30, seed=5, nnz=6)
    c = make_synthetic_logistic(100, 30, seed=6, nnz=6)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()
    assert (a.n, a.dim) == (100, 30)
    assert set(np.unique(a.labels)) <= {-1.0, 1.0}
    assert np.all(a.X.data == 1.0)
    row_counts = np.diff(a.X.indptr)
    assert row_counts.max() <= 6
    assert row_counts.min() >= 1


def _synthetic_reference(n, dim, seed, nnz=14, flip=0.1):
    """``make_synthetic_logistic`` one row at a time: ``nnz`` index draws,
    their sorted distinct values summed as one array, then one flip uniform."""
    import scipy.sparse as sp

    stream = rng.StreamBundle(seed, [0])
    w_true = stream.gaussians(dim)[0] / math.sqrt(dim)
    indptr = np.zeros(n + 1, dtype=np.int64)
    cols, labels = [], np.empty(n)
    for i in range(n):
        idx = np.unique(stream.indices(dim, nnz)[0])
        cols.append(idx)
        margin = w_true[idx].sum()
        flipped = stream.uniforms(1)[0, 0] < flip
        sign = 1.0 if margin >= 0 else -1.0
        labels[i] = -sign if flipped else sign
        indptr[i + 1] = indptr[i] + len(idx)
    indices = np.concatenate(cols).astype(np.int32)
    x = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, dim))
    return Dataset(X=x, labels=labels)


@pytest.mark.parametrize("n,dim,seed,nnz,flip", [
    (1, 5, 0, 1, 0.1),         # one row, one draw
    (1, 5, 3, 5, 1.0),         # nnz = dim, every label flipped
    (50, 5, 2, 5, 0.0),        # nnz = dim, no label flipped
    (300, 4, 1, 9, 0.5),       # nnz > dim: every row repeats draws
    (200, 3, 3, 0, 0.5),       # no features at all
    (40, 10, 1, 3, 0.1),       # some rows repeat a draw
    (20, 1000, 5, 300, 0.5),   # rows longer than a pairwise-sum block
    (8000, 123, 7, 14, 0.03),  # the acceptance stand-in; half its rows repeat
])
def test_synthetic_dataset_matches_the_row_loop(n, dim, seed, nnz, flip):
    """All rows drawn at once give the per-row loop's dataset, duplicate
    draws, margin bits and flip slots included."""
    ds = make_synthetic_logistic(n, dim, seed, nnz, flip)
    ref = _synthetic_reference(n, dim, seed, nnz, flip)
    assert ds == ref
    assert (ds.X.indices.dtype, ds.X.indptr.dtype) == (ref.X.indices.dtype,
                                                       ref.X.indptr.dtype)


@pytest.mark.parametrize("nnz", [-1, -2])
def test_synthetic_dataset_rejects_a_negative_nnz(nnz):
    for make in (make_synthetic_logistic, _synthetic_reference):
        with pytest.raises(ValueError):
            make(5, 5, 1, nnz)


def test_synthetic_dataset_acceptance_hash():
    assert make_synthetic_logistic(8000, 123, 7, 14, 0.03).content_hash() \
        .startswith("f614b02d33340670")


def test_build_objective_synthetic_and_file(tmp_path):
    obj, ds = build_objective(small_cfg())
    assert isinstance(obj, Logistic)
    assert obj.lam == 1e-3
    assert ds.n == 50

    path = tmp_path / "tiny.libsvm"
    path.write_text("+1 1:1\n-1 2:1\n")
    obj2, ds2 = build_objective(small_cfg(dataset=str(path)))
    assert ds2.n == 2


# ---------------------------------------------------------------------------
# config validation and parsing


def test_default_config_is_valid():
    cfg = ExperimentConfig()
    assert cfg.etas == DEFAULT_ETA_GRID
    assert set(cfg.algorithms) <= set(ALGORITHMS)


def test_config_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        small_cfg(k_list=(3,))  # does not divide T=8
    with pytest.raises(ConfigError):
        small_cfg(eval_every=3)
    with pytest.raises(ConfigError):
        small_cfg(algorithms=("nope",))
    with pytest.raises(ConfigError):
        small_cfg(etas=())
    for etas in ((0.1, -0.5), (0.1, float("nan")), (float("inf"),)):
        with pytest.raises(ConfigError):
            small_cfg(etas=etas)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            small_cfg(opt_tol=tol)
    assert small_cfg(opt_tol=1e-9).opt_tol == 1e-9
    with pytest.raises(ConfigError):
        small_cfg(seeds=())
    with pytest.raises(ConfigError):
        small_cfg(lam=0.0)
    with pytest.raises(ConfigError):
        small_cfg(m_list=(0,))
    for key, values in (("algorithms", ("fedavg", "fedavg")),
                        ("m_list", (2, 1, 2)), ("k_list", (4, 4)),
                        ("etas", (0.1, 0.5, 0.1)), ("seeds", (0, 0))):
        with pytest.raises(ConfigError, match="twice"):
            small_cfg(**{key: values})


def test_config_minibatch_needs_eval_aligned_to_k():
    with pytest.raises(ConfigError):
        small_cfg(algorithms=("mb_sgd",), t=64, k_list=(16,), eval_every=8)
    cfg = small_cfg(algorithms=("mb_sgd",), t=64, k_list=(16,), eval_every=16)
    assert cfg.eval_every == 16


def test_parse_config_text_happy_path():
    text = """
    # sweep shape
    T = 64
    K = 1, 4
    M = 2
    etas = 0.1, 0.5
    seeds = 0, 1
    eval_every = 16
    algorithms = fedavg, mb_sgd
    lam = 0.01
    """
    cfg = build_config(parse_config_text(text))
    assert cfg.t == 64
    assert cfg.k_list == (1, 4)
    assert cfg.m_list == (2,)
    assert cfg.etas == (0.1, 0.5)
    assert cfg.seeds == (0, 1)
    assert cfg.algorithms == ("fedavg", "mb_sgd")
    assert cfg.lam == 0.01


def test_parse_config_text_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as ei:
        parse_config_text("T = 64\nbogus = 3\n")
    assert "line 2" in str(ei.value)
    with pytest.raises(ConfigError) as ei:
        parse_config_text("novalue\n")
    assert "line 1" in str(ei.value)


def test_build_config_type_errors():
    with pytest.raises(ConfigError):
        build_config({"T": "abc"})
    with pytest.raises(ConfigError):
        build_config({"K": "1,x"})
    with pytest.raises(ConfigError):
        build_config({"mystery": "1"})


def test_build_config_later_layers_win():
    cfg = build_config({"T": "64", "eval_every": "16", "K": "1,4"},
                       {"T": "128", "eval_every": "32"})
    assert cfg.t == 128
    assert cfg.eval_every == 32
    assert cfg.k_list == (1, 4)


def test_resolve_out_dir_precedence(monkeypatch):
    cfg = small_cfg(out_dir="cfgdir")
    monkeypatch.delenv("FEDSIM_OUT", raising=False)
    assert resolve_out_dir(None, cfg) == Path("cfgdir")
    monkeypatch.setenv("FEDSIM_OUT", "envdir")
    assert resolve_out_dir(None, cfg) == Path("envdir")
    assert resolve_out_dir("flagdir", cfg) == Path("flagdir")


# ---------------------------------------------------------------------------
# run_cell


def test_run_cell_record_count_and_times():
    obj = Quadratic([1.0], shift=[2.0], sigma=0.3)
    cell = run_cell(obj, "fedavg", m=2, k=2, eta=0.1, t=4, seed=0,
                    eval_every=2, f_star=0.0)
    assert [r.t for r in cell.records] == [0, 2, 4]
    assert cell.rho_suboptimality is not None


def test_run_cell_at_optimum_records_zero():
    obj = Quadratic([1.0], shift=[0.0], sigma=0.0)
    for alg in ALGORITHMS:
        cell = run_cell(obj, alg, m=2, k=2, eta=0.1, t=4, seed=0,
                        eval_every=2, f_star=0.0)
        assert all(r.suboptimality == 0.0 for r in cell.records), alg


# each algorithm's one-replica driver, stepping as the algorithm's cells do
DRIVERS = {
    "fedac1": lambda obj, m, t, k, eta, seed, cb: fedac_run(
        obj, m, t, k, schedule_fedac1(eta, obj.mu_est, k), seed, callback=cb),
    "fedac2": lambda obj, m, t, k, eta, seed, cb: fedac_run(
        obj, m, t, k, schedule_fedac2(eta, obj.mu_est, k), seed, callback=cb),
    "fedac_vanilla": lambda obj, m, t, k, eta, seed, cb: fedac_run(
        obj, m, t, k, schedule_vanilla(eta, obj.mu_est), seed, callback=cb),
    "fedavg": lambda obj, m, t, k, eta, seed, cb: fedavg_run(
        obj, m, t, k, eta, seed, callback=cb),
    "mb_sgd": lambda obj, m, t, k, eta, seed, cb: mb_sgd_run(
        obj, m, t, k, eta, seed, callback=cb),
    "mb_acsgd": lambda obj, m, t, k, eta, seed, cb: mb_acsgd_run(
        obj, m, t, k, eta, seed, callback=cb),
}


def test_run_cell_records_f_at_each_drivers_eval_point():
    """Each record is F, bit for bit, at the worker mean that the
    one-replica driver's callback sees at that step: the mean of w_ag for
    the four accelerated algorithms, of w for fedavg and mb_sgd.  Only
    fedavg cells carry a weighted-average candidate, F at the driver's
    ``rho_avg_w``."""
    assert set(DRIVERS) == set(ALGORITHMS)
    obj = Quadratic([1.0, 2.0, 0.5], shift=[0.3, -0.6, 0.2], sigma=1.0)
    m, t, k, eta, seed, every = 3, 16, 2, 0.1, 4, 4
    for algorithm, driver in DRIVERS.items():
        means = {}
        run = driver(obj, m, t, k, eta, seed, lambda s, w, w_ag: means.update(
            {s: (worker_mean(w), None if w_ag is None else worker_mean(w_ag))}))
        point = 0 if algorithm in ("fedavg", "mb_sgd") else 1
        steps = range(0, t + 1, every)
        cell = run_cell(obj, algorithm, m, k, eta, t, seed, every, 0.0)
        assert cell.records == [EvalRecord(s, obj.eval(means[s][point]))
                                for s in steps], algorithm
        if point:  # the other mean would give other records
            assert any(obj.eval(means[s][0]) != obj.eval(means[s][1])
                       for s in steps), algorithm
        assert cell.rho_suboptimality == (
            obj.eval(run.rho_avg_w) if algorithm == "fedavg" else None), \
            algorithm


def test_each_table_rule_gives_what_its_driver_steps_with(monkeypatch):
    """The step rule of each ``_ALGORITHM_TABLE`` entry gives the Hyper or
    the eta that the algorithm's driver steps with: the schedule that
    ``fedac_run`` is given, or what ``fedavg_run``, ``mb_sgd_run`` and
    ``mb_acsgd_run`` pass to the kernel themselves."""
    obj = Quadratic([0.5, 2.0])
    stepped = []
    for name in ("run_replicas", "_run_minibatch"):
        monkeypatch.setattr(algorithms, name, lambda *a, real=getattr(
            algorithms, name), **kw: stepped.append(a[4][0]) or real(*a, **kw))
    for eta, k in ((0.05, 1), (0.05, 4), (0.3, 4)):
        want = {"fedac1": schedule_fedac1(eta, obj.mu_est, k),
                "fedac2": schedule_fedac2(eta, obj.mu_est, k),
                "fedac_vanilla": schedule_vanilla(eta, obj.mu_est)}
        for algorithm in ("fedavg", "mb_sgd", "mb_acsgd"):
            stepped.clear()
            DRIVERS[algorithm](obj, 2, 8, k, eta, 0, None)
            want[algorithm] = stepped[0]
        assert set(want) == set(harness._ALGORITHM_TABLE)
        for algorithm, (rule, _) in harness._ALGORITHM_TABLE.items():
            got = rule(eta, obj.mu_est, k)
            assert (type(got), got) == (type(want[algorithm]),
                                        want[algorithm]), (algorithm, eta, k)
    # mb_acsgd_run, the last driver run, steps with the vanilla schedule
    assert stepped[0] == schedule_vanilla(0.3, obj.mu_est)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_only_minibatch_entries_need_eval_every_a_multiple_of_k(algorithm):
    minibatch = harness._ALGORITHM_TABLE[algorithm][1]
    assert minibatch == (algorithm in ("mb_sgd", "mb_acsgd"))
    cfg = dict(algorithms=(algorithm,), t=16, k_list=(1, 4), eval_every=2)
    if minibatch:
        with pytest.raises(ConfigError, match="multiple of K=4"):
            ExperimentConfig(**cfg)
    else:
        assert ExperimentConfig(**cfg).eval_every == 2
    assert ExperimentConfig(**dict(cfg, eval_every=8)).eval_every == 8


def test_run_cell_fedavg_matches_mb_sgd_at_k1():
    obj = Quadratic([1.0, 0.5], shift=[0.4, -0.3], sigma=1.0)
    a = run_cell(obj, "fedavg", m=4, k=1, eta=0.05, t=8, seed=3,
                 eval_every=2, f_star=0.0)
    b = run_cell(obj, "mb_sgd", m=4, k=1, eta=0.05, t=8, seed=3,
                 eval_every=2, f_star=0.0)
    assert a.records == b.records


def test_run_cell_minibatch_sgd_reports_the_synced_iterate():
    """mb_sgd's records are F at the chain's one iterate, as the driver
    reports it, not the mean of the M*K equal rows."""
    obj = Quadratic([1.0, 2.0], shift=[0.3, -0.6], sigma=1.0)
    states = []
    mb_sgd_run(obj, 3, 16, 2, 0.1, 4,
               callback=lambda t, w, w_ag: states.append((t, w[0].copy())))
    cell = run_cell(obj, "mb_sgd", m=3, k=2, eta=0.1, t=16, seed=4,
                    eval_every=4, f_star=0.0)
    assert cell.records == [EvalRecord(t, obj.eval(w))
                            for t, w in states if t % 4 == 0]


def test_run_cell_divergence_pads_with_inf():
    obj = Quadratic([1.0], shift=[1.0], sigma=0.0)
    cell = run_cell(obj, "fedavg", m=2, k=1, eta=1e300, t=8, seed=0,
                    eval_every=2, f_star=0.0)
    assert cell.diverged
    assert [r.t for r in cell.records] == [0, 2, 4, 6, 8]
    assert cell.records[0].suboptimality < math.inf
    assert cell.records[-1].suboptimality == math.inf


def test_run_cell_infeasible_schedule_is_all_inf():
    obj = Quadratic([1.0], shift=[1.0], sigma=0.0)  # mu_est = 1
    cell = run_cell(obj, "fedac2", m=1, k=1, eta=10.0, t=4, seed=0,
                    eval_every=2, f_star=0.0)
    assert cell.diverged
    assert all(r.suboptimality == math.inf for r in cell.records)
    assert [r.t for r in cell.records] == [0, 2, 4]


def test_run_cell_evaluation_does_not_consume_randomness():
    obj = Quadratic([1.0], shift=[1.0], sigma=0.8)
    dense = run_cell(obj, "fedac1", m=2, k=2, eta=0.1, t=8, seed=5,
                     eval_every=2, f_star=0.0)
    sparse = run_cell(obj, "fedac1", m=2, k=2, eta=0.1, t=8, seed=5,
                      eval_every=8, f_star=0.0)
    assert dense.records[-1] == sparse.records[-1]


# ---------------------------------------------------------------------------
# tune_and_sweep


def test_sweep_prefers_converging_eta():
    cfg = small_cfg(etas=(1e300, 0.1), seeds=(0, 1))
    obj = Quadratic([1.0], shift=[1.0], sigma=0.2)
    cells, rows = tune_and_sweep(cfg, obj, f_star=0.0)
    assert len(rows) == 1
    assert rows[0].best_eta == 0.1
    assert math.isfinite(rows[0].best_suboptimality)


def test_sweep_row_cardinality():
    cfg = small_cfg(algorithms=("fedavg", "mb_sgd"), m_list=(1, 2), k_list=(2, 4))
    obj = Quadratic([1.0], shift=[0.5], sigma=0.1)
    cells, rows = tune_and_sweep(cfg, obj, f_star=0.0)
    assert len(rows) == 8
    assert len(cells) == 8 * len(cfg.etas) * len(cfg.seeds)
    combos = {(r.algorithm, r.m, r.k) for r in rows}
    assert len(combos) == 8


def test_sweep_tie_breaks_toward_smaller_eta():
    # starting at the exact optimum, every eta scores exactly zero
    cfg = small_cfg(etas=(0.5, 0.2, 5.0))
    obj = Quadratic([1.0], shift=[0.0], sigma=0.0)
    _, rows = tune_and_sweep(cfg, obj, f_star=0.0)
    assert rows[0].best_eta == 0.2
    assert rows[0].best_suboptimality == 0.0


def test_sweep_monotone_in_grid_growth():
    obj = Quadratic([1.0], shift=[1.0], sigma=0.4)
    small = small_cfg(etas=(0.1,), seeds=(0, 1, 2))
    large = small_cfg(etas=(0.05, 0.1, 0.5), seeds=(0, 1, 2))
    _, rows_small = tune_and_sweep(small, obj, f_star=0.0)
    _, rows_large = tune_and_sweep(large, obj, f_star=0.0)
    assert rows_large[0].best_suboptimality <= rows_small[0].best_suboptimality


def test_sweep_all_divergent_row_is_flagged():
    # every eta infeasible for the fedac2 schedule -> all-inf cells -> flag
    cfg = small_cfg(algorithms=("fedac2",), etas=(10.0, 50.0))
    obj = Quadratic([1.0], shift=[1.0], sigma=0.0)
    _, rows = tune_and_sweep(cfg, obj, f_star=0.0)
    assert math.isnan(rows[0].best_eta)
    assert math.isinf(rows[0].best_suboptimality)


def test_sweep_runtime_divergence_keeps_pre_divergence_best():
    """A run that blows up mid-flight still scored its t=0 evaluation, so its
    row stays finite; only never-evaluable cells flag the row."""
    cfg = small_cfg(etas=(1e300,))
    obj = Quadratic([1.0], shift=[1.0], sigma=0.0)
    _, rows = tune_and_sweep(cfg, obj, f_star=0.0)
    assert rows[0].best_eta == 1e300
    assert rows[0].best_suboptimality == 0.5


def diverging_grid(**overrides):
    """M in {1, 3}, K in {1, 4}, two seeds; eta = 1 diverges mid-run, and
    eta = 5 makes both FedAc schedules infeasible."""
    base = dict(algorithms=("fedac1", "fedac2", "fedac_vanilla", "fedavg",
                            "mb_sgd", "mb_acsgd"),
                t=32, k_list=(1, 4), m_list=(1, 3),
                etas=(1e-13, 1.5e-12, 1.0, 5.0), seeds=(0, 1), eval_every=4)
    base.update(overrides)
    return small_cfg(**base), Quadratic([1e12, 0.3], shift=[0.5, -1.0], sigma=0.5)


def artifact_bytes(cells, rows, tmp_path, tag):
    write_records_csv(cells, tmp_path / f"records_{tag}.csv")
    write_sweep_csv(rows, tmp_path / f"sweep_{tag}.csv")
    return ((tmp_path / f"records_{tag}.csv").read_bytes()
            + (tmp_path / f"sweep_{tag}.csv").read_bytes())


def test_group_evaluates_its_start_point_once(monkeypatch):
    """Every replica of a group starts at the same point, so F there is
    evaluated once per group."""
    obj = Quadratic([1.0, 2.0], shift=[0.5, -1.0], sigma=0.5)
    points = []
    evaluate = obj.eval_many
    monkeypatch.setattr(obj, "eval_many",
                        lambda p: points.extend(np.array(p)) or evaluate(p))
    replicas = [(0.1, 0), (0.2, 0), (0.1, 1)]
    cells = harness.run_group(obj, "fedac1", 3, 4, replicas, 8, 4, 0.0)
    assert len(points) == 1 + len(replicas) * 2
    assert sum(not p.any() for p in points) == 1
    assert len({p.tobytes() for p in points}) == len(points)
    for cell, (eta, seed) in zip(cells, replicas):
        assert cell.records == run_cell(obj, "fedac1", 3, 4, eta, 8, seed, 4,
                                        0.0).records


def test_group_records_are_f_at_the_kernel_points(monkeypatch):
    """The deferred batch gives each record F - F* at the point the kernel
    callback saw, and each FedAvg cell's weighted average F - F* at the
    point the kernel returned, through mid-run divergence."""
    obj, _ = build_objective(small_cfg(synthetic_n=300, synthetic_dim=20,
                                       synthetic_nnz=5, lam=1.0))
    f_star = compute_optimum(obj).f_star
    t, eval_every = 256, 32
    seen, rhos = {}, {}

    def capture(obj_, m, t_, k, steps, seeds, callback, run=harness.run_replicas):
        def spy(step, w, w_ag):
            if step % eval_every == 0:
                for key, point in zip(zip(steps, seeds), replica_mean(w, m)):
                    seen.setdefault(key, []).append((step, point.copy()))
            callback(step, w, w_ag)
        result = run(obj_, m, t_, k, steps, seeds, callback=spy)
        for r, key in enumerate(zip(steps, seeds)):
            rhos[key] = result.rho_avg_w[r].copy()
            if result.diverged[r] is not None:  # frozen after this step
                seen[key] = [(step, point) for step, point in seen[key]
                             if step <= result.diverged[r][0]]
        return result

    monkeypatch.setattr(harness, "run_replicas", capture)
    replicas = [(eta, seed) for eta in (0.1, 1.0, 100.0) for seed in (0, 1)]
    cells = harness.run_group(obj, "fedavg", 2, 4, replicas, t, eval_every,
                              f_star)

    def sub(point):
        if not np.isfinite(point).all():
            return math.inf
        with np.errstate(over="ignore"):
            gap = obj.eval(point) - f_star
        return gap if math.isfinite(gap) else math.inf

    for cell in cells:
        key = (cell.eta, cell.seed)
        want = [EvalRecord(step, sub(p)) for step, p in seen[key]]
        want += [EvalRecord(step, math.inf)
                 for step in range(len(want) * eval_every, t + 1, eval_every)]
        assert cell.records == want
        assert cell.rho_suboptimality == (None if cell.diverged
                                          else sub(rhos[key]))
    # eta = 100 blows up after about 150 steps: evaluated first, inf after
    assert [c.diverged for c in cells] == [False] * 4 + [True] * 2
    for cell in cells[4:]:
        finite = [r.suboptimality < math.inf for r in cell.records]
        assert finite[0] and not finite[-1]


def test_block_drawn_indices_leave_group_records_unchanged(monkeypatch):
    """A group whose eta = 100 replicas diverge mid-block, after a step
    that does not end one of the index blocks that every row shares,
    records what it records with one index slot drawn per step."""
    obj, _ = build_objective(small_cfg(synthetic_n=300, synthetic_dim=20,
                                       synthetic_nnz=5, lam=1.0))
    replicas = [(eta, seed) for eta in (0.1, 1.0, 100.0) for seed in (0, 1)]
    diverged = []

    def spy(*args, run=harness.run_replicas, **kwargs):
        result = run(*args, **kwargs)
        diverged.extend(d for d in result.diverged if d is not None)
        return result

    monkeypatch.setattr(harness, "run_replicas", spy)

    def group():
        return harness.run_group(obj, "fedavg", 2, 4, replicas, 256, 32, 0.0)

    blocked = group()
    assert [c.diverged for c in blocked] == [False] * 4 + [True] * 2
    # step s draws slot s: a block ends with slot s when 64 divides s + 1
    assert diverged and all((s + 1) % rng._BLOCK_SLOTS for s, _ in diverged)
    monkeypatch.setattr(rng, "_BLOCK_SLOTS", 1)
    assert group() == blocked


def test_group_takes_one_k_per_replica():
    """A federated group runs replicas of several K in one call, each cell
    as run alone; the minibatch baselines take one K per group, and a K
    column of the wrong length is refused."""
    obj = Quadratic([1.0, 2.0], shift=[0.5, -1.0], sigma=0.5)
    replicas = [(0.1, 0), (0.2, 1), (0.1, 1)]
    cells = harness.run_group(obj, "fedac1", 3, [1, 4, 2], replicas, 8, 4,
                              0.0)
    assert [c.k for c in cells] == [1, 4, 2]
    for cell, k, (eta, seed) in zip(cells, [1, 4, 2], replicas):
        assert cell == run_cell(obj, "fedac1", 3, k, eta, 8, seed, 4, 0.0)
    with pytest.raises(ConfigError, match="one K"):
        harness.run_group(obj, "mb_sgd", 3, [1, 4, 2], replicas, 8, 4, 0.0)
    with pytest.raises(ConfigError, match="one K"):
        harness.run_group(obj, "fedavg", 3, [1, 4], replicas, 8, 4, 0.0)


def test_group_takes_one_m_per_replica(monkeypatch):
    """A federated group runs replicas of several M and K in one kernel
    call, each cell as run alone, the diverging ones included; the
    minibatch baselines take one M in all."""
    calls = []

    def counted(obj_, m, *args, run=harness.run_replicas, **kwargs):
        calls.append(list(m))
        return run(obj_, m, *args, **kwargs)

    monkeypatch.setattr(harness, "run_replicas", counted)
    _, obj = diverging_grid()  # eta = 1 diverges mid-run
    ms, ks = [1, 1, 3, 3, 3, 5, 2], [1, 4, 1, 2, 4, 2, 4]
    replicas = [(1e-13, 0), (1.0, 1), (1.5e-12, 1), (1.0, 0), (1e-13, 1),
                (1.5e-12, 0), (1.0, 2)]
    for alg in ("fedac1", "fedavg"):
        calls.clear()
        cells = harness.run_group(obj, alg, ms, ks, replicas, 32, 4, 0.0)
        assert calls == [ms]
        alone = [run_cell(obj, alg, m, k, eta, 32, seed, 4, 0.0)
                 for m, k, (eta, seed) in zip(ms, ks, replicas)]
        assert cells == alone
        assert [(c.m, c.k) for c in cells] == list(zip(ms, ks))
        finite = [sum(r.suboptimality < math.inf for r in c.records)
                  for c in cells]
        assert [c.diverged for c in cells] == [eta == 1.0 for eta, _ in replicas]
        assert all(0 < n < len(c.records) for c, n in zip(cells, finite)
                   if c.diverged)
    with pytest.raises(ConfigError, match="one K"):
        harness.run_group(obj, "mb_sgd", [1, 2, 2], 4, replicas[:3], 8, 4, 0.0)


@pytest.mark.parametrize("algorithm", ["fedac1", "fedac_vanilla", "fedavg",
                                       "mb_sgd", "mb_acsgd"])
def test_a_chunk_with_a_diverging_replica_records_as_run_cell(algorithm):
    """A kernel call holds a replica that diverges mid-run beside two that
    do not.  The kernel freezes it, and its points after the divergence
    step are cleared, so every cell records what its ``run_cell`` records:
    finite up to the divergence and inf from the next evaluation on.  At
    T = 128 eta = 1 diverges mid-run also on the 32 steps of the minibatch
    chains."""
    _, obj = diverging_grid()
    replicas = [(1e-13, 0), (1.0, 0), (1.5e-12, 1)]
    cells = harness.run_group(obj, algorithm, 3, 4, replicas, 128, 8, 0.0)
    alone = [run_cell(obj, algorithm, 3, 4, eta, 128, seed, 8, 0.0)
             for eta, seed in replicas]
    assert cells == alone
    assert [c.diverged for c in cells] == [False, True, False]
    finite = [r.suboptimality < math.inf for r in cells[1].records]
    assert finite[0] and not finite[-1]


def test_group_evaluation_peaks_near_its_table():
    """F is taken over slices of the table of eval points, so a group's
    traced peak stays under 2.5 times the table; one ``eval_many`` call
    over every finite row peaked at 4 times."""
    obj = Quadratic(np.linspace(1.0, 2.0, 4000), sigma=0.1)
    replicas = [(0.1, seed) for seed in range(64)]
    table = 64 * (64 // 8 + 2) * 4000 * 8
    tracemalloc.start()
    try:
        harness.run_group(obj, "fedavg", 1, 1, replicas, 64, 8, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * table


def test_overflowing_worker_mean_records_inf():
    """Finite rows whose worker mean overflows give a non-finite evaluation
    point: +inf, not a crash, and the rest of the batch is unaffected."""
    cells = harness.run_group(Quadratic([1.0], shift=[1.7e308]), "fedavg",
                              2, 2, [(0.6, 0)], 4, 1, 0.0)
    assert cells[0].diverged
    assert [r.suboptimality for r in cells[0].records] == [math.inf] * 5
    # eta = 1.5 overshoots to rows of 1.335e308 at step 1, whose mean
    # overflows; eta = 1 lands on the optimum, where the mean is finite
    obj = Quadratic([1.0], shift=[0.89e308])
    both = harness.run_group(obj, "fedavg", 2, 2, [(1.5, 0), (1.0, 0)], 4, 1,
                             0.0)
    assert both[0].records[1].suboptimality == math.inf
    assert [r.suboptimality for r in both[1].records] == [math.inf] + [0.0] * 4
    assert both[1].records == run_cell(obj, "fedavg", 2, 2, 1.0, 4, 0, 1,
                                       0.0).records


def test_grouped_sweep_equals_per_cell_runs(tmp_path, monkeypatch):
    """The chunked sweep writes the bytes of per-cell runs at the default
    row budget, where each federated algorithm, M and K per-replica
    columns, and each minibatch (algorithm, M, K) stream is one kernel
    call, and at 5 rows, where they split into chunks, down to one replica
    per call."""
    calls = []
    for name in ("run_replicas", "_run_minibatch"):
        def counted(*args, run=getattr(harness, name), name=name, **kwargs):
            m, k = (args[1], args[3]) if name == "_run_minibatch" \
                else (tuple(args[1]), tuple(args[3]))
            calls.append((name, m, k, len(args[5])))
            return run(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    cfg, obj = diverging_grid()
    singles = [run_cell(obj, alg, m, k, eta, cfg.t, seed, cfg.eval_every, 0.0)
               for alg in cfg.algorithms for m in cfg.m_list
               for k in cfg.k_list for eta in sorted(cfg.etas)
               for seed in cfg.seeds]
    expected_rows = []
    per_group = len(cfg.etas) * len(cfg.seeds)
    for g in range(0, len(singles), per_group):
        group = singles[g:g + per_group]
        best_eta, best_med = math.nan, math.inf
        for i, eta in enumerate(sorted(cfg.etas)):
            med = statistics.median(
                c.best() for c in group[i * len(cfg.seeds):(i + 1) * len(cfg.seeds)])
            if med < best_med:
                best_eta, best_med = eta, med
        expected_rows.append(SweepRow(group[0].algorithm, group[0].m, group[0].k,
                                      best_eta, best_med))

    for budget in (harness.ROW_BUDGET, 5):
        monkeypatch.setattr(harness, "ROW_BUDGET", budget)
        calls.clear()
        cells, rows = tune_and_sweep(cfg, obj, f_star=0.0)
        for name, m, k, n in calls:
            state_rows = n * m * k if name == "_run_minibatch" else sum(m)
            assert n == 1 or state_rows <= budget
        if budget == 5:
            # mb_sgd at M=K=1 splits its 8 replicas 5 + 3; at 4 or 12 rows
            # per replica each call holds one
            assert {("_run_minibatch", 1, 1, 5), ("_run_minibatch", 1, 1, 3),
                    ("_run_minibatch", 1, 4, 1), ("_run_minibatch", 3, 4, 1)} \
                <= set(calls)
        else:
            federated = [c for c in calls if c[0] == "run_replicas"]
            assert len(federated) == 4
            assert all(set(m) == set(cfg.m_list) and set(k) == set(cfg.k_list)
                       for _, m, k, _ in federated)
            assert len(calls) - len(federated) == \
                2 * len(cfg.m_list) * len(cfg.k_list)
        # the grid exercises every path: mid-run divergence, infeasible
        # schedules, FedAvg's decay-weighted average and clean runs
        finite = [sum(r.suboptimality < math.inf for r in c.records)
                  for c in cells]
        for alg in ("fedac1", "mb_sgd", "mb_acsgd"):
            assert any(c.diverged and 0 < n < len(c.records)
                       for c, n in zip(cells, finite) if c.algorithm == alg)
        assert any(c.diverged and n == 0 for c, n in zip(cells, finite)
                   if c.algorithm == "fedac2")
        assert any(c.rho_suboptimality is not None for c in cells)
        assert not all(c.diverged for c in cells)
        assert artifact_bytes(cells, rows, tmp_path, "grouped") == \
            artifact_bytes(singles, expected_rows, tmp_path, "single")
        assert [(c.diverged, c.rho_suboptimality) for c in cells] == \
            [(c.diverged, c.rho_suboptimality) for c in singles]


def test_chunks_cut_a_stream_at_each_bound(monkeypatch):
    """``_chunks`` cuts a stream into non-empty slices that cover it in
    order: before a replica that would take a chunk past ``ROW_BUDGET``
    rows or ``TABLE_BYTES`` of eval points, and, for the minibatch
    baselines, wherever (M, K) changes.  A replica over a bound alone is a
    chunk of its own."""
    monkeypatch.setattr(harness, "ROW_BUDGET", 8)
    monkeypatch.setattr(harness, "TABLE_BYTES", 300)
    ms, ks = (1, 1, 1, 2, 2, 4, 4, 16, 1, 1, 1), (2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1)

    def cut(algorithm, cell_bytes):
        parts = harness._chunks(algorithm, ms, ks, cell_bytes)
        assert [p.start for p in parts] == [0] + [p.stop for p in parts[:-1]]
        assert parts[-1].stop == len(ms)
        assert all(p.start < p.stop and p.step is None for p in parts)
        return [list(zip(ms[p], ks[p])) for p in parts]

    def m_of(chunks):
        return [[m for m, _ in chunk] for chunk in chunks]

    # M rows a replica: the row bound alone, then three cells a chunk too
    assert m_of(cut("fedavg", 1)) == [[1, 1, 1, 2, 2], [4, 4], [16], [1, 1, 1]]
    assert m_of(cut("fedac1", 100)) == [[1, 1, 1], [2, 2, 4], [4], [16],
                                        [1, 1, 1]]
    assert m_of(cut("fedavg", 301)) == [[m] for m in ms]
    # M*K rows a replica: cut wherever (M, K) changes, also after the
    # (1, 2) and the (2, 1) replicas, where the rows would fit
    for cell_bytes in (1, 100):
        chunks = cut("mb_sgd", cell_bytes)
        assert m_of(chunks) == [[1, 1, 1], [2, 2], [4, 4], [16], [1, 1, 1]]
        assert all(len(set(chunk)) == 1 for chunk in chunks)


def test_chunked_sweep_runs_each_chunk_as_one_kernel_call(monkeypatch):
    """At 4 rows a chunk, each federated stream of M in {1, 3} runs as two
    kernel calls of four M = 1 replicas, then one call per M = 3 replica,
    and each minibatch (M, K) as its own calls; every chunk is one
    ``run_group`` call and one kernel call, which evaluates the common
    start point once.  Every cell, the ones diverging mid-run included,
    records what its ``run_cell`` records."""
    monkeypatch.setattr(harness, "ROW_BUDGET", 4)
    cfg, obj = diverging_grid(algorithms=("fedac1", "fedavg", "mb_sgd"),
                              etas=(1e-13, 1.0))
    alone = [run_cell(obj, alg, m, k, eta, cfg.t, seed, cfg.eval_every, 0.0)
             for alg in cfg.algorithms for m in cfg.m_list
             for k in cfg.k_list for eta in cfg.etas for seed in cfg.seeds]
    calls, groups, starts = [], [], []
    for name in ("run_replicas", "_run_minibatch"):
        def counted(obj_, m, t, k, steps, *args, run=getattr(harness, name),
                    **kwargs):
            calls.append((list(m), list(k), len(steps)) if np.ndim(m)
                         else (m, k, len(steps)))
            return run(obj_, m, t, k, steps, *args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    real, evaluate = harness.run_group, obj.eval_many
    monkeypatch.setattr(harness, "run_group",
                        lambda *args: groups.append(args[1]) or real(*args))
    monkeypatch.setattr(obj, "eval_many", lambda p: starts.append(
        sum(not row.any() for row in p)) or evaluate(p))
    cells, _ = tune_and_sweep(cfg, obj, f_star=0.0)
    federated = [([1] * 4, [1] * 4, 4), ([1] * 4, [4] * 4, 4)] + \
        [([3], [1], 1)] * 4 + [([3], [4], 1)] * 4
    minibatch = [(1, 1, 4)] + [(1, 4, 1)] * 4 + [(3, 1, 1)] * 4 + \
        [(3, 4, 1)] * 4
    assert calls == federated * 2 + minibatch
    assert groups == ["fedac1"] * 10 + ["fedavg"] * 10 + ["mb_sgd"] * 13
    assert sum(starts) == len(groups)
    assert cells == alone
    for alg in cfg.algorithms:
        assert any(c.diverged and 0 < sum(r.suboptimality < math.inf
                                          for r in c.records) < len(c.records)
                   for c in cells if c.algorithm == alg)


@pytest.mark.parametrize("cells_per_budget", [0.5, 3])
def test_sweep_calls_keep_their_eval_table_within_budget(tmp_path,
                                                         monkeypatch,
                                                         cells_per_budget):
    """A ``TABLE_BYTES`` of 3 cells' eval points cuts every stream into
    chunks of at most 3 cells, and half a cell's into chunks of one, each
    chunk one ``run_group`` call; rows never bind on this grid, so each
    federated stream and each minibatch (M, K) run of cells takes
    ceil(cells / 3) chunks.  The sweep writes the uncapped sweep's bytes,
    serially and on two workers."""
    cfg, obj = diverging_grid()
    per_cell = (cfg.t // cfg.eval_every + 2) * obj.dim * 8
    cap = max(1, int(cells_per_budget))
    whole = tune_and_sweep(cfg, obj, f_star=0.0)
    chunks, real = [], harness.run_group

    def run_group(obj_, alg, m, k, replicas, *args):
        chunks.append((alg, len(replicas), set(zip(m, k))))
        return real(obj_, alg, m, k, replicas, *args)

    monkeypatch.setattr(harness, "run_group", run_group)
    monkeypatch.setattr(harness, "TABLE_BYTES", int(cells_per_budget * per_cell))
    capped = tune_and_sweep(cfg, obj, f_star=0.0)
    assert all(n <= cap for _, n, _ in chunks)
    assert all(len(mk) == 1 for alg, _, mk in chunks
               if alg in ("mb_sgd", "mb_acsgd"))
    per_k = len(cfg.etas) * len(cfg.seeds)
    runs = [(4, len(cfg.m_list) * len(cfg.k_list) * per_k),
            (2 * len(cfg.m_list) * len(cfg.k_list), per_k)]
    assert len(chunks) == sum(n * -(-cells // cap) for n, cells in runs)
    assert artifact_bytes(*capped, tmp_path, "capped") == \
        artifact_bytes(*whole, tmp_path, "whole")
    pooled(monkeypatch)
    capped2 = tune_and_sweep(cfg, obj, f_star=0.0, threads=2)
    assert artifact_bytes(*capped2, tmp_path, "capped2") == \
        artifact_bytes(*whole, tmp_path, "whole")


@pytest.mark.parametrize("objective", ["quadratic", "logistic"])
def test_sweep_owns_the_floating_point_policy(tmp_path, objective):
    """A caller's strict np.errstate neither stops a diverging sweep nor
    changes its bytes, serial or threaded.  The logistic grid also
    underflows in exp."""
    cfg, obj = diverging_grid(algorithms=("fedac1", "fedavg", "mb_sgd"))
    if objective == "logistic":
        cfg = small_cfg(algorithms=("fedac1", "fedavg", "mb_sgd"), t=64,
                        k_list=(1, 4), m_list=(1, 3), etas=(0.1, 10.0, 1000.0),
                        eval_every=16)
        obj, _ = build_objective(small_cfg(synthetic_n=300, synthetic_dim=20,
                                           synthetic_nnz=5, lam=1e-2))
    blobs = []
    for threads in (1, 2):
        with np.errstate(all="raise"):
            cells, rows = tune_and_sweep(cfg, obj, f_star=0.0, threads=threads)
        assert any(c.diverged for c in cells)
        blobs.append(artifact_bytes(cells, rows, tmp_path, str(threads)))
    assert blobs[0] == blobs[1]
    bad = next(c for c in cells if c.diverged)
    with np.errstate(all="raise"):
        again = run_cell(obj, bad.algorithm, bad.m, bad.k, bad.eta, cfg.t,
                         bad.seed, cfg.eval_every, 0.0)
    assert again.diverged and again.records == bad.records


# ---------------------------------------------------------------------------
# worker processes


def pooled(monkeypatch, cpus=4):
    """Let ``tune_and_sweep`` fork up to ``cpus`` workers on any host."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)


def groups_in_workers_only(monkeypatch):
    """Make ``run_group`` fail in this process, so a sweep that succeeds
    ran every group in a forked worker."""
    parent, real = os.getpid(), harness.run_group

    def run_group(*args):
        assert os.getpid() != parent, "a group ran in the calling process"
        return real(*args)
    monkeypatch.setattr(harness, "run_group", run_group)


def test_sweep_thread_count_invariance(tmp_path, monkeypatch):
    """Forked workers, whatever the host's CPU count, give the serial
    sweep's cells and bytes, diverged cells and FedAvg's decay-weighted
    averages included."""
    cfg, obj = diverging_grid()
    cells1, rows1 = tune_and_sweep(cfg, obj, f_star=0.0, threads=1)
    pooled(monkeypatch)
    groups_in_workers_only(monkeypatch)
    cells4, rows4 = tune_and_sweep(cfg, obj, f_star=0.0, threads=4)
    assert any(c.diverged for c in cells1)
    assert any(c.rho_suboptimality is not None and not c.diverged
               for c in cells1)
    assert cells4 == cells1 and rows4 == rows1
    assert artifact_bytes(cells4, rows4, tmp_path, "pooled") == \
        artifact_bytes(cells1, rows1, tmp_path, "serial")


def test_serial_and_pooled_sweeps_make_the_same_group_calls(tmp_path,
                                                            monkeypatch):
    """The sweep runs one task list: in this process and on two workers it
    makes the same ``run_group`` calls, argument for argument, here the
    4-row chunks of six algorithms' streams."""
    monkeypatch.setattr(harness, "ROW_BUDGET", 4)
    cfg, obj = diverging_grid()
    parent, in_process, real = os.getpid(), [], harness.run_group
    log = tmp_path / "calls"

    def run_group(obj_, *args):
        assert obj_ is obj
        if os.getpid() == parent:
            in_process.append(repr(args))
        else:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {args!r}\n")
        return real(obj_, *args)

    monkeypatch.setattr(harness, "run_group", run_group)
    serial = tune_and_sweep(cfg, obj, f_star=0.0)
    pooled(monkeypatch)
    forked = tune_and_sweep(cfg, obj, f_star=0.0, threads=2)
    pids, args = zip(*(line.split(" ", 1) for line in
                       log.read_text().splitlines()))
    assert len(in_process) > 2 * len(cfg.algorithms)
    assert sorted(args) == sorted(in_process)
    assert str(parent) not in pids
    assert forked == serial


class WorkerFailure(RuntimeError):
    pass


def test_pooled_sweep_raises_a_worker_exception_with_its_type(monkeypatch):
    parent = os.getpid()

    def run_group(*args):
        raise WorkerFailure(f"raised in process {os.getpid()}")
    pooled(monkeypatch)
    monkeypatch.setattr(harness, "ROW_BUDGET", 1)  # a chunk per cell
    monkeypatch.setattr(harness, "run_group", run_group)
    with pytest.raises(WorkerFailure) as info:
        tune_and_sweep(small_cfg(m_list=(1, 2, 3)), Quadratic([1.0]),
                       f_star=0.0, threads=2)
    assert str(info.value) != f"raised in process {parent}"


def test_sweep_without_fork_runs_in_process(monkeypatch):
    pooled(monkeypatch)
    monkeypatch.setattr(harness.multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    pids, real = [], harness.run_group
    monkeypatch.setattr(harness, "run_group",
                        lambda *args: pids.append(os.getpid()) or real(*args))
    monkeypatch.setattr(harness, "ROW_BUDGET", 1)  # a chunk per cell
    cfg = small_cfg(m_list=(1, 2), etas=(0.1, 0.2))
    cells, rows = tune_and_sweep(cfg, Quadratic([1.0, 2.0]), f_star=0.0,
                                 threads=4)
    assert pids == [os.getpid()] * 4  # the four chunks, one by one
    assert (cells, rows) == tune_and_sweep(cfg, Quadratic([1.0, 2.0]),
                                           f_star=0.0, threads=1)


def test_pooled_sweep_leaves_the_callers_errstate(monkeypatch):
    cfg, obj = diverging_grid(algorithms=("fedac1", "fedavg"))
    pooled(monkeypatch)
    with np.errstate(all="raise", under="warn"):
        before = np.geterr()
        cells, _ = tune_and_sweep(cfg, obj, f_star=0.0, threads=2)
        assert np.geterr() == before
    assert any(c.diverged for c in cells)


def test_small_m_sweep_is_one_kernel_call_per_algorithm(tmp_path,
                                                       monkeypatch):
    """A sweep shaped like the benchmark's sweep-small-m (fedac1 and FedAvg,
    M in {1, 4}, K in {1, 16, 64}, four etas) fits under the row budget:
    one ``run_replicas`` call per algorithm, holding every M and K, and
    the same bytes serially and on four workers."""
    calls = []

    def counted(obj_, m, t, k, steps, *args, run=harness.run_replicas,
                **kwargs):
        calls.append((sorted(set(m)), sorted(set(k)), len(steps)))
        return run(obj_, m, t, k, steps, *args, **kwargs)

    monkeypatch.setattr(harness, "run_replicas", counted)
    cfg = small_cfg(algorithms=("fedac1", "fedavg"), m_list=(1, 4),
                    k_list=(1, 16, 64), etas=(0.01, 0.1, 1.0, 10.0), t=128,
                    eval_every=64, synthetic_n=300, synthetic_dim=20,
                    synthetic_nnz=5)
    obj, _ = build_objective(cfg)
    cells, rows = tune_and_sweep(cfg, obj, f_star=0.0, threads=1)
    assert calls == [([1, 4], [1, 16, 64], 24)] * 2
    pooled(monkeypatch)
    groups_in_workers_only(monkeypatch)
    cells4, rows4 = tune_and_sweep(cfg, obj, f_star=0.0, threads=4)
    assert artifact_bytes(cells4, rows4, tmp_path, "pooled") == \
        artifact_bytes(cells, rows, tmp_path, "serial")


def test_single_algorithm_sweep_splits_over_workers(tmp_path, monkeypatch):
    """Chunks, not algorithms, are the workers' tasks: a FedAvg sweep of
    three chunks at ``threads=2`` runs on two worker processes.  Each task
    waits, for at most 30 s, until two workers have taken one."""
    pooled(monkeypatch)
    log, real = tmp_path / "pids", harness.run_group

    def run_group(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        deadline = time.monotonic() + 30
        while len(set(log.read_text().split())) < 2 and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        return real(*args)

    monkeypatch.setattr(harness, "run_group", run_group)
    # 8 rows at M = 1 and 512 at M = 64: chunks of 200, 256 and 64 rows
    cfg = small_cfg(m_list=(1, 64), k_list=(1, 2), etas=(0.1, 0.2),
                    seeds=(0, 1))
    obj = Quadratic([1.0, 2.0], shift=[0.5, -1.0], sigma=0.5)
    cells, rows = tune_and_sweep(cfg, obj, f_star=0.0, threads=2)
    pids = log.read_text().split()
    assert len(pids) == 3
    assert len(set(pids)) == 2 and str(os.getpid()) not in pids
    monkeypatch.setattr(harness, "run_group", real)
    assert (cells, rows) == tune_and_sweep(cfg, obj, f_star=0.0, threads=1)


KILL_A_WORKER = """
import multiprocessing, os, signal, sys
from concurrent.futures.process import BrokenProcessPool
import fedsim.harness as harness
from fedsim.objectives import Quadratic

log, parent, real = sys.argv[1], os.getpid(), harness.run_group


def run_group(obj, algorithm, *args):
    if os.getpid() != parent:
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\\n")
        if algorithm == "fedavg":
            os.kill(os.getpid(), signal.SIGKILL)
    return real(obj, algorithm, *args)


harness.run_group = run_group
harness._usable_cpus = lambda: 2
cfg = harness.ExperimentConfig(algorithms=("fedac1", "fedavg", "mb_sgd"),
                               m_list=(1, 2), k_list=(2,), etas=(0.1,),
                               seeds=(0,), t=8, eval_every=4)
try:
    harness.tune_and_sweep(cfg, Quadratic([1.0, 2.0]), f_star=0.0, threads=2)
except BrokenProcessPool:
    sys.exit(3 if not multiprocessing.active_children() else 4)
"""


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        os.kill(pid, 0)
        return "\nState:\tZ" not in Path(f"/proc/{pid}/status").read_text()
    except ProcessLookupError:
        return False
    except FileNotFoundError:  # gone since the signal, or no /proc
        return not Path("/proc/self").exists()


def script(text: str, log: Path) -> dict:
    """Keyword arguments that run ``text`` in a new session on this
    source tree, with ``log`` as its argument."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return dict(args=[sys.executable, "-c", text, str(log)], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                start_new_session=True)


def logged_pids(log: Path) -> list:
    return [int(p) for p in log.read_text().split()] if log.exists() else []


def end_leftovers(log: Path) -> list:
    """The logged workers still running, which are then killed."""
    left = [pid for pid in logged_pids(log) if running(pid)]
    for pid in left:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    return left


def test_a_killed_worker_breaks_the_sweep_and_leaves_no_process(tmp_path):
    """A sweep worker that SIGKILLs itself makes ``tune_and_sweep`` raise
    ``BrokenProcessPool`` in bounded time, with no worker process left."""
    log = tmp_path / "pids"
    try:
        proc = subprocess.run(**script(KILL_A_WORKER, log), timeout=120)
    finally:
        left = end_leftovers(log)
    assert proc.returncode == 3, proc.stderr
    assert logged_pids(log) and not left


INTERRUPT_A_SWEEP = """
import multiprocessing, os, sys, time
import fedsim.harness as harness
from fedsim.objectives import Quadratic


def run_group(*args):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(60)


harness.run_group = run_group
harness._usable_cpus = lambda: 2
harness.ROW_BUDGET = 1
cfg = harness.ExperimentConfig(algorithms=("fedavg",), m_list=(1, 2, 3, 4),
                               k_list=(2,), etas=(0.1,), seeds=(0,), t=8,
                               eval_every=4)
try:
    harness.tune_and_sweep(cfg, Quadratic([1.0]), f_star=0.0, threads=2)
except KeyboardInterrupt:
    sys.exit(3 if not multiprocessing.active_children() else 4)
"""


def test_an_interrupted_sweep_ends_its_workers(tmp_path):
    """Ctrl-C (SIGINT to the process group) while two workers run one-minute
    chunks ends the sweep within 30 s, with no worker left to take the
    chunks still queued."""
    log = tmp_path / "pids"
    proc = subprocess.Popen(**script(INTERRUPT_A_SWEEP, log))
    try:
        deadline = time.monotonic() + 60
        while len(logged_pids(log)) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(logged_pids(log)) == 2
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        left = end_leftovers(log)
    assert proc.returncode == 3, err
    assert not left and len(logged_pids(log)) == 2


@pytest.mark.parametrize("threads", [0, -3, 2.5, "2", None])
def test_sweep_rejects_a_bad_worker_count_before_running(threads,
                                                         monkeypatch):
    def run_group(*args):
        raise AssertionError("a group ran")
    monkeypatch.setattr(harness, "run_group", run_group)
    with pytest.raises(ConfigError, match="threads"):
        tune_and_sweep(small_cfg(), Quadratic([1.0]), f_star=0.0,
                       threads=threads)


# ---------------------------------------------------------------------------
# artifact writers


def make_cells():
    obj = Quadratic([1.0], shift=[1.0], sigma=0.3)
    cells = [run_cell(obj, "fedavg", m=2, k=2, eta=0.1, t=4, seed=s,
                      eval_every=2, f_star=0.0) for s in (0, 1)]
    return cells


def test_records_csv_round_trip(tmp_path):
    cells = make_cells()
    path = tmp_path / "records.csv"
    write_records_csv(cells, path)
    back = read_records_csv(path)
    assert back == records_to_rows(cells)


def test_records_csv_preserves_inf(tmp_path):
    obj = Quadratic([1.0], shift=[1.0], sigma=0.0)
    cell = run_cell(obj, "fedavg", m=1, k=1, eta=1e300, t=4, seed=0,
                    eval_every=2, f_star=0.0)
    path = tmp_path / "records.csv"
    write_records_csv([cell], path)
    back = read_records_csv(path)
    assert back[-1].suboptimality == math.inf


def test_sweep_csv_round_trip(tmp_path):
    rows = [SweepRow("fedac1", 4, 16, 0.1, 0.0123456789012345),
            SweepRow("fedavg", 1, 1, 0.001, 2.5)]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    back = read_sweep_csv(path)
    for orig, rt in zip(rows, back):
        assert rt.algorithm == orig.algorithm
        assert rt.m == orig.m
        assert rt.k == orig.k
        assert rt.best_eta == orig.best_eta
        assert rt.best_suboptimality == orig.best_suboptimality


def test_sweep_csv_round_trip_is_equal(tmp_path):
    """Sweep rows, a flagged one included, survive a write and a read."""
    cfg = small_cfg(algorithms=("fedavg", "fedac1"), etas=(0.1, 0.5))
    obj = Quadratic([1.0], shift=[1.0], sigma=0.3)
    _, rows = tune_and_sweep(cfg, obj, f_star=0.0)
    flagged = SweepRow("fedac2", 1, 1, math.nan, math.inf)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows + [flagged], path)
    back = read_sweep_csv(path)
    assert back[:-1] == rows
    assert back[-1][:3] == flagged[:3]
    assert math.isnan(back[-1].best_eta)
    assert back[-1].best_suboptimality == math.inf


def test_empty_and_single_row_files(tmp_path):
    header_only = tmp_path / "empty.csv"
    write_sweep_csv([], header_only)
    assert header_only.read_text() == "algorithm,M,K,best_eta,best_suboptimality\n"

    write_records_csv([], tmp_path / "records.csv")
    assert (tmp_path / "records.csv").read_text().count("\n") == 1

    one = tmp_path / "one.csv"
    write_sweep_csv([SweepRow("fedavg", 1, 1, 0.1, 0.5)], one)
    assert len(one.read_text().splitlines()) == 2


def test_float_formatting_is_shortest_round_trip(tmp_path):
    rows = [SweepRow("fedavg", 1, 1, 0.1, 0.30000000000000004)]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    text = path.read_text()
    assert "0.1," in text
    assert "0.30000000000000004" in text
    assert read_sweep_csv(path)[0].best_suboptimality == 0.30000000000000004


def test_json_writers_mirror_schema(tmp_path):
    cells = make_cells()
    rec_path = tmp_path / "records.json"
    write_records_json(cells, rec_path)
    payload = json.loads(rec_path.read_text())
    rows = records_to_rows(cells)
    assert len(payload) == len(rows)
    assert payload[0] == rows[0]._asdict()

    sweep_path = tmp_path / "sweep.json"
    write_sweep_json([SweepRow("fedavg", 1, 2, 0.1, 0.5)], sweep_path)
    sweep_payload = json.loads(sweep_path.read_text())
    assert sweep_payload == [{"algorithm": "fedavg", "M": 1, "K": 2,
                              "best_eta": 0.1, "best_suboptimality": 0.5}]


def test_failed_artifact_write_leaves_the_old_file(tmp_path, monkeypatch):
    """A write that fails before its rename leaves the old artifact whole
    and no temporary file, and names the path it could not write."""
    path = tmp_path / "records.csv"
    write_records_csv(make_cells(), path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match=f"cannot write {path}: no space"):
        write_records_csv(make_cells()[:1], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["records.csv"]


def test_concurrent_writes_in_one_process_stay_whole(tmp_path):
    """Two threads writing one target while a third reads it: no writer
    fails, and every read sees one writer's whole text."""
    path = tmp_path / "optimum_cache.json"
    payloads = ["a" * 2_000_000, "b" * 3_000_000]
    harness._replace_text(path, payloads[0])
    errors, reads, done = [], [], threading.Event()

    def write(text):
        try:
            for _ in range(40):
                harness._replace_text(path, text)
        except OSError as exc:
            errors.append(exc)

    def read():
        while not done.is_set():
            reads.append(path.read_text() in payloads)

    writers = [threading.Thread(target=write, args=(t,)) for t in payloads]
    reader = threading.Thread(target=read)
    for thread in (reader, *writers):
        thread.start()
    for thread in writers:
        thread.join()
    done.set()
    reader.join()
    assert errors == []
    assert reads and all(reads)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        read_records_csv(path)
    with pytest.raises(ValueError):
        read_sweep_csv(path)


def test_bad_records_header_message_names_path(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("x,y\n")
    with pytest.raises(ValueError) as ei:
        read_records_csv(path)
    assert "bad2.csv" in str(ei.value)
