"""Tests for objective oracles: values, gradients, noise, and curvature bounds."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from fedsim.dataio import Dataset, parse_libsvm
from fedsim.objectives import (
    Augmented,
    Logistic,
    Quadratic,
    _as_row,
    _log1p_exp,
    smoothness_bounds,
)
from fedsim import rng
from fedsim.diagnostics import PiecewiseCurvature1D
from fedsim.harness import compute_optimum
from fedsim.rng import StreamBundle
from fedsim.verify import _fd_gradient
from rng_reference import RngStream


def make_logistic(text, lam):
    return Logistic(parse_libsvm(text), lam)


def reference_stoch_grad(obj, w, stream):
    """The single-stream oracle, written out one point and one draw at a
    time: the reference that every row of ``stoch_grad_multi`` must match."""
    w = np.asarray(w, dtype=np.float64)
    if isinstance(obj, Augmented):
        return reference_stoch_grad(obj.inner, w, stream) + obj.lam * (w - obj.w0)
    if isinstance(obj, Logistic):
        i = int(stream.indices(obj.n, 1)[0])
        row = np.asarray(obj.X[i].todense()).ravel()
        z = obj.labels[i] * (row * w).sum()
        return -obj.labels[i] * expit(-z) * row + obj.lam * w
    g = obj.grad(w)
    if obj.sigma == 0.0:
        return g
    return g + obj.sigma / np.sqrt(obj.dim) * stream.gaussians(obj.dim)


def one_stream_grad(obj, w, bundle):
    """``stoch_grad_multi`` at one point on a bundle of one stream."""
    return obj.stoch_grad_multi(np.asarray(w, dtype=np.float64)[None, :],
                                bundle)[0]


class ZeroObjective(Quadratic):
    """F == 0 on a given dimension, handy as an augmentation substrate."""

    def __init__(self, dim):
        super().__init__(np.zeros(dim), l_est=1.0)


# ---------------------------------------------------------------------------
# eval


def test_quadratic_value_at_optimum():
    q = Quadratic(spectrum=[1.0], shift=[3.0])
    assert q.eval(np.array([3.0])) == 0.0


def test_logistic_value_at_zero_is_log_two():
    obj = make_logistic("+1 1:1\n", lam=0.0)
    # pad to dim 2 to match the (1, 0) feature vector
    obj = make_logistic("+1 1:1 2:0\n", lam=0.0)
    v = obj.eval(np.zeros(2))
    assert v == pytest.approx(np.log(2.0), abs=1e-12)


def test_augmented_value_over_zero_objective():
    a = Augmented(ZeroObjective(1), lam=1.0, w0=[0.0])
    assert a.eval(np.array([2.0])) == pytest.approx(2.0, abs=1e-15)


def test_quadratic_general_value():
    q = Quadratic(spectrum=[2.0, 4.0], shift=[1.0, -1.0])
    w = np.array([3.0, 0.0])
    assert q.eval(w) == pytest.approx(0.5 * (2 * 4 + 4 * 1), abs=1e-12)


# ---------------------------------------------------------------------------
# grad


def test_quadratic_gradient():
    q = Quadratic(spectrum=[2.0], shift=[0.0])
    np.testing.assert_allclose(q.grad(np.array([3.0])), [6.0])


def test_logistic_gradient_at_zero():
    obj = make_logistic("+1 1:1 2:0\n", lam=0.0)
    np.testing.assert_allclose(obj.grad(np.zeros(2)), [-0.5, 0.0], atol=1e-15)


def test_augmented_gradient():
    a = Augmented(Quadratic([1.0], [0.0]), lam=1.0, w0=[0.0])
    np.testing.assert_allclose(a.grad(np.array([2.0])), [4.0])


def test_dimension_mismatch_raises():
    q = Quadratic([1.0, 1.0])
    with pytest.raises(ValueError):
        q.eval(np.zeros(3))
    with pytest.raises(ValueError):
        q.grad(np.zeros(1))


def test_non_finite_input_raises():
    q = Quadratic([1.0])
    with pytest.raises(ValueError):
        q.eval(np.array([np.nan]))


def test_rows_from_none_scalars_and_vectors():
    """None is the origin and one entry, a -0.0 too, fills the row; a vector
    is copied, and a wrong length raises naming the argument, for the shift,
    the anchor and the drivers' starts alike."""
    from fedsim.algorithms import agd_run, fedavg_run
    assert _as_row(None, 3, "w0").tolist() == [0.0, 0.0, 0.0]
    assert np.signbit(_as_row([[-0.0]], 2, "w0")).tolist() == [True, True]
    given = np.array([1.0, 2.0])
    _as_row(given, 2, "w0")[0] = 5.0
    assert given.tolist() == [1.0, 2.0]
    assert Quadratic([1.0, 2.0], shift=3.0).shift.tolist() == [3.0, 3.0]
    quad = Quadratic([1.0, 2.0])
    for call, what in [
            (lambda: Quadratic([1.0, 2.0], shift=[1.0, 2.0, 3.0]), "shift"),
            (lambda: Augmented(quad, 0.5, [1.0, 2.0, 3.0]), "anchor"),
            (lambda: agd_run(quad, [1.0, 2.0, 3.0], 0.0, 2.0, 1.0, 3), "w0_ag"),
            (lambda: fedavg_run(quad, 1, 2, 1, 0.1, 0, w0=np.zeros(3)), "w0")]:
        with pytest.raises(ValueError,
                           match=f"^{what} length 3 does not match dimension 2$"):
            call()


# ---------------------------------------------------------------------------
# stochastic oracle, one stream at a time


def test_quadratic_zero_noise_is_exact():
    q = Quadratic(spectrum=[2.0], shift=[0.0], sigma=0.0)
    s = StreamBundle(0, [0])
    np.testing.assert_array_equal(one_stream_grad(q, [3.0], s), [6.0])
    assert s.counter == 0  # noiseless oracle consumes no randomness


def test_logistic_single_sample_stoch_equals_grad():
    obj = make_logistic("+1 1:0.4 2:-0.2\n", lam=0.1)
    w = np.array([0.3, -0.7])
    g = obj.grad(w)
    s = StreamBundle(5, [0])
    for _ in range(4):
        np.testing.assert_allclose(one_stream_grad(obj, w, s), g, atol=1e-15)
    assert s.counter == 4  # one index slot per call even when n == 1


def test_quadratic_noise_unbiased_and_correct_variance():
    sigma = 1.0
    q = Quadratic(spectrum=[2.0], shift=[0.0], sigma=sigma)
    w = np.array([3.0])
    s = StreamBundle(314, [0])
    n = 100_000
    draws = np.array([one_stream_grad(q, w, s)[0] for _ in range(n)])
    noise = draws - 6.0
    assert abs(draws.mean() - 6.0) <= 3e-2
    second_moment = (noise * noise).mean()
    assert abs(second_moment - sigma**2) <= 0.03 * sigma**2


def test_quadratic_noise_total_variance_multidim():
    """E||z||^2 == sigma^2 regardless of dimension."""
    sigma = 2.0
    dim = 5
    q = Quadratic(spectrum=np.ones(dim), sigma=sigma)
    w = np.zeros(dim)
    s = StreamBundle(11, [0])
    n = 20_000
    total = 0.0
    for _ in range(n):
        z = one_stream_grad(q, w, s)
        total += float(z @ z)
    assert abs(total / n - sigma**2) <= 0.05 * sigma**2


def test_stoch_grad_unbiased_five_standard_errors():
    obj = make_logistic("+1 1:1 2:1\n-1 1:1 2:0\n+1 2:1\n", lam=0.05)
    w = np.array([0.2, -0.4])
    g = obj.grad(w)
    s = StreamBundle(99, [0])
    n = 100_000
    draws = np.stack([one_stream_grad(obj, w, s) for _ in range(n)])
    err = draws.mean(axis=0) - g
    se = draws.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(err) <= 5 * np.maximum(se, 1e-12))


# ---------------------------------------------------------------------------
# Augmented


def test_augment_updates_curvature_estimates():
    base = Quadratic([1.0], mu_est=1.0, l_est=1.0)
    a = Augmented(base, 1.0, [0.0])
    assert a.mu_est == 2.0
    assert a.l_est == 2.0


def test_augment_gradient_at_anchor_matches_inner():
    base = Quadratic([2.0, 3.0], shift=[0.5, -0.5])
    w0 = np.array([1.0, 2.0])
    a = Augmented(base, 0.7, w0)
    np.testing.assert_array_equal(a.grad(w0), base.grad(w0))


def test_augment_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        Augmented(Quadratic([1.0]), 0.0, [0.0])


def test_augmentation_identity():
    obj = make_logistic("+1 1:1 2:1\n-1 1:0.5\n", lam=0.2)
    lam, w0 = 0.3, np.array([0.1, -0.2])
    a = Augmented(obj, lam, w0)
    rng = np.random.default_rng(4)
    for _ in range(10):
        w = rng.normal(size=2)
        lhs = a.eval(w) - obj.eval(w)
        rhs = 0.5 * lam * float((w - w0) @ (w - w0))
        assert abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# smoothness_bounds


def test_smoothness_bounds_one_sample():
    ds = parse_libsvm("+1 1:2 2:0\n")
    assert smoothness_bounds(ds, 0.5) == (0.5, 1.5)


def test_smoothness_bounds_all_zero_features():
    ds = parse_libsvm("+1\n-1\n")
    assert smoothness_bounds(ds, 1.0) == (1.0, 1.0)


def test_smoothness_bounds_unit_rows():
    ds = parse_libsvm("+1 1:1\n-1 1:1\n")
    assert smoothness_bounds(ds, 0.0) == (0.0, 0.25)


def test_smoothness_bounds_empty_dataset():
    class Empty:
        n = 0

    with pytest.raises(ValueError):
        smoothness_bounds(Empty(), 0.1)


def test_logistic_curvature_matches_bounds():
    text = "+1 1:1 3:2\n-1 2:0.5\n+1 1:0.25 2:0.25\n"
    ds = parse_libsvm(text)
    obj = Logistic(ds, lam=0.05)
    assert (obj.mu_est, obj.l_est) == smoothness_bounds(ds, 0.05)


# ---------------------------------------------------------------------------
# invariants


def central_fd(obj, w):
    g = np.empty_like(w)
    for j in range(w.size):
        h = 1e-6 * (1.0 + abs(w[j]))
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (obj.eval(w + e) - obj.eval(w - e)) / (2 * h)
    return g


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "augmented"])
def test_finite_difference_gradient(kind):
    rng = np.random.default_rng(17)
    if kind == "quadratic":
        obj = Quadratic(rng.uniform(0.5, 2.0, size=6), shift=rng.normal(size=6))
    elif kind == "logistic":
        text = "".join(
            f"{'+1' if rng.random() < 0.5 else '-1'} "
            + " ".join(f"{j+1}:{rng.normal():.6f}" for j in range(6))
            + "\n"
            for _ in range(9)
        )
        obj = make_logistic(text, lam=0.1)
    else:
        obj = Augmented(Quadratic(rng.uniform(0.5, 2.0, size=6)), 0.4, rng.normal(size=6))
    for _ in range(5):
        w = rng.normal(size=6)
        g = obj.grad(w)
        fd = central_fd(obj, w)
        scale = np.maximum(np.abs(g), 1.0)
        assert np.max(np.abs(g - fd) / scale) <= 1e-6


def test_logistic_strong_convexity_probe():
    obj = make_logistic("+1 1:1 2:0.5\n-1 2:1\n+1 1:0.3\n", lam=0.25)
    rng = np.random.default_rng(31)
    for _ in range(20):
        w = rng.normal(size=2)
        u = rng.normal(size=2)
        lower = (
            obj.eval(w)
            + float(obj.grad(w) @ (u - w))
            + 0.5 * obj.lam * float((u - w) @ (u - w))
        )
        assert obj.eval(u) >= lower - 1e-12


def test_curvature_estimate_ordering():
    for obj in [
        Quadratic([0.5, 1.0, 2.0]),
        make_logistic("+1 1:1\n-1 1:2\n", lam=0.01),
        Augmented(Quadratic([1.0]), 0.5, [0.0]),
    ]:
        assert 0.0 <= obj.mu_est <= obj.l_est


def test_quadratic_spectrum_validation():
    with pytest.raises(ValueError):
        Quadratic([])
    with pytest.raises(ValueError):
        Quadratic([-1.0])
    with pytest.raises(ValueError):
        Quadratic([1.0, 2.0], mu_est=1.5)  # entry below claimed mu


# ---------------------------------------------------------------------------
# batched / multi-stream paths


def test_multi_matches_single_streams_quadratic():
    q = Quadratic([1.0, 3.0], shift=[0.2, -0.1], sigma=0.8)
    W = np.array([[0.5, 1.0], [-1.0, 0.25], [2.0, 2.0]])
    bundle = StreamBundle(seed=6, worker_ids=[0, 1, 2])
    multi = q.stoch_grad_multi(W, bundle)
    for m in range(3):
        s = RngStream(seed=6, worker_id=m)
        np.testing.assert_array_equal(multi[m], reference_stoch_grad(q, W[m], s))
        np.testing.assert_array_equal(
            multi[m], one_stream_grad(q, W[m], StreamBundle(6, [m])))


def test_multi_matches_single_streams_logistic():
    obj = make_logistic("+1 1:1 2:1\n-1 1:0.5\n+1 2:2\n-1 1:1 2:1\n", lam=0.1)
    W = np.array([[0.1, 0.2], [-0.3, 0.4]])
    bundle = StreamBundle(seed=21, worker_ids=[0, 1])
    multi = obj.stoch_grad_multi(W, bundle)
    for m in range(2):
        s = RngStream(seed=21, worker_id=m)
        np.testing.assert_array_equal(multi[m], reference_stoch_grad(obj, W[m], s))
        np.testing.assert_array_equal(
            multi[m], one_stream_grad(obj, W[m], StreamBundle(21, [m])))


def test_multi_shared_point_broadcast():
    q = Quadratic([2.0], sigma=0.0)
    bundle = StreamBundle(seed=0, worker_ids=[0, 1, 2])
    g = q.stoch_grad_multi(np.array([1.5]), bundle)
    assert g.shape == (3, 1)
    np.testing.assert_array_equal(g, np.full((3, 1), 3.0))


def test_multi_matches_single_streams_augmented():
    inner = make_logistic("+1 1:1 2:1\n-1 1:0.5\n+1 2:2\n", lam=0.1)
    obj = Augmented(inner, 0.3, [0.2, -0.1])
    W = np.array([[0.1, 0.2], [-0.3, 0.4], [1.0, -1.0]])
    multi = obj.stoch_grad_multi(W, StreamBundle(seed=4, worker_ids=[0, 1, 2]))
    for m in range(3):
        np.testing.assert_array_equal(
            multi[m], reference_stoch_grad(obj, W[m], RngStream(4, m)))
        np.testing.assert_array_equal(
            multi[m], one_stream_grad(obj, W[m], StreamBundle(4, [m])))


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("shift", ["stacked", "one row"])
def test_stacked_quadratic_rows_are_each_quadratics_own(shared, shift):
    """Row b of a stacked quadratic's oracle, on one stream per row, is
    quadratic b's call on stream b alone, bit for bit, noise included, at
    one point per row or at one shared point."""
    spectra = np.array([[1.0, 3.0], [0.5, 0.0], [2.0, 2.5]])
    shifts = np.array([[0.2, -0.1], [1.0, 0.0], [-0.7, 0.3]])
    sigma, given = 0.8, shifts if shift == "stacked" else shifts[0]
    stack = Quadratic(spectra, shift=given, sigma=sigma)
    assert (stack.dim, stack.mu_est, stack.l_est) == (2, 0.0, 3.0)
    W = np.array([1.5, -2.0]) if shared else \
        np.array([[0.5, 1.0], [-1.0, 0.25], [2.0, 2.0]])
    multi = stack.stoch_grad_multi(W, StreamBundle(seed=6, worker_ids=[0, 1, 2]))
    for b in range(3):
        own = Quadratic(spectra[b], shift=np.broadcast_to(given, (3, 2))[b],
                        sigma=sigma)
        point = W if shared else W[b]
        assert multi[b].tobytes() == \
            one_stream_grad(own, point, StreamBundle(6, [b])).tobytes()


def test_stacked_quadratic_rejects_a_shift_of_other_rows():
    for shift in (np.zeros((2, 2)), np.zeros((3, 3))):
        with pytest.raises(ValueError, match="^shift length"):
            Quadratic(np.ones((3, 2)), shift=shift)
    with pytest.raises(ValueError, match="^shift length"):
        Quadratic(np.ones(2), shift=np.zeros((1, 2)) + [[0.0], [1.0]])


# ---------------------------------------------------------------------------
# caller-owned work arrays (the step kernel's path)


def _logistic_rows(dense: bool, monkeypatch):
    """Logistic regression on 9 rows in 4 features, on its dense cache or,
    with the cache limit at 0, on the sparse matrix."""
    if not dense:
        monkeypatch.setattr(Logistic, "_DENSE_CACHE_LIMIT", 0)
    obj = make_logistic("+1 1:1 2:1\n-1 1:0.5 4:2\n+1 2:2\n-1 1:1 2:1 3:1\n"
                        "+1 3:-1\n-1 4:0.25\n+1 1:3 4:1\n-1 2:-1\n+1 3:2 4:2\n",
                        lam=0.1)
    assert (obj._dense is not None) == dense
    return obj


ORACLES = ["quadratic", "quadratic_noisy", "logistic_dense", "logistic_sparse",
           "augmented"]


def make_oracle(kind, monkeypatch):
    if kind == "quadratic":
        return Quadratic([1.0, 3.0, 0.5, 2.0], shift=[0.2, -0.1, 0.0, 1.0])
    if kind == "quadratic_noisy":
        return Quadratic([1.0, 3.0, 0.5, 2.0], shift=[0.2, -0.1, 0.0, 1.0],
                         sigma=0.8)
    if kind == "augmented":
        return Augmented(_logistic_rows(True, monkeypatch), 0.3,
                         [0.2, -0.1, 0.0, 0.5])
    return _logistic_rows(kind == "logistic_dense", monkeypatch)


def with_buffers(obj, W, bundle):
    """``stoch_grad_multi`` into nan-filled work arrays; checks that the
    result is the leading rows of ``out``."""
    out = np.full((len(bundle), obj.dim), np.nan)
    scratch = np.full_like(out, np.nan)
    g = obj.stoch_grad_multi(W, bundle, out=out, scratch=scratch)
    assert g.base is out or g is out
    np.testing.assert_array_equal(g, out[:len(g)])
    return g.copy()


@pytest.mark.parametrize("kind", ORACLES)
def test_buffered_call_matches_plain_call(kind, monkeypatch):
    obj = make_oracle(kind, monkeypatch)
    W = np.random.default_rng(3).normal(size=(4, obj.dim))
    ids = np.arange(4)
    plain, bundle = StreamBundle(11, ids), StreamBundle(11, ids)
    for _ in range(2):  # the second call draws the next slots in both
        np.testing.assert_array_equal(with_buffers(obj, W, bundle),
                                      obj.stoch_grad_multi(W, plain))
    assert bundle.counter == plain.counter


@pytest.mark.parametrize("kind", ["quadratic", "quadratic_noisy",
                                  "logistic_dense", "logistic_sparse",
                                  "augmented"])
@pytest.mark.parametrize("points", [1, 2, 6])
def test_shared_point_rows_match_repeated_rows(kind, points, monkeypatch):
    """G point rows for 6 streams: row g serves streams [g*6/G, (g+1)*6/G),
    bit for bit as if repeated, with and without work arrays."""
    obj = make_oracle(kind, monkeypatch)
    W = np.random.default_rng(5).normal(size=(points, obj.dim))
    ids = np.arange(6)
    want = obj.stoch_grad_multi(np.repeat(W, 6 // points, axis=0),
                                StreamBundle(2, ids))
    np.testing.assert_array_equal(
        obj.stoch_grad_multi(W, StreamBundle(2, ids)), want)
    np.testing.assert_array_equal(with_buffers(obj, W, StreamBundle(2, ids)),
                                  want)
    with pytest.raises(ValueError, match="do not split evenly"):
        obj.stoch_grad_multi(np.zeros((4, obj.dim)), StreamBundle(2, ids))


def test_gather_stays_in_range_on_the_rejection_path(monkeypatch):
    """Logistic gathers with ``np.take(mode="clip")``, which would clamp an
    index of n or more without a word: every index that
    ``StreamBundle.indices`` returns, from the rejection loop too, lies in
    [0, n)."""
    rejected = []
    reject = rng._reject

    def spy(*args):
        rejected.append(args)
        return reject(*args)

    monkeypatch.setattr(rng, "_reject", spy)
    n = 2 ** 62 + 1  # a quarter of all words lie above the largest multiple
    idx = StreamBundle(5, np.arange(64)).indices(n, 4)
    assert rejected
    assert idx.min() >= 0 and idx.max() < n

    # the same gather on a small dataset, its indices from the rejection loop
    def via_rejection(self, n, count=1):
        start = self._take_slots(count)
        threshold = np.uint64((1 << 64) // n * n & ((1 << 64) - 1))
        return reject(self._keys, rng._slot_word_idx(start, count, 0),
                      np.uint64(n), threshold)

    obj = _logistic_rows(True, monkeypatch)
    W = np.random.default_rng(8).normal(size=(32, obj.dim))
    want = obj.stoch_grad_multi(W, StreamBundle(9, np.arange(32)))
    monkeypatch.setattr(StreamBundle, "indices", via_rejection)
    np.testing.assert_array_equal(
        with_buffers(obj, W, StreamBundle(9, np.arange(32))), want)


@pytest.mark.parametrize("kind", ORACLES)
def test_plain_call_still_rejects_bad_points(kind, monkeypatch):
    """Without work arrays the point is checked: nan, inf and a wrong
    dimension raise the ValueError of ``Objective._check_point``."""
    obj = make_oracle(kind, monkeypatch)
    dim = obj.dim
    bundle = StreamBundle(0, np.arange(1))
    for bad, message in ((np.r_[np.nan, np.zeros(dim - 1)], "non-finite"),
                         (np.r_[np.zeros(dim - 1), -np.inf], "non-finite"),
                         (np.zeros(dim + 1), f"dimension {dim + 1}, objective has {dim}")):
        with pytest.raises(ValueError, match=message):
            obj.stoch_grad_multi(bad[None, :], bundle)


# ---------------------------------------------------------------------------
# batched evaluation


def one_point_value(obj, w):
    """Logistic F at one point, as one whole-matrix product: the formula that
    ``eval_many`` must reproduce bit for bit."""
    zw = obj._dense @ w if obj._dense is not None else obj.X @ w
    loss = _log1p_exp(-(obj.labels * zw)).mean()
    return float(loss + 0.5 * obj.lam * (w * w).sum())


@pytest.mark.parametrize("out", [False, True])
def test_log1p_exp_in_place_is_the_plain_formula(out):
    """The in-place loss overwrites its argument and gives the plain
    expression's bits, into ``out`` or a new array."""
    t = np.random.default_rng(3).normal(scale=30.0, size=257)
    plain = np.log1p(np.exp(-np.abs(t))) + np.maximum(t, 0.0)
    arg, buf = t.copy(), np.empty_like(t)
    got = _log1p_exp(arg, out=buf if out else None)
    assert (got is buf) == out
    np.testing.assert_array_equal(got, plain)
    np.testing.assert_array_equal(arg, np.maximum(t, 0.0))


def random_logistic(n, dim, seed=0):
    """n rows with about half of dim features set, so that a product summed
    in another order shows in the last bits.  The 1280-row products the
    tests take split on 4-row boundaries at 1, 2, 4 or 8 BLAS threads, and
    the 129-row ones are too small for OpenBLAS to thread, so whole-matrix
    and blocked products agree at any thread count."""
    rng = np.random.default_rng(seed)
    x = sp.random(n, dim, density=0.5, format="csr", random_state=rng,
                  data_rvs=rng.standard_normal)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return Logistic(Dataset(X=x, labels=labels), lam=0.05)


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("n", [60, 2000, 8001])
def test_f_star_is_eval_at_w_star(n, dense, monkeypatch):
    """F* and the records' F are one formula, ``eval_many``: the optimum's
    F* is ``eval`` at w*, so the suboptimality the records start from at
    w* is exactly 0, on the dense cache and on the sparse matrix."""
    if not dense:
        monkeypatch.setattr(Logistic, "_DENSE_CACHE_LIMIT", 0)
    obj = random_logistic(n, 123, seed=n)
    assert (obj._dense is not None) == dense
    opt = compute_optimum(obj)
    assert obj.eval(opt.w_star) == opt.f_star
    points = np.random.default_rng(n).normal(scale=0.3, size=(20, 123))
    assert [obj.eval(w) for w in points] == obj.eval_many(points).tolist()


BLOCKINGS = [
    (1280, 192, 128),   # blocks of 192 rows, the last of 128
    (129, 64, 65),      # a one-row remainder joins the block before it
    (1280, 4096, 1280),  # one block
    (1280, 1001, 320),  # rounded down to 960 rows, the last block of 320
]


@pytest.mark.parametrize("n, block_rows, last", BLOCKINGS)
def test_row_blocks_give_the_whole_matrix_margins(n, block_rows, last,
                                                  monkeypatch):
    """A gemv per row block gives the whole-matrix gemv's margins bit for
    bit.  The loss mean hides most one-ulp margin changes, so the rule is
    checked on the margins themselves."""
    dim = 23
    monkeypatch.setattr(Logistic, "_EVAL_BLOCK_BYTES", block_rows * 8 * dim)
    obj = random_logistic(n, dim)
    blocks = list(obj._row_blocks())
    starts, stops = zip(*blocks)
    assert starts[0] == 0 and stops[-1] == n and starts[1:] == stops[:-1]
    assert stops[-1] - starts[-1] == last
    out = np.empty(n)
    for w in np.random.default_rng(1).normal(size=(8, dim)):
        for a, b in blocks:
            np.matmul(obj._dense[a:b], w, out=out[a:b])
        np.testing.assert_array_equal(out, obj._dense @ w)


@pytest.mark.parametrize("n, block_rows, last", BLOCKINGS)
@pytest.mark.parametrize("count", [1, 16, 37])
def test_logistic_eval_many_is_the_one_point_formula(n, block_rows, last, count,
                                                     monkeypatch):
    dim = 23
    monkeypatch.setattr(Logistic, "_EVAL_BLOCK_BYTES", block_rows * 8 * dim)
    obj = random_logistic(n, dim)
    rng = np.random.default_rng(count)
    points = rng.normal(size=(count, dim)) * np.geomspace(1e-3, 1e3, count)[:, None]
    values = obj.eval_many(points)
    assert values.shape == (count,)
    for w, value in zip(points, values):
        assert value == one_point_value(obj, w) == obj.eval(w)


def test_logistic_eval_many_saturating_margins():
    """Margins beyond 745 in size underflow exp to 0 on one side and leave
    max(t, 0) to carry the loss on the other."""
    obj = random_logistic(200, 9, seed=4)
    w = np.full(9, 1e8)
    points = np.stack([w, -w, 0.5 * w, np.zeros(9)])
    margins = obj.labels * (obj._dense @ w)
    assert (margins > 745).sum() > 50 and (margins < -745).sum() > 50
    values = obj.eval_many(points)
    assert np.isfinite(values).all()
    assert values.tolist() == [one_point_value(obj, p) for p in points]


def test_logistic_eval_many_sparse_path(monkeypatch):
    monkeypatch.setattr(Logistic, "_DENSE_CACHE_LIMIT", 0)
    obj = random_logistic(300, 9, seed=5)
    assert obj._dense is None
    points = np.random.default_rng(6).normal(size=(19, 9))
    assert obj.eval_many(points).tolist() == \
        [one_point_value(obj, p) for p in points] == [obj.eval(p) for p in points]


@pytest.mark.parametrize("kind", ["quadratic", "quadratic_noisy", "augmented"])
def test_eval_many_default_loops_over_eval(kind, monkeypatch):
    """Row p of ``eval_many`` is ``eval`` at point p, bit for bit, and no
    rows give no values."""
    obj = make_oracle(kind, monkeypatch)
    points = np.random.default_rng(7).normal(size=(5, obj.dim))
    assert obj.eval_many(points).tolist() == [obj.eval(p) for p in points]
    assert obj.eval_many(np.empty((0, obj.dim))).shape == (0,)


@pytest.mark.parametrize("dense", [True, False])
def test_logistic_eval_many_checks_points(dense, monkeypatch):
    obj = _logistic_rows(dense, monkeypatch)
    assert obj.eval_many(np.empty((0, obj.dim))).shape == (0,)
    for bad in (np.zeros(obj.dim), np.zeros((2, obj.dim + 1)),
                np.r_[np.zeros((1, obj.dim)), np.full((1, obj.dim), np.inf)]):
        with pytest.raises(ValueError):
            obj.eval_many(bad)


@pytest.mark.parametrize("kind", ["quadratic", "quadratic_noisy", "augmented",
                                  "piecewise"])
def test_eval_many_checks_points(kind, monkeypatch):
    """Every objective takes an empty (0, dim) array and refuses 1-D input,
    a wrong dim and a non-finite row with the ValueErrors that
    ``test_logistic_eval_many_checks_points`` asks of Logistic."""
    obj = (PiecewiseCurvature1D(0.5, 4.0, [(0.3, 0.1)]) if kind == "piecewise"
           else make_oracle(kind, monkeypatch))
    dim = obj.dim
    assert obj.eval_many(np.empty((0, dim))).shape == (0,)
    for bad, message in ((np.zeros(dim), r"must be \(P, dim\)"),
                         (np.zeros((3, 2, dim)), r"must be \(P, dim\)"),
                         (np.zeros((2, dim + 1)), f"dimension {dim + 1}, objective"),
                         (np.r_[np.zeros((1, dim)), np.full((1, dim), np.nan)],
                          "non-finite"),
                         (np.full((2, dim), -np.inf), "non-finite")):
        with pytest.raises(ValueError, match=message):
            obj.eval_many(bad)
        with pytest.raises(ValueError):
            obj.eval(bad[-1] if bad.ndim == 2 else np.r_[bad, 0.0])


def quadratic_value(obj, w):
    """Quadratic F at one point, written out: the per-row reference."""
    d = w - obj.shift
    return float(0.5 * (obj.spectrum * d * d).sum())


def augmented_value(obj, inner_value, w):
    d = w - obj.w0
    return float(inner_value + 0.5 * obj.lam * (d * d).sum())


EVAL_DIMS = [1, 2, 9, 129, 300]


@pytest.mark.parametrize("dim", EVAL_DIMS)
def test_eval_many_equals_the_per_row_formulas(dim):
    """``eval_many`` of Quadratic and Augmented against the one-point
    formulas, row by row, bit for bit."""
    rng = np.random.default_rng(dim)
    quad = Quadratic(rng.uniform(0.1, 10.0, dim), shift=rng.normal(size=dim))
    points = quad.shift + rng.normal(size=(21, dim)) * np.geomspace(
        1e-4, 1e4, 21)[:, None]
    aug = Augmented(quad, 0.3, rng.normal(size=dim))
    logistic = random_logistic(150, dim, seed=dim)
    aug_logistic = Augmented(logistic, 0.2, rng.normal(size=dim))
    expected = {
        "quadratic": [quadratic_value(quad, w) for w in points],
        "augmented": [augmented_value(aug, quadratic_value(quad, w), w)
                      for w in points],
        "augmented-logistic": [
            augmented_value(aug_logistic, one_point_value(logistic, w), w)
            for w in points],
    }
    objs = {"quadratic": quad, "augmented": aug,
            "augmented-logistic": aug_logistic}
    for name, obj in objs.items():
        assert obj.eval_many(points).tolist() == expected[name], name
        assert [obj.eval(w) for w in points] == expected[name], name


def reference_fd_gradient(obj, w, h=1e-6):
    """Central differences one coordinate at a time, two evals each."""
    g = np.empty_like(w)
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (obj.eval(w + e) - obj.eval(w - e)) / (2.0 * h)
    return g


@pytest.mark.parametrize("kind", ORACLES + ["piecewise"])
def test_fd_gradient_equals_the_per_coordinate_stencil(kind, monkeypatch):
    obj = (PiecewiseCurvature1D(0.5, 4.0, [(0.3, 0.1)]) if kind == "piecewise"
           else make_oracle(kind, monkeypatch))
    rng = np.random.default_rng(5)
    for w in rng.normal(size=(6, obj.dim)) * np.geomspace(1e-2, 1e2, 6)[:, None]:
        assert _fd_gradient(obj, w).tolist() == reference_fd_gradient(obj, w).tolist()
