"""Tests for objective oracles: values, gradients, noise, and curvature bounds."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from fedsim.dataio import Dataset, parse_libsvm
from fedsim.objectives import (
    Augmented,
    BatchedOracle,
    Logistic,
    Quadratic,
    _log1p_exp,
    smoothness_bounds,
)
from fedsim import rng
from fedsim.rng import RngStream, StreamBundle


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


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_batched_oracle_averages_member_gradients(kind, workers):
    """Row m is ``np.mean`` of the reference gradients of worker m's batch
    members at its point, bit for bit."""
    if kind == "quadratic":
        inner = Quadratic([1.0, 2.0], sigma=1.0)
    else:
        inner = make_logistic("+1 1:1 2:1\n-1 1:0.5\n+1 2:2\n-1 1:1 2:1\n",
                              lam=0.1)
    batch = 4
    oracle = BatchedOracle(inner, batch)
    W = np.random.default_rng(17).normal(size=(workers, 2))
    ids = oracle.stream_workers(workers)
    np.testing.assert_array_equal(ids, np.arange(workers * batch))

    g = oracle.stoch_grad_multi(W, StreamBundle(seed=13, worker_ids=ids))
    assert g.shape == (workers, 2)
    for m in range(workers):
        members = np.stack(
            [reference_stoch_grad(inner, W[m],
                                  RngStream(seed=13, worker_id=m * batch + j))
             for j in range(batch)])
        np.testing.assert_array_equal(g[m], np.mean(members, axis=0))


def test_batched_oracle_deterministic_passthrough():
    inner = Quadratic([1.0], shift=[2.0])
    oracle = BatchedOracle(inner, 3)
    w = np.array([5.0])
    assert oracle.eval(w) == inner.eval(w)
    np.testing.assert_array_equal(oracle.grad(w), inner.grad(w))
    assert (oracle.mu_est, oracle.l_est) == (inner.mu_est, inner.l_est)


def test_batched_oracle_bundle_size_check():
    oracle = BatchedOracle(Quadratic([1.0]), 2)
    bundle = StreamBundle(seed=0, worker_ids=[0, 1, 2])
    with pytest.raises(ValueError):
        oracle.stoch_grad_multi(np.zeros((2, 1)), bundle)


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


@pytest.mark.parametrize("inner", ["quadratic", "logistic"])
def test_batched_oracle_rejects_bad_points_like_its_inner(inner):
    if inner == "quadratic":
        obj = Quadratic([1.0, 2.0], sigma=0.5)
    else:
        obj = make_logistic("+1 1:1 2:1\n-1 1:0.5\n", lam=0.1)
    oracle = BatchedOracle(obj, 3)
    for bad, message in ((np.array([[0.1, np.nan]]), "non-finite"),
                         (np.array([[0.1, np.inf]]), "non-finite"),
                         (np.zeros((1, 3)), "dimension 3, objective has 2"),
                         (np.zeros(3), "dimension 3, objective has 2")):
        with pytest.raises(ValueError) as direct:
            obj.stoch_grad_multi(bad, StreamBundle(0, [0]))
        with pytest.raises(ValueError, match=message) as batched:
            oracle.stoch_grad_multi(bad, StreamBundle(0, oracle.stream_workers(1)))
        assert str(batched.value) == str(direct.value)


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
           "augmented", "batched"]


def make_oracle(kind, monkeypatch):
    if kind == "quadratic":
        return Quadratic([1.0, 3.0, 0.5, 2.0], shift=[0.2, -0.1, 0.0, 1.0])
    if kind == "quadratic_noisy":
        return Quadratic([1.0, 3.0, 0.5, 2.0], shift=[0.2, -0.1, 0.0, 1.0],
                         sigma=0.8)
    if kind == "augmented":
        return Augmented(_logistic_rows(True, monkeypatch), 0.3,
                         [0.2, -0.1, 0.0, 0.5])
    if kind == "batched":
        return BatchedOracle(_logistic_rows(True, monkeypatch), 3)
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
    ids = obj.stream_workers(4)
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
    bundle = StreamBundle(0, obj.stream_workers(1))
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


@pytest.mark.parametrize("kind", ["quadratic", "quadratic_noisy", "augmented",
                                  "batched"])
def test_eval_many_default_loops_over_eval(kind, monkeypatch):
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
