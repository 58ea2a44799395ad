"""Objective functions with deterministic and stochastic gradient oracles.

Three concrete kinds: diagonal quadratics (with optional isotropic gaussian
gradient noise), l2-regularized logistic regression over a sparse dataset,
and an l2-augmentation wrapper that adds ``(lam/2) * ||w - w0||**2`` to any
inner objective.  Each objective carries curvature estimates ``mu_est`` (strong
convexity) and ``l_est`` (smoothness) that drive schedule and step-size
choices downstream.

Each objective defines F once, in ``eval_many`` over the rows of a (P, dim)
array, of which ``Objective.eval`` is the one-row call.  Every objective
raises the same ``ValueError``s for a point of the wrong shape or with
non-finite entries.

All stochastic draws come from caller-owned streams (see :mod:`fedsim.rng`),
so objectives are immutable and safe to share across threads.  The number of
stream slots consumed per oracle call is fixed and documented per kind, which
is what makes multi-worker runs reproducible under any scheduling.

Reduction orders are pinned: row dot products use elementwise multiply
followed by ``sum`` over the last axis, and averages over workers or batch
members use ``np.add.reduce`` over the leading axis and then divide by the
count, which is ``np.mean``'s arithmetic.  Keeping one canonical order is
what allows the bitwise-equivalence guarantees between the batched and
per-worker code paths.

Every oracle implements one protocol, ``stoch_grad_multi(W, bundle, *,
out=None, scratch=None)``.  The step kernel passes two caller-owned work
arrays, ``out`` and ``scratch``, and the oracle computes in them without
allocating or re-checking the point.  A call without them, from outside the
kernel, has its point checked and fresh arrays allocated by
``Objective._work`` on the first line of the oracle.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
from scipy.special import expit

from .dataio import row_norms_sq
from .rng import StreamBundle


class GradSample(NamedTuple):
    """Objective value and gradient at a point, as returned by eval_grad."""

    value: float
    grad: np.ndarray


def _log1p_exp(t: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Numerically stable log(1 + exp(t)) = log1p(exp(-|t|)) + max(t, 0), in
    place: ``t`` is overwritten, and the result written into ``out``, or
    into a new array when ``out`` is None."""
    out = np.negative(np.abs(t, out=out), out=out)
    np.log1p(np.exp(out, out=out), out=out)
    return np.add(out, np.maximum(t, 0.0, out=t), out=out)


def _as_row(value, dim: int, what: str, lead: tuple = ()) -> np.ndarray:
    """``value`` as a new float64 array, as it is if its shape is ``lead +
    (dim,)`` and else as a (dim,) row: None is zeros and a one-entry value
    is broadcast to every coordinate; another length raises a ValueError
    that names ``what``."""
    row = np.zeros(dim) if value is None else np.array(value, np.float64)
    if row.shape != (*lead, dim):
        row = np.full(dim, row.ravel()[0]) if row.size == 1 else row.ravel()
        if row.size != dim:
            raise ValueError(f"{what} length {row.size} does not match dimension {dim}")
    return row


def _by_point(points: np.ndarray, a: np.ndarray):
    """``points`` (G, dim) or (dim,) as (G, 1, dim), and ``a``'s B stream rows
    as (G, B/G, dim) blocks: the streams of block g query point row g."""
    pts = points.reshape(-1, 1, points.shape[-1])
    if a.shape[0] % pts.shape[0]:
        raise ValueError(f"{a.shape[0]} streams do not split evenly over "
                         f"{pts.shape[0]} points")
    return pts, a.reshape(pts.shape[0], -1, a.shape[-1])


class Objective:
    """Base class; subclasses fill in eval_many/grad/stoch_grad_multi.

    Attributes
    ----------
    dim : int
        Ambient dimension.
    mu_est : float
        Strong-convexity estimate (may be 0).
    l_est : float
        Smoothness estimate; always positive and >= mu_est.
    """

    dim: int
    mu_est: float
    l_est: float

    def _check_point(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        if w.shape[-1] != self.dim:
            raise ValueError(
                f"point has dimension {w.shape[-1]}, objective has {self.dim}"
            )
        if not np.isfinite(w).all():
            raise ValueError("point contains non-finite entries")
        return w

    def _check_rows(self, points: np.ndarray) -> np.ndarray:
        """``_check_point`` for a (P, dim) array of points."""
        points = self._check_point(points)
        if points.ndim != 2:
            raise ValueError(f"points must be (P, dim), got shape {points.shape}")
        return points

    def eval(self, w: np.ndarray) -> float:
        """F at ``w``: ``eval_many`` on ``w`` as one row."""
        return float(self.eval_many(np.reshape(w, (1, -1)))[0])

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """F at each row of the (P, dim) ``points``, as a (P,) array; row p
        is ``eval(points[p])`` bit for bit."""
        raise NotImplementedError

    def grad(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_grad(self, w: np.ndarray) -> GradSample:
        """Value and gradient in one call (subclasses may share work)."""
        return GradSample(self.eval(w), self.grad(w))

    def stoch_grad_multi(self, W: np.ndarray, bundle: StreamBundle, *,
                         out: Optional[np.ndarray] = None,
                         scratch: Optional[np.ndarray] = None) -> np.ndarray:
        """Stochastic gradients for several workers at once.

        ``W`` is (B, dim) with one row per bundle stream, (dim,) for a shared
        query point, or (G, dim) with G dividing B, row g shared by the
        streams ``[g*B/G, (g+1)*B/G)``.  Row m of the result depends only on
        the point of stream m and on stream m, bit for bit: it equals the
        first row of the same call on a bundle holding that stream alone.

        ``out`` and ``scratch`` are C-contiguous (B, dim) float64 work arrays
        from a trusted caller, given together or not at all.  The result is
        written into the leading rows of ``out`` and returned as a view of
        them, and ``scratch`` is overwritten.  Given, ``W`` is not checked:
        the caller guarantees a finite point of the right dimension.  Not
        given, ``_work`` checks ``W`` and allocates both.
        """
        raise NotImplementedError

    def _work(self, W, bundle: StreamBundle, out, scratch):
        """``stoch_grad_multi``'s point and work arrays: the caller's, or,
        for a call without work arrays, the checked point and fresh
        (len(bundle), dim) arrays."""
        if out is None:
            W, out = self._check_point(W), np.empty((len(bundle), self.dim))
            scratch = np.empty_like(out)
        return W, out, scratch


class Quadratic(Objective):
    """F(w) = 0.5 * sum_j spectrum[j] * (w[j] - shift[j])**2 with gaussian noise.

    The stochastic oracle returns grad(w) + z where z has independent
    N(0, sigma**2 / dim) coordinates, so E||z||**2 == sigma**2 exactly.
    One oracle call consumes ``dim`` stream slots when sigma > 0 and none
    otherwise.  A (rows, dim) spectrum, with a shift of one row or as many,
    stacks one quadratic per row: every method broadcasts its points
    against the stack, so the oracle's row b on ``rows`` streams is
    quadratic b's.
    """

    def __init__(self, spectrum, shift=None, sigma: float = 0.0,
                 mu_est: Optional[float] = None, l_est: Optional[float] = None):
        spectrum = np.asarray(spectrum, dtype=np.float64)
        self.spectrum = spectrum if spectrum.ndim == 2 else spectrum.ravel()
        self.dim = self.spectrum.shape[-1]
        if self.spectrum.size == 0:
            raise ValueError("empty spectrum")
        if (self.spectrum < 0).any():
            raise ValueError("spectrum entries must be nonnegative")
        self.shift = _as_row(shift, self.dim, "shift", self.spectrum.shape[:-1])
        self.sigma = float(sigma)
        self.mu_est = float(self.spectrum.min() if mu_est is None else mu_est)
        self.l_est = float(self.spectrum.max() if l_est is None else l_est)
        if self.l_est <= 0:
            raise ValueError("l_est must be positive")
        if self.mu_est > self.l_est:
            raise ValueError("mu_est exceeds l_est")
        if (self.spectrum < self.mu_est).any() or (self.spectrum > self.l_est).any():
            raise ValueError("spectrum entries must lie in [mu_est, l_est]")
        self._noise_scale = self.sigma / np.sqrt(self.dim)

    def eval_many(self, points):
        d = self._check_rows(points) - self.shift
        return 0.5 * (self.spectrum * d * d).sum(axis=1)

    def grad(self, w):
        w = self._check_point(w)
        return self.spectrum * (w - self.shift)

    def stoch_grad_multi(self, W, bundle, *, out=None, scratch=None):
        W, out, _ = self._work(W, bundle, out, scratch)
        pts, blocks = _by_point(W, out)
        shift = np.broadcast_to(self.shift, out.shape).reshape(blocks.shape)
        np.subtract(pts, shift, out=blocks)
        np.multiply(self.spectrum, out, out=out)
        if self.sigma != 0.0:
            noise = bundle.gaussians(self.dim)
            np.multiply(self._noise_scale, noise, out=noise)
            np.add(out, noise, out=out)
        return out


class Logistic(Objective):
    """l2-regularized binary logistic regression over a fixed dataset.

    F(w) = (1/n) sum_i log(1 + exp(-y_i <x_i, w>)) + (lam/2) ||w||**2.

    The stochastic oracle samples one example uniformly with replacement
    (consuming exactly one stream slot) and returns that example's loss
    gradient plus the exact regularizer term ``lam * w``; the regularizer is
    never subsampled, so the gradient-noise level does not depend on lam.
    """

    # datasets up to this many entries keep a dense feature-matrix cache
    _DENSE_CACHE_LIMIT = 2 ** 25
    # eval_many walks the dense cache in row blocks of about this many bytes,
    # small enough to stay in L2 while every point of a pass reads them
    _EVAL_BLOCK_BYTES = 2 ** 20
    # points per pass over the data; bounds the two (points, n) work arrays
    _EVAL_POINTS = 16

    def __init__(self, dataset, lam: float):
        if lam < 0:
            raise ValueError("regularization strength must be nonnegative")
        self.dataset = dataset
        self.lam = float(lam)
        self.dim = int(dataset.dim)
        self.n = int(dataset.n)
        self.labels = np.asarray(dataset.labels, dtype=np.float64)
        self.X = dataset.X
        self._dense = None
        if self.n * self.dim <= self._DENSE_CACHE_LIMIT:
            self._dense = np.asarray(self.X.todense())
        self.mu_est, self.l_est = smoothness_bounds(dataset, self.lam)
        if self.l_est <= 0:
            # all-zero features with lam == 0: degenerate but keep l_est positive
            self.l_est = np.finfo(np.float64).tiny

    def eval_many(self, points):
        """F at each row of the (P, dim) ``points`` in one pass over the data
        per ``_EVAL_POINTS`` points, bit for bit the one-point formula
        ``_log1p_exp(-labels * (X @ w)).mean() + (lam/2) ||w||**2``.

        The dense cache is read in the blocks of ``_row_blocks``, one gemv
        per point and block, while the block sits in cache.  A row's margin
        does not depend on the blocking: the blocks start on multiples of 64
        rows, where the BLAS kernel's 4-row groups start too, and none is a
        single row, which numpy would hand to a dot product instead of gemv.
        A multi-threaded BLAS also splits a gemv's rows between threads; a
        split off a 4-row boundary moves a few rows' last bits, in the
        whole-matrix product as much as in a block.
        """
        points = self._check_rows(points)
        n, count, step = self.n, len(points), self._EVAL_POINTS
        zw = np.empty((min(count, step), n))
        terms = np.empty_like(zw)
        loss = np.empty(count)
        for first in range(0, count, step):
            batch = points[first:first + step]
            z, t = zw[:len(batch)], terms[:len(batch)]
            if self._dense is None:
                for j, w in enumerate(batch):
                    z[j] = self.X @ w
            else:
                for a, b in self._row_blocks():
                    block = self._dense[a:b]
                    for j, w in enumerate(batch):
                        np.matmul(block, w, out=z[j, a:b])
            np.multiply(self.labels, z, out=z)
            _log1p_exp(np.negative(z, out=z), out=t)
            # np.mean is this sum divided by the count
            np.divide(np.add.reduce(t, axis=1), n, out=loss[first:first + len(t)])
        return loss + 0.5 * self.lam * (points * points).sum(axis=1)

    def _row_blocks(self):
        """``(start, stop)`` row blocks of the dense cache for ``eval_many``:
        a multiple of 64 rows of about ``_EVAL_BLOCK_BYTES`` each, the
        remainder last, folded into the block before it if it is one row."""
        rows = max(64, self._EVAL_BLOCK_BYTES // (8 * self.dim) // 64 * 64)
        starts = list(range(0, self.n, rows))
        if len(starts) > 1 and self.n - starts[-1] == 1:
            starts.pop()
        return zip(starts, starts[1:] + [self.n])

    def grad(self, w):
        return self.eval_grad(w).grad

    def eval_grad(self, w):
        w = self._check_point(w)
        a = self.X if self._dense is None else self._dense
        z = self.labels * (a @ w)
        loss = float(_log1p_exp(-z).mean() + 0.5 * self.lam * (w * w).sum())
        coefs = (-self.labels * expit(-z)) / self.n
        return GradSample(loss, a.T @ coefs + self.lam * w)

    def stoch_grad_multi(self, W, bundle, *, out=None, scratch=None):
        W, out, scratch = self._work(W, bundle, out, scratch)
        pts, blocks = _by_point(W, out)
        idx = bundle.indices(self.n, 1)[:, 0]
        rows = scratch
        if self._dense is not None:
            # idx lies in [0, n): "clip" never clips, and unlike the default
            # "raise" it gathers straight into ``rows`` without a buffer
            np.take(self._dense, idx, axis=0, out=rows, mode="clip")
        else:
            self.X[idx].toarray(out=rows)
        y = self.labels[idx]
        # multiply + pairwise sum, not BLAS: a row's bits do not depend on B
        np.multiply(rows.reshape(blocks.shape), pts, out=blocks)
        z = y * out.sum(axis=-1)
        coefs = -y * expit(-z)
        np.multiply(coefs[:, None], rows, out=out)
        reg = np.multiply(self.lam, pts, out=rows[:len(pts), None, :])
        np.add(blocks, reg, out=blocks)
        return out


class Augmented(Objective):
    """inner(w) + (lam/2) * ||w - w0||**2; lam-strongly-convex lift of any objective."""

    def __init__(self, inner: Objective, lam: float, w0):
        if lam <= 0:
            raise ValueError("augmentation strength must be positive")
        self.inner = inner
        self.lam = float(lam)
        self.w0 = _as_row(w0, inner.dim, "anchor")
        self.dim = inner.dim
        self.mu_est = inner.mu_est + self.lam
        self.l_est = inner.l_est + self.lam

    def eval_many(self, points):
        points = self._check_rows(points)
        d = points - self.w0
        return self.inner.eval_many(points) + 0.5 * self.lam * (d * d).sum(axis=1)

    def grad(self, w):
        w = self._check_point(w)
        return self.inner.grad(w) + self.lam * (w - self.w0)

    def stoch_grad_multi(self, W, bundle, *, out=None, scratch=None):
        W, out, scratch = self._work(W, bundle, out, scratch)
        g = self.inner.stoch_grad_multi(W, bundle, out=out, scratch=scratch)
        pts, blocks = _by_point(W, g)
        pull = np.subtract(pts, self.w0, out=scratch[:len(pts), None, :])
        np.multiply(self.lam, pull, out=pull)
        np.add(blocks, pull, out=blocks)
        return g


def smoothness_bounds(dataset, lam: float):
    """Curvature estimates for regularized logistic regression on a dataset.

    Returns ``(mu_est, l_est)`` with ``mu_est = lam`` and
    ``l_est = mean ||x_i||**2 / 4 + lam`` (the population logistic smoothness
    bound).
    """
    if dataset.n == 0:
        raise ValueError("empty dataset")
    return float(lam), float(row_norms_sq(dataset.X).mean() / 4.0 + lam)
