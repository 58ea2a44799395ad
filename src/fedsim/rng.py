"""Counter-based splittable random number streams.

Every variate produced here is a pure function of ``(seed, worker_id,
counter)``.  Streams never share hidden state, so any number of workers can
draw in any interleaving (or in parallel) and still produce bit-identical
results.  The generator is SplitMix64: a stream is keyed by mixing
``(seed, worker_id)``, and the output word at position ``i`` is the SplitMix64
finalizer applied to ``key + i * GOLDEN``.

Counter bookkeeping: each *variate* (one gaussian, one uniform, one index)
occupies exactly one counter slot, regardless of how many 64-bit words it
internally consumes.  Words within a slot are addressed as
``(slot << 32) + j``, so a slot can use up to 2**32 words without colliding
with its neighbours.  Gaussians use two words (Box-Muller), uniforms one,
index draws one word per rejection round (rejection is astronomically rare
for any practical range).

Because a variate depends only on its slot, ``StreamBundle.indices`` draws
single-slot index variates ahead, in blocks: a call at slot ``c`` that
misses the cached block draws slots ``[c, c + S)`` for every row in one
vectorized pass, and the calls at the following slots read their slot's
variates from it.  The counter still advances by exactly one per call, the
block is looked up by absolute slot and range ``n``, and draws of other
kinds in between (or a counter moved by hand) change no variate.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# one gaussian or uniform or index draw per slot; words addressed below 2**32
_SLOT_SHIFT = 32
_MAX_REJECTION_ROUNDS = 128

_INV_2_53 = 2.0 ** -53

# single-slot index draws are served from blocks of at most this many slots,
# holding at most this many words; a bundle too wide for two slots per block
# draws one slot per call
_BLOCK_SLOTS = 64
_BLOCK_WORDS = 1 << 14

# the same constants as numpy scalars, built once: uint64 array arithmetic
# with them wraps silently
_U_GOLDEN, _U_MIX_A, _U_MIX_B = (np.uint64(c) for c in (_GOLDEN, _MIX_A, _MIX_B))
_U1, _U11, _U27, _U30, _U31, _U_SLOT_SHIFT = (
    np.uint64(c) for c in (1, 11, 27, 30, 31, _SLOT_SHIFT))


def _finalize_array(z: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer; uint64 array arithmetic wraps silently."""
    z = (z ^ (z >> _U30)) * _U_MIX_A
    z = (z ^ (z >> _U27)) * _U_MIX_B
    return z ^ (z >> _U31)


def _words(keys: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Raw output words for every (key, word-index) pair; shape broadcast of inputs."""
    states = keys + idx * _U_GOLDEN
    return _finalize_array(states)


def _slot_word_idx(counter: int, count: int, word: int) -> np.ndarray:
    slots = np.arange(counter, counter + count, dtype=np.uint64)
    return (slots << _U_SLOT_SHIFT) + np.uint64(word)


def _to_unit(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to floats in [0, 1) using the top 53 bits."""
    return (words >> _U11).astype(np.float64) * _INV_2_53


def _to_unit_open(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to floats in (0, 1] so that log() is always finite."""
    return ((words >> _U11) + _U1).astype(np.float64) * _INV_2_53


def _index_range(n) -> int:
    """``n`` as a python int, checked to be a valid index range [1, 2**64 - 1]."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"index range must be an integer, got {n!r}") from None
    if not 1 <= n <= _MASK:
        raise ValueError(f"index range must be in [1, 2**64 - 1], got {n}")
    return n


def _uniform_ints(keys: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Uniform integers in [0, n) for every (key, slot) pair, where ``idx``
    holds the slots' first word indices; shape the broadcast of the inputs.

    Uses rejection against the largest multiple of n below 2**64, so the
    distribution is exactly uniform with no modulo bias.  When every first
    word is accepted (always, if n divides 2**64), the result is taken from
    those words directly; otherwise the rejection rounds start over from the
    same slots and give the same variates.
    """
    nn = np.uint64(n)
    # threshold == 0 means n divides 2**64 exactly: accept everything
    threshold = np.uint64((((1 << 64) // n) * n) & _MASK)
    w = _words(keys, idx)
    if not threshold or w.max(initial=0) < threshold:
        return (w % nn).astype(np.int64)
    return _reject(keys, idx, nn, threshold)


def _reject(keys: np.ndarray, idx: np.ndarray, nn: np.uint64,
            threshold: np.uint64) -> np.ndarray:
    """The general rejection loop behind ``_uniform_ints``."""
    shape = np.broadcast_shapes(keys.shape, idx.shape)
    out = np.empty(shape, dtype=np.int64)
    pending = np.ones(shape, dtype=bool)
    for word in range(_MAX_REJECTION_ROUNDS):
        w = _words(keys, idx + np.uint64(word))
        if threshold:
            ok = pending & (w < threshold)
        else:
            ok = pending.copy()
        out[ok] = (w[ok] % nn).astype(np.int64)
        pending &= ~ok
        if not pending.any():
            return out
    raise RuntimeError("rejection sampling failed to terminate")  # pragma: no cover


class StreamBundle:
    """A family of streams advancing their counters in lockstep, one per row.

    Row i is the stream ``(seeds[i], worker_ids[i])``: ``seed`` is one seed
    for every row or a sequence with one seed per row, so a bundle can hold
    the workers of several independent runs side by side.  The bundle draws
    for all rows at once (vectorized), but each row is bit-identical to what
    a one-row bundle of its stream would produce on its own.  The rows are
    fixed when the bundle is built.
    """

    __slots__ = ("counter", "_keys", "_block", "_block_n", "_block_first")

    def __init__(self, seed, worker_ids, counter: int = 0):
        ids = np.asarray(worker_ids, dtype=np.int64).ravel()
        if np.ndim(seed) == 0:
            seeds = np.full(ids.size, int(seed) & _MASK, dtype=np.uint64)
        else:
            seeds = np.array([int(s) & _MASK for s in seed], dtype=np.uint64)
        if seeds.size != ids.size:
            raise ValueError(f"{seeds.size} seeds for {ids.size} worker ids")
        self.counter = int(counter)
        # the key is mix(mix(seed + GOLDEN) ^ mix((id + 1) * GOLDEN)) mod
        # 2**64, where uint64 arrays wrap; int64 -> uint64 wraps a negative id
        s = _finalize_array(seeds + _U_GOLDEN)
        w = _finalize_array((ids.astype(np.uint64) + _U1) * _U_GOLDEN)
        self._keys = _finalize_array(s ^ w).reshape(-1, 1)
        # index variates drawn ahead: slots [first, first + len) for range n
        self._block, self._block_n, self._block_first = None, 0, 0

    def __len__(self) -> int:
        return self._keys.shape[0]

    def _take_slots(self, count: int) -> int:
        if not isinstance(count, (int, np.integer)) or count < 0:
            raise ValueError(f"count must be an integer >= 0, got {count!r}")
        start = self.counter
        self.counter = start + count
        return start

    def uniforms(self, count: int) -> np.ndarray:
        """Shape (rows, count) floats in [0, 1); advances counter by count."""
        start = self._take_slots(count)
        idx = _slot_word_idx(start, count, 0)
        return _to_unit(_words(self._keys, idx))

    def gaussians(self, count: int) -> np.ndarray:
        """Shape (rows, count) standard normals; advances counter by count."""
        start = self._take_slots(count)
        idx0 = _slot_word_idx(start, count, 0)
        idx1 = _slot_word_idx(start, count, 1)
        u1 = _to_unit_open(_words(self._keys, idx0))
        u2 = _to_unit(_words(self._keys, idx1))
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def indices(self, n: int, count: int = 1) -> np.ndarray:
        """Shape (rows, count) uniform integers in [0, n); advances counter by count.

        ``n`` must be an integer in [1, 2**64 - 1] and ``count`` one >= 0
        (as for every draw); otherwise ValueError, and the counter does not
        move.  A single-slot call is served from a block of up to
        ``_BLOCK_SLOTS`` slots, drawn for every row at once when the call's
        slot or ``n`` falls outside the cached block; the returned array is
        a copy, never the block itself.
        """
        n = _index_range(n)
        rows = len(self)
        span = min(_BLOCK_SLOTS, _BLOCK_WORDS // max(rows, 1))
        if count != 1 or span < 2:
            start = self._take_slots(count)
            return _uniform_ints(self._keys, _slot_word_idx(start, count, 0), n)
        c = self.counter
        block = self._block
        col = c - self._block_first
        if block is None or n != self._block_n or not 0 <= col < len(block):
            # (span, rows): each slot's variates are one contiguous row
            block = self._block = _uniform_ints(
                self._keys.T, _slot_word_idx(c, span, 0)[:, None], n)
            self._block_n, self._block_first, col = n, c, 0
        self.counter = c + 1
        return block[col, :, None].copy()
