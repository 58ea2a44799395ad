"""Reference code for the tests: the scalar stream key that ``StreamBundle``
derives in uint64 arrays, and a single random stream as a one-row
``StreamBundle`` whose draws are flat arrays."""

from fedsim.rng import _GOLDEN, _MASK, _MIX_A, _MIX_B, StreamBundle


def _mix_int(z: int) -> int:
    """SplitMix64 finalizer on a plain python int (no numpy scalar overflow)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def stream_key(seed: int, worker_id: int) -> int:
    """Derive the 64-bit key identifying stream (seed, worker_id)."""
    s = _mix_int((int(seed) & _MASK) + _GOLDEN)
    w = _mix_int(((int(worker_id) & _MASK) + 1) * _GOLDEN)
    return _mix_int(s ^ w)


class RngStream:
    """A single random stream identified by (seed, worker_id).

    Thin wrapper over :class:`StreamBundle` with one worker; draws return flat
    arrays.  ``counter`` is exposed so callers can checkpoint or fast-forward.
    """

    __slots__ = ("_bundle",)

    def __init__(self, seed: int, worker_id: int = 0, counter: int = 0):
        self._bundle = StreamBundle(seed, [worker_id], counter)

    @property
    def counter(self) -> int:
        return self._bundle.counter

    @counter.setter
    def counter(self, value: int) -> None:
        self._bundle.counter = int(value)

    def uniforms(self, count: int):
        return self._bundle.uniforms(count)[0]

    def gaussians(self, count: int):
        return self._bundle.gaussians(count)[0]

    def indices(self, n: int, count: int = 1):
        return self._bundle.indices(n, count)[0]
