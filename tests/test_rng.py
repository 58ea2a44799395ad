"""Tests for the counter-based splittable RNG."""

import numpy as np
import pytest
import scipy.stats

from fedsim import rng
from fedsim.rng import StreamBundle
from rng_reference import RngStream, plain_indices, stream_key


def test_same_state_same_output():
    a = RngStream(seed=42, worker_id=3)
    b = RngStream(seed=42, worker_id=3)
    assert np.array_equal(a.gaussians(100), b.gaussians(100))
    assert np.array_equal(a.uniforms(50), b.uniforms(50))
    assert np.array_equal(a.indices(13, 40), b.indices(13, 40))


def test_two_workers_distinct_sequences():
    a = RngStream(seed=42, worker_id=0)
    b = RngStream(seed=42, worker_id=1)
    ga, gb = a.gaussians(64), b.gaussians(64)
    assert not np.array_equal(ga, gb)
    # and the sequences should not merely be shifted copies of each other
    assert not np.array_equal(ga[1:], gb[:-1])


def test_two_seeds_distinct_sequences():
    a = RngStream(seed=1, worker_id=0)
    b = RngStream(seed=2, worker_id=0)
    assert not np.array_equal(a.gaussians(64), b.gaussians(64))


def test_counter_addressing_is_stateless():
    """The variate at slot i does not depend on how earlier slots were consumed."""
    whole = RngStream(seed=7, worker_id=0).gaussians(20)

    split = RngStream(seed=7, worker_id=0)
    first = split.gaussians(5)
    mid = split.gaussians(10)
    last = split.gaussians(5)
    assert np.array_equal(whole, np.concatenate([first, mid, last]))

    jumped = RngStream(seed=7, worker_id=0)
    jumped.counter = 5
    assert np.array_equal(jumped.gaussians(10), whole[5:15])


def test_mixed_draw_types_do_not_collide():
    """A uniform at slot i and a gaussian at slot i come from the same slot
    but different word addresses, so consuming one type never perturbs the
    positions of later draws of another type."""
    s = RngStream(seed=3, worker_id=0)
    s.uniforms(4)
    tail = s.gaussians(6)

    t = RngStream(seed=3, worker_id=0)
    t.gaussians(4)
    assert np.array_equal(t.gaussians(6), tail)


def test_bundle_rows_match_single_streams():
    bundle = StreamBundle(seed=11, worker_ids=[0, 1, 5, 9])
    g = bundle.gaussians(30)
    u = bundle.uniforms(12)
    ix = bundle.indices(100, 25)
    for row, m in enumerate([0, 1, 5, 9]):
        solo = RngStream(seed=11, worker_id=m)
        assert np.array_equal(g[row], solo.gaussians(30))
        assert np.array_equal(u[row], solo.uniforms(12))
        assert np.array_equal(ix[row], solo.indices(100, 25))
    assert bundle.counter == 30 + 12 + 25


def test_uniforms_in_unit_interval():
    u = RngStream(seed=5, worker_id=0).uniforms(10_000)
    assert np.all(u >= 0.0)
    assert np.all(u < 1.0)


def test_gaussian_moments():
    g = RngStream(seed=123, worker_id=0).gaussians(200_000)
    assert np.isfinite(g).all()
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01
    # tails exist: a degenerate generator would fail this
    assert np.abs(g).max() > 3.5


def test_index_range_and_validation():
    s = RngStream(seed=9, worker_id=0)
    ix = s.indices(7, 1000)
    assert ix.min() >= 0
    assert ix.max() < 7
    assert s.indices(1, 5).tolist() == [0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        s.indices(0)


def test_index_chi_squared_uniformity():
    """n=7, one million draws: chi-squared p-value must be unremarkable."""
    stream = RngStream(seed=2020, worker_id=0)
    draws = stream.indices(7, 1_000_000)
    counts = np.bincount(draws, minlength=7)
    _, p = scipy.stats.chisquare(counts)
    assert 0.001 < p < 0.999


def test_draw_helpers_consume_counter():
    s = RngStream(seed=77, worker_id=2)
    g = s.gaussians(3)
    assert g.shape == (3,)
    assert s.counter == 3
    i = s.indices(10, 1)
    assert i.shape == (1,)
    assert 0 <= i[0] < 10
    assert s.counter == 4


def test_stream_key_distinct():
    keys = {stream_key(s, w) for s in range(20) for w in range(20)}
    assert len(keys) == 400


def test_bundle_keys_equal_stream_key():
    """The vectorized keys are the scalar ``stream_key`` for seeds that wrap
    mod 2**64 (negative, 2**63 and up, beyond 2**64) and large worker ids,
    with one seed per row and with one seed for the whole bundle."""
    seeds = [0, 1, -1, 2**63, 2**64 - 1, 2**70 + 3]
    ids = [0, 2**40, 2**63 - 1]
    pairs = [(s, w) for s in seeds for w in ids]
    bundle = StreamBundle([s for s, _ in pairs], [w for _, w in pairs])
    assert bundle._keys.ravel().tolist() == [stream_key(s, w) for s, w in pairs]
    for seed in seeds:
        assert StreamBundle(seed, ids)._keys.ravel().tolist() == \
            [stream_key(seed, w) for w in ids]


def test_bundle_keyed_by_seed_worker_pairs():
    pairs = [(3, 0), (3, 1), (8, 0), (2**64 - 1, 4)]
    bundle = StreamBundle([s for s, _ in pairs], [m for _, m in pairs])
    g = bundle.gaussians(9)
    ix = bundle.indices(50, 7)
    for row, (seed, m) in enumerate(pairs):
        solo = RngStream(seed=seed, worker_id=m)
        assert np.array_equal(g[row], solo.gaussians(9))
        assert np.array_equal(ix[row], solo.indices(50, 7))
    with pytest.raises(ValueError):
        StreamBundle([1, 2], [0, 1, 2])


def test_bundle_rows_draw_as_a_bundle_of_fewer_rows():
    """Rows of a bundle draw, from a shared counter, what a bundle of only
    those rows started at that counter draws."""
    bundle = StreamBundle([5, 5, 6, 6], [0, 1, 0, 1])
    bundle.gaussians(4)
    u = bundle.uniforms(6)
    fewer = StreamBundle([5, 6], [0, 1], counter=4)
    assert np.array_equal(fewer.uniforms(6), u[[0, 3]])
    for row, (seed, m) in zip([0, 3], [(5, 0), (6, 1)]):
        solo = RngStream(seed=seed, worker_id=m, counter=4)
        assert np.array_equal(u[row], solo.uniforms(6))
    assert bundle.counter == fewer.counter == 10


def as_ints(draws) -> list:
    """Index variates as python ints in [0, n), unwrapping the int64 of a
    variate at or above 2**63."""
    return np.asarray(draws).astype(np.uint64).tolist()


def reference_rows(seed, ids, n, start, count):
    """(rows, count) plain-int variates and words read, one row per id."""
    drawn = [plain_indices(stream_key(seed, w), n, start, count) for w in ids]
    return [v for v, _ in drawn], [k for _, k in drawn]


@pytest.mark.parametrize("n", [2**63 + 1, 2**40, 2**64 // 3 + 1, 1000, 1])
def test_indices_fast_path_matches_rejection_loop(n):
    """Vectorized draws give the plain-int rejection loop's variates and
    counter, bit for bit, whether or not a first word is rejected."""
    ids = np.arange(64)
    bundle = StreamBundle(17, ids, counter=3)
    got = bundle.indices(n, 32)
    want, words = reference_rows(17, ids, n, 3, 32)
    if n == 2**63 + 1:  # about half of the first words are rejected
        assert 0.4 < (np.array(words) > 1).mean() < 0.6
    assert as_ints(got) == want
    assert bundle.counter == 35
    assert as_ints(bundle.indices(n, 1)) == reference_rows(17, ids, n, 35, 1)[0]


# ---------------------------------------------------------------------------
# index draws served from blocks drawn ahead


def reference_indices(seed, ids, n, slots):
    """(len(slots), rows) index variates, each slot drawn on its own by the
    plain-int reference."""
    return np.array([[plain_indices(stream_key(seed, w), n, s, 1)[0][0]
                      for w in ids] for s in slots], dtype=np.uint64
                    ).reshape(len(slots), len(ids)).astype(np.int64)


def single_slot_draws(bundle, n, count):
    """``count`` single-slot index draws, stacked to (count, rows)."""
    return np.array([bundle.indices(n, 1)[:, 0] for _ in range(count)])


def test_single_slot_draws_cross_block_boundaries():
    ids = [0, 1, 5, 9]
    bundle = StreamBundle(11, ids, counter=5)
    got = single_slot_draws(bundle, 1000, 150)
    assert bundle.counter == 155
    assert np.array_equal(got, reference_indices(11, ids, 1000, range(5, 155)))


def test_other_draws_between_index_calls():
    """Uniforms and gaussians drawn between index calls take their own slots
    and see the same variates as a plain stream; so do the index calls."""
    ids = [2, 3, 7]
    bundle = StreamBundle(4, ids)
    for _ in range(40):
        slot = bundle.counter
        first = bundle.indices(97, 1)
        u = bundle.uniforms(2)
        second = bundle.indices(97, 1)
        g = bundle.gaussians(1)
        assert np.array_equal(np.hstack([first, second]).T,
                              reference_indices(4, ids, 97, [slot, slot + 3]))
        for row, w in enumerate(ids):
            assert np.array_equal(u[row], RngStream(4, w, slot + 1).uniforms(2))
            assert np.array_equal(g[row], RngStream(4, w, slot + 4).gaussians(1))
    assert bundle.counter == 40 * 5


def test_index_range_change_between_calls():
    ids = [0, 1]
    bundle = StreamBundle(8, ids)
    ranges = [7, 8000, 2**40, 7, 7, 3] * 25
    got = [bundle.indices(n, 1)[:, 0] for n in ranges]
    assert bundle.counter == len(ranges)
    for slot, (n, row) in enumerate(zip(ranges, got)):
        assert np.array_equal(row, reference_indices(8, ids, n, [slot])[0])


def test_counter_moved_backwards_and_past_the_block():
    ids = [1, 4, 6]
    stream = RngStream(3, 2)
    bundle = StreamBundle(3, ids)
    single_slot_draws(bundle, 50, 10)
    for start, count in ((3, 5), (0, 70), (500, 3), (20, 4), (1000, 130)):
        bundle.counter = stream.counter = start
        got = single_slot_draws(bundle, 50, count)
        assert bundle.counter == start + count
        want = reference_indices(3, ids, 50, range(start, start + count))
        assert np.array_equal(got, want)
        solo = [stream.indices(50, 1)[0] for _ in range(count)]
        assert solo == reference_indices(3, [2], 50, range(start, start + count)
                                         ).ravel().tolist()
        assert stream.counter == start + count


def test_fewer_rows_from_the_middle_of_a_block():
    """A bundle of some of the rows, started in the middle of the wider
    bundle's first block, draws those rows' single-slot indices."""
    ids = [0, 1, 2, 3]
    bundle = StreamBundle(21, ids)
    every = single_slot_draws(bundle, 640, 80)
    fewer = StreamBundle(21, [0, 2, 3], counter=10)
    then = single_slot_draws(fewer, 640, 70)
    assert fewer.counter == 80
    assert np.array_equal(every, reference_indices(21, ids, 640, range(80)))
    assert np.array_equal(then, every[10:, [0, 2, 3]])


def test_single_slot_draws_through_the_rejection_loop():
    """n = 2**63 + 1 rejects about half of all words, so every block goes
    through the general rejection loop."""
    n = 2**63 + 1
    ids = [0, 3]
    bundle = StreamBundle(17, ids, counter=40)
    got = single_slot_draws(bundle, n, 100)
    assert bundle.counter == 140
    assert np.array_equal(got, reference_indices(17, ids, n, range(40, 140)))
    assert (got.astype(np.uint64) < np.uint64(n)).all()


@pytest.mark.parametrize("rows, blocked", [(32, True), (33, False)])
def test_bundle_wider_than_the_word_budget_draws_plainly(monkeypatch, rows,
                                                         blocked):
    """A bundle with room for one slot per block caches one slot; a bundle
    wider than the word budget draws exactly its call's slots and caches
    nothing.  Either way the variates and counter are the reference's."""
    monkeypatch.setattr(rng, "_BLOCK_WORDS", 32)
    drawn = []
    uniform_ints = rng._uniform_ints

    def spy(keys, idx, n):
        drawn.append(idx.shape[0])
        return uniform_ints(keys, idx, n)

    monkeypatch.setattr(rng, "_uniform_ints", spy)
    ids = np.arange(rows)
    bundle = StreamBundle(5, ids)
    got = single_slot_draws(bundle, 1000, 5)
    assert (bundle._block is not None) == blocked
    assert np.array_equal(got, reference_indices(5, ids, 1000, range(5)))
    assert as_ints(bundle.indices(1000, 3)) == \
        reference_rows(5, ids, 1000, 5, 3)[0]
    assert as_ints(bundle.indices(1000, 0)) == [[]] * rows
    assert bundle.counter == 8
    assert drawn == [1] * 5 + [3] + [int(blocked)]


@pytest.mark.parametrize("rows, count", [(3, 0), (3, 64), (3, 65), (3, 300),
                                         (0, 0), (0, 5), (0, 300)])
def test_draws_of_any_count_match_the_reference(rows, count):
    """A draw of no slot, of a whole block and of more slots than a block,
    from a bundle with rows and from one without, after a single-slot draw
    has cached a block: the reference's variates, and the counter moves by
    ``count``.  A draw larger than a block leaves the cached block as it
    was."""
    ids = [4, 0, 9][:rows]
    bundle = StreamBundle(6, ids, counter=7)
    first = bundle.indices(2**40, 1)
    block = bundle._block
    got = bundle.indices(2**40, count)
    assert got.shape == (rows, count) and got.dtype == np.int64
    assert bundle.counter == 8 + count
    if count > rng._BLOCK_SLOTS:
        assert bundle._block is block
    assert as_ints(np.hstack([first, got])) == \
        reference_rows(6, ids, 2**40, 7, 1 + count)[0]
    assert as_ints(bundle.indices(2**40, 2)) == \
        reference_rows(6, ids, 2**40, 8 + count, 2)[0]


def test_writing_into_a_returned_draw_changes_no_later_draw():
    bundle = StreamBundle(9, [0, 1, 2])
    got = bundle.indices(100, 1)
    got[:] = -1
    again = bundle.indices(100, 1)
    again[:] = -1
    bundle.counter = 0
    assert np.array_equal(single_slot_draws(bundle, 100, 2),
                          reference_indices(9, [0, 1, 2], 100, range(2)))


@pytest.mark.parametrize("n", [2**64, 0, -3, 1.5, 8.0, "7", None])
def test_rejected_index_range_consumes_no_slot(n):
    bundle = StreamBundle(2, [0, 1])
    bundle.indices(10, 1)
    block = bundle._block
    with pytest.raises(ValueError):
        bundle.indices(n, 1)
    with pytest.raises(ValueError):
        bundle.indices(n, 3)
    assert bundle.counter == 1
    assert bundle._block is block
    assert np.array_equal(single_slot_draws(bundle, 10, 1),
                          reference_indices(2, [0, 1], 10, [1]))


@pytest.mark.parametrize("count", [-2, -1, 1.5, 2.0, "3", None])
def test_rejected_count_consumes_no_slot(count):
    """Every draw checks ``count`` before it takes a slot: a negative one
    must not rewind the counter, and a non-integer must not move it."""
    bundle = StreamBundle(1, [0, 1], counter=5)
    for draw in (lambda: bundle.indices(10, count),
                 lambda: bundle.uniforms(count),
                 lambda: bundle.gaussians(count)):
        with pytest.raises(ValueError, match="count"):
            draw()
        assert bundle.counter == 5
    assert np.array_equal(bundle.indices(10, 2),
                          reference_indices(1, [0, 1], 10, [5, 6]).T)
    assert bundle.counter == 7


@pytest.mark.parametrize("ids, count", [([], 3), ([], 1), ([0, 1], 0), ([], 0)])
def test_zero_size_index_draw_is_empty(ids, count):
    """A draw of no variates, for want of rows or of slots, returns an empty
    (rows, count) array as ``uniforms`` does, and takes ``count`` slots."""
    bundle = StreamBundle(1, ids, counter=4)
    got = bundle.indices(10, count)
    assert got.shape == (len(ids), count) and got.dtype == np.int64
    assert bundle.uniforms(count).shape == (len(ids), count)
    assert bundle.counter == 4 + 2 * count
    if ids:
        assert np.array_equal(bundle.indices(10, 1),
                              reference_indices(1, ids, 10, [4 + 2 * count]).T)


def test_empty_bundle_keeps_its_counter_across_single_slot_draws():
    bundle = StreamBundle(1, [])
    for _ in range(3):
        assert bundle.indices(10).shape == (0, 1)
    assert bundle.counter == 3
    assert bundle.gaussians(2).shape == (0, 2) and bundle.counter == 5
