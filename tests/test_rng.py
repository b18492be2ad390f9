"""The vectorized stream must match an independent scalar transcription
of the documented algorithm, output for output."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainhash import rng

MASK = (1 << 64) - 1


def _premix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    return ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK


def _finalize(z):
    z = _premix(z)
    return z ^ (z >> 31)


def reference_outputs(seed, count):
    # Scalar transcription of the documented recurrence, kept deliberately
    # separate from the numpy implementation under test.
    out = []
    state = _finalize(seed & MASK)
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        out.append(_finalize(state))
    return out


def test_stream_matches_scalar_reference():
    for seed in (0, 1, 42, 0xDEADBEEF, MASK):
        ref = reference_outputs(seed, 50)
        got = rng.stream_uint64(seed, 50)
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == ref


def test_offset_slices_the_same_stream():
    full = rng.stream_uint64(7, 100)
    tail = rng.stream_uint64(7, 70, offset=30)
    assert np.array_equal(full[30:], tail)


def test_scalar_mix_agrees_with_stream():
    seed = 1234567
    stream = rng.stream_uint64(seed, 10)
    for i in range(10):
        z = (rng.mix64(seed) + (i + 1) * rng.GOLDEN) & MASK
        assert rng.mix64(z) == int(stream[i])


def test_trial_streams_share_no_lattice_inputs():
    # Per-trial seeds differ by multiples of GOLDEN; the seed scramble must
    # keep their underlying input lattices disjoint, so consecutive trials
    # draw unrelated values instead of shifted copies of one stream.
    base, m = 11, 256
    inputs = set()
    for t in range(200):
        origin = rng.mix64(rng.trial_seed(base, t))
        inputs.update((origin + i * rng.GOLDEN) & MASK for i in range(1, m + 1))
    assert len(inputs) == 200 * m


def test_doubles_are_unit_interval_top_53_bits():
    bits = rng.stream_uint64(99, 1000)
    u = rng.stream_doubles(99, 1000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    expected = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert np.array_equal(u, expected)


def test_streams_are_deterministic_and_seed_sensitive():
    assert np.array_equal(rng.stream_uint64(5, 64), rng.stream_uint64(5, 64))
    assert not np.array_equal(rng.stream_uint64(5, 64), rng.stream_uint64(6, 64))


def test_trial_seed_rule():
    base = 0x0123456789ABCDEF
    assert rng.trial_seed(base, 0) == base
    for t in (1, 2, 17, 10**6):
        assert rng.trial_seed(base, t) == base ^ ((t * 0x9E3779B97F4A7C15) & MASK)
    seeds = {rng.trial_seed(base, t) for t in range(1000)}
    assert len(seeds) == 1000


def test_rejects_negative_arguments():
    with pytest.raises(ValueError):
        rng.stream_uint64(1, -1)
    with pytest.raises(ValueError):
        rng.trial_seed(1, -1)
    assert rng.stream_uint64(1, 0).size == 0


@pytest.mark.parametrize("offset", [0, 5, rng._CHUNK - 3, 2**40 + 7])
def test_long_streams_match_scalar_reference_across_chunks(offset):
    # Three chunks, the last partial; multi-seed rows and offsets cross every edge.
    seeds = [0, 3, MASK]
    chunk = rng._CHUNK
    count = 2 * chunk + 17
    block = rng.stream_uint64(seeds, count, offset)
    assert block.shape == (3, count) and block.dtype == np.uint64
    positions = [0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk, count - 1]
    positions += [int(i) for i in np.random.default_rng(offset).integers(0, count, 40)]
    for r, seed in enumerate(seeds):
        origin = _finalize(seed & MASK)
        for i in positions:
            expected = _finalize((origin + (offset + i + 1) * 0x9E3779B97F4A7C15) & MASK)
            assert int(block[r, i]) == expected
        assert np.array_equal(rng.stream_uint64(seed, count, offset), block[r])


def test_chunked_and_single_pass_streams_agree():
    # Either side of the length where the stream starts computing in chunks.
    edge = rng._CHUNK
    one_pass = rng.stream_uint64(9, edge, offset=11)
    chunked = rng.stream_uint64(9, edge + 1, offset=11)
    assert np.array_equal(chunked[:edge], one_pass)
    assert np.array_equal(rng.stream_uint64(9, 1, offset=11 + edge), chunked[edge:])


def test_long_streams_hold_a_chunk_of_scratch_per_row():
    # Each chunk is written straight into the output: beside it, a call holds
    # one lattice chunk and one finalizer scratch chunk per row, and no copy.
    seeds, count = [1, 2, 3], 2 * rng._CHUNK + 17
    tracemalloc.start()
    try:
        words = rng.premixed(seeds, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - words.nbytes <= (len(seeds) + 2) * rng._CHUNK * words.itemsize


@pytest.mark.parametrize("seed", [3, [0, 3, MASK]])
@pytest.mark.parametrize("offset", [0, 7, 2**40 + 1])
@pytest.mark.parametrize("count", [5, rng._CHUNK - 1, rng._CHUNK, rng._CHUNK + 1, 2 * rng._CHUNK + 3])
def test_finished_premixed_words_are_the_stream(seed, offset, count):
    words = rng.premixed(seed, count, offset)
    stream = rng.stream_uint64(seed, count, offset)
    assert words.shape == stream.shape and words.dtype == np.uint64
    for r, s in enumerate([seed] if isinstance(seed, int) else seed):
        origin = _finalize(s & MASK)
        for i in (0, count // 2, count - 1):
            expected = _premix((origin + (offset + i + 1) * 0x9E3779B97F4A7C15) & MASK)
            assert int(words.reshape(-1, count)[r, i]) == expected
    # The last step keeps the top 31 bits, where the sampler reads its buckets.
    assert np.array_equal(words >> np.uint64(33), stream >> np.uint64(33))
    assert rng.finish(words) is words
    assert np.array_equal(words, stream)


# Seeds from the whole 64-bit range plus the trial-splitting lattice: 0, 2**64 - 1 and
# multiples of GOLDEN, reduced mod 2**64 or not (mix64 reduces them).
_SEEDS = st.one_of(
    st.sampled_from([0, MASK]),
    st.integers(0, MASK),
    st.integers(0, 2**20).map(lambda t: t * rng.GOLDEN),
    st.integers(0, 2**20).map(lambda t: (t * rng.GOLDEN) & MASK),
)


@settings(max_examples=150, deadline=None)
@given(
    seeds=st.one_of(*(st.lists(_SEEDS, min_size=k, max_size=k) for k in (1, 2)), st.lists(_SEEDS, max_size=64)),
    count=st.integers(0, 40),
    offset=st.integers(0, 2**40),
)
def test_property_block_rows_are_one_seed_streams(seeds, count, offset):
    # Two or more seeds are scrambled in numpy, one seed by the scalar mix64.
    block = rng.premixed(seeds, count, offset)
    assert block.shape == (len(seeds), count) and block.dtype == np.uint64
    for r, seed in enumerate(seeds):
        assert np.array_equal(block[r], rng.premixed(seed, count, offset))
        assert np.array_equal(block[r], rng.premixed([seed], count, offset)[0])
    if count:
        origins = [_finalize(seed & MASK) for seed in seeds]
        expected = [_premix((z + (offset + 1) * rng.GOLDEN) & MASK) for z in origins]
        assert [int(w) for w in block[:, 0]] == expected
