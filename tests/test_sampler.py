"""Differential tests of the guide-table sampler against the plain binary search.

The reference below is the sampler's previous implementation, the draw rule
written as one ``searchsorted`` call.  Every test requires the guide-table
search to return exactly its indices.  ``sample_from_cdf`` takes each
bucket from the top bits of a stream word rather than from its double, so
the tests feed it chosen words and compare with the reference on the
doubles of those words.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainhash import probability, rng
from chainhash.probability import (
    ProbabilityVector,
    guide_table,
    make_point_mass,
    make_restricted_uniform,
    make_uniform,
    make_zipf,
    sample,
    sample_from_cdf,
)


def reference(cdf, u):
    return np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"), cdf.size - 1)


def doubles_of(words):
    # The stream's double of a word, written out here rather than taken from rng.
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def word_draws(cdf, guide, words):
    """``sample_from_cdf`` on a stream that yields ``words``.

    The sampler reads premixed words, so the patch yields the premixed word
    of each: ``w ^ (w >> 31) ^ (w >> 62)`` inverts ``rng.finish``.  A row
    longer than one sampler pass is read a pass at a time, from ``offset``.
    """
    premixed = words ^ (words >> np.uint64(31)) ^ (words >> np.uint64(62))
    with mock.patch.object(rng, "premixed", lambda seed, count, offset=0:
                           premixed[offset : offset + count]):
        return sample_from_cdf(cdf, 0, words.size, guide)


def hard_words(cdf, guide, buckets=None):
    """Words where an error in the word route would show.

    For each bucket j of ``buckets`` (default: every bucket) the first and
    last word of its top-k-bit range, and for each cdf step the words whose
    53-bit value lands on it and one ulp either side, each with the 11
    dropped bits all clear and all set.
    """
    k = (guide.size - 1).bit_length() - 1
    j = np.arange(guide.size - 1, dtype=np.uint64) if buckets is None else buckets
    shift = np.uint64(64 - k)
    edges = np.concatenate([j << shift, ((j + np.uint64(1)) << shift) - np.uint64(1)])
    top = np.floor(cdf / cdf[-1] * 2.0**53)
    top = np.concatenate([top - 1, top, top + 1])
    top = top[(top >= 0) & (top < 2.0**53)].astype(np.uint64) << np.uint64(11)
    low = np.array([0, 0x7FF], dtype=np.uint64)
    steps = (top[:, None] | low).ravel()
    return np.concatenate([edges, steps])


def words_of(u):
    """The words whose double is u, with the 11 dropped bits all clear and all set.

    Only a multiple of 2**-53 in [0, 1) is the double of a stream word; any
    other u is dropped.
    """
    top = np.asarray(u, dtype=np.float64) * 2.0**53  # exact: a power-of-two scaling
    top = top[(top == np.floor(top)) & (top >= 0.0) & (top < 2.0**53)]
    low = np.array([0, 0x7FF], dtype=np.uint64)
    return ((top.astype(np.uint64) << np.uint64(11))[:, None] | low).ravel()


def hard_uniforms(cdf, guide):
    """Uniforms where an off-by-one would show.

    Every bucket edge j/K and the double just below each, 0, 1 - 2**-53, and
    the uniforms whose product with cdf[-1] lands on or next to a cdf entry.
    """
    edges = np.arange(guide.size - 1) / (guide.size - 1)
    steps = cdf / cdf[-1]
    u = np.concatenate(
        [edges, np.nextafter(edges[1:], 0.0), [0.0, 1.0 - 2.0**-53],
         steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0)]
    )
    return u[(u >= 0.0) & (u < 1.0)]


def parts(values, size=2**20):
    """Consecutive slices of at most ``size`` values.

    The draws are elementwise, so checking every slice checks the whole
    array; the temporaries of a 2**21-entry cdf's hard words stay small.
    """
    return (values[i : i + size] for i in range(0, values.size, size))


NAMED = {
    "uniform-64": lambda: make_uniform(64),
    "uniform-100": lambda: make_uniform(100),
    "zipf-64": lambda: make_zipf(64, 1.0),
    "zipf-2^20": lambda: make_zipf(2**20, 1.0),
    "restricted-100": lambda: make_restricted_uniform(100, 0.1),
    "restricted-1000": lambda: make_restricted_uniform(1000, 0.37),
    "pointmass-first": lambda: make_point_mass(1000, 0),
    "pointmass-middle": lambda: make_point_mass(1000, 500),
    "pointmass-last": lambda: make_point_mass(1000, 999),
    "size-1": lambda: make_uniform(1),
    "size-2": lambda: ProbabilityVector([0.3, 0.7]),
    "size-3-zero-tail": lambda: ProbabilityVector([1.0, 2.0, 0.0]),
    "size-65537": lambda: make_zipf(2**16 + 1, 0.5),
    # Above the 2**20 bucket cap: windows span several cdf entries, so the
    # search takes more than one halving step.
    "zipf-2^21+1": lambda: make_zipf(2**21 + 1, 1.0),
}


@pytest.fixture(scope="module", params=sorted(NAMED))
def named(request):
    return NAMED[request.param]()


class TestNamedDistributions:
    def test_stream_draws_match(self, named):
        cdf = named.cdf
        for seed in (0, 1, 108, 2**64 - 1):
            expected = reference(cdf, rng.stream_doubles(seed, 6400))
            assert np.array_equal(sample_from_cdf(cdf, seed, 6400, named.guide), expected)
        # Without a guide the call builds one and returns the same draws.
        expected = reference(cdf, rng.stream_doubles(5, 500))
        assert np.array_equal(sample_from_cdf(cdf, 5, 500), expected)

    def test_bucket_edges_match(self, named):
        for words in parts(words_of(hard_uniforms(named.cdf, named.guide))):
            expected = reference(named.cdf, doubles_of(words))
            assert np.array_equal(word_draws(named.cdf, named.guide, words), expected)

    def test_word_route_matches(self, named):
        for words in parts(hard_words(named.cdf, named.guide)):
            expected = reference(named.cdf, doubles_of(words))
            assert np.array_equal(word_draws(named.cdf, named.guide, words), expected)

    def test_rows_longer_than_a_pass_match(self, named):
        # Three passes, the last of 3 columns; with two seeds, each pass fills
        # a non-contiguous slice of the output.
        width = probability._BLOCK_DRAWS
        m, seeds = 2 * width + 3, [7, 2**64 - 1]
        expected = [reference(named.cdf, rng.stream_doubles(seed, m)) for seed in seeds]
        assert np.array_equal(sample_from_cdf(named.cdf, seeds[0], m, named.guide), expected[0])
        with mock.patch.object(rng, "premixed", wraps=rng.premixed) as stream:
            rows = sample_from_cdf(named.cdf, seeds, m, named.guide)
        passes = [call.args[1:] for call in stream.call_args_list]
        assert passes == [(width, 0), (width, width), (3, 2 * width)]
        assert rows.shape == (2, m)
        assert all(np.array_equal(row, draws) for row, draws in zip(rows, expected))

    def test_result_type_and_zero_weights(self, named):
        keys = sample(named, 3, 4000).keys
        assert keys.dtype == np.int64
        assert np.all(named.weights[keys] > 0.0)


def test_cdf_totals_other_than_one():
    # Normalized weights whose cumsum ends below 1, raw cumsums of other
    # totals, and a subnormal total, where u * cdf[-1] can round up to cdf[-1].
    assert make_uniform(10).cdf[-1] != 1.0
    cdfs = [
        make_uniform(10).cdf,
        ProbabilityVector([1.0, 2.0]).cdf,
        np.cumsum([3.0, 0.0, 5.0, 1.0]),
        np.cumsum(np.full(77, 1e-3)),
        np.cumsum([5e-324] * 3 + [0.0] * 10),
    ]
    for cdf in cdfs:
        guide = guide_table(cdf)
        words = np.concatenate(
            [words_of(hard_uniforms(cdf, guide)), hard_words(cdf, guide), rng.stream_uint64(17, 5000)]
        )
        expected = reference(cdf, doubles_of(words))
        assert np.array_equal(word_draws(cdf, guide, words), expected)
        assert np.array_equal(word_draws(cdf, None, words), expected)


@pytest.mark.parametrize(
    "size, buckets",
    [(1, 2**13), (2, 2**13), (3, 2**13), (64, 2**13), (100, 2**13), (2**11, 2**13),
     (2**11 + 1, 2**14), (2**16, 2**18), (2**16 + 1, 2**17), (2**20, 2**20), (2**20 + 1, 2**20)],
)
def test_guide_size(size, buckets):
    guide = guide_table(np.linspace(1.0 / size, 1.0, size))
    assert guide.dtype == np.int32 and guide.size == buckets + 1
    assert guide.nbytes <= 4 * 2**20 + 4
    starts = np.where(guide < 0, ~guide, guide)
    assert starts[0] >= 0 and guide[-1] == size - 1 and np.all(np.diff(starts) >= 0)
    # The sign marks exactly the buckets that hold a cdf step.
    assert np.array_equal(guide[:-1] < 0, starts[:-1] < starts[1:])


def test_buckets_fit_in_the_top_31_bits():
    # The sampler takes a word's bucket, its top k bits, before the stream's
    # last step z ^= z >> 31, which keeps only the top 31 bits: k <= 31.
    assert probability._GUIDE_MAX_BUCKETS <= 2**31


weights_with_zeros = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-12, 1e6, allow_nan=False, allow_infinity=False)),
    min_size=1,
    max_size=300,
).filter(lambda w: sum(w) > 0.0)


@settings(max_examples=200, deadline=None)
@given(
    weights=weights_with_zeros,
    extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
    seed=st.integers(0, 2**64 - 1),
)
def test_property_matches_reference(weights, extra, seed):
    pv = ProbabilityVector(weights)
    for cdf in (pv.cdf, np.cumsum(weights)):
        guide = guide_table(cdf)
        words = np.concatenate(
            [words_of(np.concatenate([hard_uniforms(cdf, guide), extra])), rng.stream_uint64(seed, 200)]
        )
        assert np.array_equal(word_draws(cdf, guide, words), reference(cdf, doubles_of(words)))
    assert np.all(pv.weights[sample_from_cdf(pv.cdf, seed, 200, pv.guide)] > 0.0)


@settings(max_examples=100, deadline=None)
@given(
    weights=weights_with_zeros,
    repeat=st.integers(1, 60),
    seed=st.integers(0, 2**64 - 1),
    buckets=st.lists(st.integers(0, 2**20 - 1), min_size=1, max_size=200),
)
def test_property_word_route_matches_reference(weights, repeat, seed, buckets):
    # Up to 18000 outcomes: guides at the 2**13 floor and above it, up to 2**17.
    cdf = np.cumsum(np.tile(weights, repeat))
    guide = guide_table(cdf)
    j = np.array(buckets, dtype=np.uint64) % np.uint64(guide.size - 1)
    words = np.concatenate([hard_words(cdf, guide, j), rng.stream_uint64(seed, 500)])
    assert np.array_equal(word_draws(cdf, guide, words), reference(cdf, doubles_of(words)))
