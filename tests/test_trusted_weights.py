"""Differential gate for weights that the package builds and normalises unchecked.

``make_uniform``, ``make_zipf``, ``make_restricted_uniform``,
``make_point_mass`` and both branches of ``slot_probabilities`` hand a new
array of their own to ``ProbabilityVector._trusted``, which divides it by its
sum in place with none of the constructor's checks and no copy.  Their weights
must equal, bit for bit, those of the checked constructor on the same raw
weights, recomputed here on their own, and must be read-only.  Under the
identity hash the raw weights are q's own, so p must also leave q's array
untouched and share no memory with it.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainhash.hashing import HashModel, slot_probabilities
from chainhash.probability import (
    ProbabilityVector,
    make_point_mass,
    make_restricted_uniform,
    make_uniform,
    make_zipf,
)

sizes = st.integers(1, 300)


def assert_bit_equal_and_read_only(pv, raw):
    expected = ProbabilityVector(raw).weights
    assert pv.weights.dtype == np.float64 and not pv.weights.flags.writeable
    assert pv.weights.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(size=sizes)
def test_uniform(size):
    assert_bit_equal_and_read_only(make_uniform(size), [1.0 / size] * size)


@settings(max_examples=100, deadline=None)
@given(size=sizes, exponent=st.floats(0.0, 40.0))
def test_zipf(size, exponent):
    # Not Python's pow: numpy's may take a SIMD routine whose last bit differs.
    raw = np.arange(1, size + 1, dtype=np.float64) ** -exponent
    assert_bit_equal_and_read_only(make_zipf(size, exponent), raw)


@settings(max_examples=100, deadline=None)
@given(size=sizes, alpha=st.floats(0.0, 1.0, exclude_min=True))
def test_restricted_uniform(size, alpha):
    active = math.floor(alpha * size)
    assume(active >= 1)
    raw = [1.0 / active] * active + [0.0] * (size - active)
    assert_bit_equal_and_read_only(make_restricted_uniform(size, alpha), raw)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), size=sizes)
def test_point_mass(data, size):
    index = data.draw(st.integers(0, size - 1))
    raw = [0.0] * size
    raw[index] = 1.0
    assert_bit_equal_and_read_only(make_point_mass(size, index), raw)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_table_slot_probabilities(data):
    n = data.draw(st.integers(1, 12))
    table = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=60))
    raw_q = data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-9, 1e6)), min_size=len(table), max_size=len(table)
    ).filter(lambda w: sum(w) > 0.0))
    q = ProbabilityVector(raw_q)
    raw = [0.0] * n  # np.bincount adds the weights in key order, as this loop does
    for key, slot in enumerate(table):
        raw[slot] += float(q.weights[key])
    p = slot_probabilities(q, HashModel.from_table(table, n))
    assert_bit_equal_and_read_only(p, raw)
    assert not np.shares_memory(p.weights, q.weights)


# A q from each builder, or from the checked constructor on raw nonnegative weights.
key_distributions = st.one_of(
    st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1e6)), min_size=1, max_size=60)
    .filter(lambda w: sum(w) > 0.0).map(ProbabilityVector),
    sizes.map(make_uniform),
    st.builds(make_zipf, sizes, st.floats(0.0, 40.0)),
    st.builds(make_restricted_uniform, st.integers(10, 300), st.floats(0.1, 1.0)),
    sizes.flatmap(lambda size: st.builds(make_point_mass, st.just(size), st.integers(0, size - 1))),
)


def assert_identity_branch_normalises_a_copy(q):
    before = q.weights.tobytes()
    p = slot_probabilities(q, HashModel.identity(len(q)))
    assert_bit_equal_and_read_only(p, q.weights)
    assert not np.shares_memory(p.weights, q.weights)
    assert q.weights.tobytes() == before
    return p


@settings(max_examples=150, deadline=None)
@given(q=key_distributions)
def test_identity_slot_probabilities(q):
    assert_identity_branch_normalises_a_copy(q)


def test_identity_slot_probabilities_renormalise():
    # Seven equal weights of 1/7 sum to 0.9999999999999998, so dividing them by
    # that sum changes bits: p is not q's weights passed through.
    q = ProbabilityVector([1.0] * 7)
    assert float(q.weights.sum()) != 1.0
    p = assert_identity_branch_normalises_a_copy(q)
    assert p.weights.tobytes() != q.weights.tobytes()
