"""The paper's invariants as properties over generated inputs.

Hash tables, key sequences, access patterns and weights are generated, so
the identities hold beyond the hand-picked points of the other tests:

* the slot-count pair count equals the O(m^2) brute-force count;
* changing keys moves little mass: sum_i |k_i(x) - k_i(y)| <= 2 #{j : x_j != y_j};
* the exact average search time never exceeds its multiplicity proxy;
* ||p||^2 lies in [1/n, 1] for every distribution over n outcomes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from chainhash.estimator import brute_force_collision_pairs, collision_pairs
from chainhash.experiments import slot_count_perturbation
from chainhash.hashing import HashModel, count_slots, slot_probabilities
from chainhash.probability import KeySequence, ProbabilityVector, norm_sq
from chainhash.search_time import average_search_time, search_time_upper

# Rounding in the normalisation and the dot product, relative to 1/n.
NORM_TOL = 1e-12


@st.composite
def hash_models(draw):
    """A table of 1..40 keys into 1..12 slots, or the identity on 1..12 slots."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return HashModel.identity(n)
    table = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40))
    return HashModel.from_table(table, n)


def key_lists(h, min_size=0, max_size=60):
    return st.lists(st.integers(0, h.universe - 1), min_size=min_size, max_size=max_size)


weights = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-9, 1e6, allow_nan=False, allow_infinity=False)),
    min_size=1,
    max_size=200,
).filter(lambda w: sum(w) > 0.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pair_count_equals_brute_force(data):
    h = data.draw(hash_models())
    x = KeySequence(data.draw(key_lists(h)), h.universe)
    assert collision_pairs(count_slots(x, h)) == brute_force_collision_pairs(x, h)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_perturbation_inequality(data):
    h = data.draw(hash_models())
    keys = data.draw(key_lists(h, min_size=1))
    # Replace a generated subset of positions (possibly with the same key).
    changes = data.draw(
        st.dictionaries(st.integers(0, len(keys) - 1), st.integers(0, h.universe - 1))
    )
    other = [changes.get(j, key) for j, key in enumerate(keys)]
    check = slot_count_perturbation(
        KeySequence(keys, h.universe), KeySequence(other, h.universe), h
    )
    assert check.rhs == 2 * sum(a != b for a, b in zip(keys, other))
    assert check.holds and check.lhs <= check.rhs


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exact_search_time_within_proxy(data):
    h = data.draw(hash_models())
    v = ProbabilityVector(
        data.draw(st.lists(st.floats(0.0, 1e6), min_size=h.slots, max_size=h.slots).filter(sum))
    )
    x = KeySequence(data.draw(key_lists(h)), h.universe)
    assert 0.0 <= average_search_time(v, x, h) <= search_time_upper(v, count_slots(x, h))


@settings(max_examples=200, deadline=None)
@given(w=weights, data=st.data())
def test_norm_sq_between_one_over_n_and_one(w, data):
    q = ProbabilityVector(w)
    table = data.draw(st.lists(st.integers(0, 15), min_size=len(w), max_size=len(w)))
    p = slot_probabilities(q, HashModel.from_table(table, 16))
    for pv in (q, p):
        assert (1.0 - NORM_TOL) / len(pv) <= norm_sq(pv) <= 1.0 + NORM_TOL
