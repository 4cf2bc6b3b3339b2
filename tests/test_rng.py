"""Bulk stream seeding against numpy's own SeedSequence → PCG64 seeding."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from cqakit.rng import make_rng, stream_states, streams

# seeds on both sides of the 32- and 64-bit word boundaries, and any others
seeds = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 5]) | st.integers(0, 2**140)
stream_ids = st.sampled_from([0, 1, 2**32 - 1]) | st.integers(0, 2**32 - 1)


@st.composite
def stream_keys(draw):
    """An ``(n, m)`` list of stream-id rows: n may be 0, m runs from 0 to 3."""
    width = draw(st.integers(0, 3))
    return draw(st.lists(st.lists(stream_ids, min_size=width, max_size=width), max_size=6)), width


def as_matrix(keys) -> np.ndarray:
    rows, width = keys
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


@settings(max_examples=300)
@given(seeds, stream_keys())
@example(0, ([[0, 0]], 2))
@example(2**32 - 1, ([[0, 0], [0, 1], [1, 0]], 2))
@example(2**32, ([[57, 0], [0, 2**32 - 1]], 2))
@example(2**64 + 5, ([[0, 0], [3, 7]], 2))
@example(5, ([[], []], 0))  # no stream ids: make_rng(seed)
def test_bulk_stream_states_match_numpy_seeding(seed, keys):
    got = [{"state": state, "inc": inc} for state, inc in stream_states(seed, as_matrix(keys))]
    assert got == [make_rng(seed, *row).bit_generator.state["state"] for row in keys[0]]


@settings(max_examples=200)
@given(seeds, stream_keys(), st.lists(st.integers(1, 2**40), min_size=1, max_size=5), st.integers(0, 9))
def test_a_reused_generator_draws_as_a_fresh_one(seed, keys, bounds, size):
    # an odd number of 32-bit draws leaves a buffered half word in the bit
    # generator: setting the next row's state must drop it
    for row, rng in zip(keys[0], streams(seed, as_matrix(keys))):
        fresh = make_rng(seed, *row)
        for bound in bounds:
            assert rng.integers(bound) == fresh.integers(bound)
        assert rng.permutation(size).tolist() == fresh.permutation(size).tolist()
        assert rng.integers(2**31, size=3).tolist() == fresh.integers(2**31, size=3).tolist()


@pytest.mark.parametrize("seed,ids", [
    (-1, [[0, 0]]),
    (0, [[-1, 0]]),
    (0, [[0, 2**32]]),
    (0, [0, 1]),  # one row of ids, not a matrix
])
def test_stream_states_refuse_what_they_cannot_hash_alike(seed, ids):
    with pytest.raises(ValueError, match="seed >= 0"):
        next(stream_states(seed, ids))
