"""The one-pass block seeder against numpy's SeedSequence, stream by stream.

``stream_rng(seed, k)`` is the specification of trial k's stream. The
Monte-Carlo study builds a block's generators with ``_stream_rngs``, whose
seed words come from ``_stream_seed_words``: it continues numpy's own pool of
the seed with each index's spawn-key words in vectorized uint32 arithmetic,
after as many hash steps as the seed's word count implies, so seeds at the
edges of each word count are its edges. Both must reproduce numpy bit for
bit, and so must the block fill that the study and ``draw`` share.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsriccati as ws
from wsriccati import ConfigurationError
from wsriccati.ensemble import _stream_rngs, _stream_seed_words

from test_simulate_kernel import PROPERTY, distributions, reference_draw

#: Seeds of one to seven 32-bit words, at the edges of each word count.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 1, 2**96, 2**128 - 1, 2**128 + 5,
              2**160 - 1, 2**160, 2**192]

#: Index ranges at the block edges (511/512/513), at the switch to a two-word
#: spawn key (2**32), and at the largest accepted index (2**64 - 1).
EDGE_RANGES = [(0, 1), (0, 513), (511, 514), (1023, 1025), (2**32 - 3, 2**32 + 3),
               (2**63 - 1, 2**63 + 1), (2**64 - 4, 2**64)]


def numpy_words(seed, start, stop):
    rows = [
        np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(4, np.uint64)
        for k in range(start, stop)
    ]
    return np.array(rows, dtype=np.uint64).reshape(-1, 4)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("start, stop", EDGE_RANGES)
def test_seed_words_match_seed_sequence_at_edges(seed, start, stop):
    got = _stream_seed_words(seed, start, stop)
    assert got.dtype == np.uint64
    assert np.array_equal(got, numpy_words(seed, start, stop))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**200),
    st.one_of(st.integers(0, 2**12), st.integers(2**32 - 40, 2**32 + 40),
              st.integers(0, 2**64 - 40)),
    st.integers(0, 40),
)
def test_seed_words_match_seed_sequence(seed, start, count):
    got = _stream_seed_words(seed, start, start + count)
    assert np.array_equal(got, numpy_words(seed, start, start + count))


def test_empty_range_and_numpy_integer_seed():
    assert _stream_seed_words(3, 10, 10).shape == (0, 4)
    assert np.array_equal(_stream_seed_words(np.int64(9), 0, 3), numpy_words(9, 0, 3))


@pytest.mark.parametrize(
    "seed, start, stop",
    [(-1, 0, 4), (0, -1, 2), (0, 5, 4), (0, 2**64 - 1, 2**64 + 1)],
)
def test_out_of_range_seed_or_indices_rejected(seed, start, stop):
    with pytest.raises(ConfigurationError):
        _stream_seed_words(seed, start, stop)


def test_block_generators_cannot_spawn():
    (rng,) = _stream_rngs(5, 0, 1)
    with pytest.raises(TypeError):
        rng.spawn(1)
    with pytest.raises(ValueError):
        rng.bit_generator.seed_seq.generate_state(8, np.uint32)


@PROPERTY
@given(
    distributions(),
    st.sampled_from([0, 1, 7, 300]),
    st.integers(0, 2**70),
    st.sampled_from([0, 509, 2**32 - 2]),
)
def test_block_fill_matches_stream_rng_draws(drawn, size, seed, start):
    # Five trials of one block, filled at once, against one draw per stream.
    dist, _ = drawn
    out = np.empty((5, dist.dim, size))
    dist._fill(_stream_rngs(seed, start, start + 5), out)
    for k in range(5):
        expected = reference_draw(dist, ws.stream_rng(seed, start + k), size)
        assert np.array_equal(out[k].T, expected)
        assert np.array_equal(dist.draw(ws.stream_rng(seed, start + k), size), expected)
    for k, rng in enumerate(_stream_rngs(seed, start, start + 5)):
        assert np.array_equal(dist.draw(rng, size), out[k].T)


@PROPERTY
@given(distributions(), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_draw_bank_matches_per_component_draws(drawn, size, seed):
    dist, _ = drawn
    n, m = dist.n, dist.m
    bank = ws.draw_bank(dist, size, seed)
    rows = reference_draw(dist, np.random.default_rng(seed), size)
    assert np.array_equal(bank.a, rows[:, : n * n].reshape(size, n, n, order="F"))
    assert np.array_equal(bank.b, rows[:, n * n :].reshape(size, n, m, order="F"))
