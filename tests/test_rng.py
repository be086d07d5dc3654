"""The seeded SplitMix64 stream: numpy draws against the scalar ones
(tests/util.below)."""

import pytest

from gaussmoments import rng as R
from gaussmoments.rng import SplitMix64
from util import PRIMES, below

# just above 2^63: 2^64 mod n = 2^64 - n, so about half the outputs are
# rejected
HALF_REJECTED = 2 ** 63 + 25


@pytest.mark.parametrize("n", (1, 3) + PRIMES + (HALF_REJECTED, 2 ** 64 - 1))
@pytest.mark.parametrize("chunk", (R._CHUNK, 7))
def test_below_array_uses_the_stream_as_below_does(monkeypatch, n, chunk):
    # a small chunk makes the draws of one call span many numpy steps
    monkeypatch.setattr(R, "_CHUNK", chunk)
    for seed in (0, 1, 2016, 2 ** 64 - 1):
        scalar, vector = SplitMix64(seed), SplitMix64(seed)
        for count in (0, 1, 100):
            want = [below(scalar, n) for _ in range(count)]
            assert vector.below_array(n, count).tolist() == want, seed
            # and leaves the stream where the calls of below leave it
            assert vector.next_u64() == scalar.next_u64()


def test_half_the_draws_are_rejected_just_above_2_to_the_63():
    stream = SplitMix64(9)
    start = stream._state
    values = stream.below_array(HALF_REJECTED, 1000)
    # each draw adds _GAMMA to the state
    draws = (stream._state - start) * pow(R._GAMMA, -1, 2 ** 64) % 2 ** 64
    assert 1800 < draws < 2200
    assert values.max() < HALF_REJECTED


@pytest.mark.parametrize("n", (0, 2 ** 64))
def test_below_array_range(n):
    with pytest.raises(ValueError):
        SplitMix64(1).below_array(n, 1)
