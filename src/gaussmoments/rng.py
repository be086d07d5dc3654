"""Seeded, versioned PRNG for reproducible rank experiments.

All randomness in the package flows from a single 64-bit seed through
SplitMix64 (Steele, Lea & Flood).  The generator is implemented here rather
than taken from ``random`` so that streams are bit-stable across Python
versions; its name and version are echoed into every output header.

Per-task substreams are derived with :func:`derive_seed`, which folds a tuple
of integer words (n, d, k, trial index, ...) into the master seed.  Results
of a census therefore do not depend on the order in which rows are computed.
"""

from __future__ import annotations

import numpy as np

PRNG_NAME = "splitmix64-v1"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Draws per numpy step of SplitMix64.below_array: bounds its temporaries.
_CHUNK = 1 << 20


def _mix(z):
    """The SplitMix64 output of state z, a Python int or a numpy uint64
    array (whose products wrap mod 2^64 as the mask does)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream; deterministic function of the 64-bit seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def below_array(self, n: int, count: int):
        """``count`` uniform integers in [0, n), 1 <= n < 2^64, as a numpy
        uint64 array, by rejection sampling (no modulo bias): each output x
        of :meth:`next_u64` below the largest multiple of n up to 2^64 gives
        x mod n.  Each step draws a chunk of at most as many outputs as
        values are missing, so the stream stops after the last one kept."""
        if not 1 <= n < 1 << 64:
            raise ValueError("below_array() requires 1 <= n < 2^64")
        limit = (1 << 64) - (1 << 64) % n
        out = np.empty(count, dtype=np.uint64)
        filled = 0
        while filled < count:
            size = min(count - filled, _CHUNK)
            states = np.arange(1, size + 1, dtype=np.uint64)
            states *= _GAMMA
            states += self._state
            self._state = (self._state + size * _GAMMA) & _MASK64
            z = _mix(states)
            if limit < 1 << 64:
                z = z[z < limit]
            z %= n
            out[filled:filled + len(z)] = z
            filled += len(z)
        return out


def derive_seed(seed: int, *words: int) -> int:
    """Derive a substream seed from the master seed and integer words."""
    acc = SplitMix64(seed).next_u64()
    for w in words:
        acc = SplitMix64(acc ^ (w & _MASK64)).next_u64()
    return acc
