"""Counter-based noise kernels.

Normal blocks come from numpy's compiled Philox4x64-10, keyed by SplitMix64
from ``(seed, realization)``, which makes every noise block a pure function
of ``(seed, realization, step, stream)`` and its shape. That keying is what
guarantees bit-exact path refinement and makes results independent of how
realizations are scheduled across workers. Within a block a draw is fixed
by its position, so changing the block's shape (the truncation, or the
grid of a class block) redraws every entry. The tests pin the first bits
of one block, so a change to numpy's normal sampler fails loudly.
"""

from __future__ import annotations

import numpy as np

from .errors import check_int


def splitmix64(x):
    """One SplitMix64 scramble of a 64-bit integer (returns uint64).

    Wraparound is the point; numpy's overflow warning is silenced.
    """
    with np.errstate(over="ignore"):
        x = np.uint64(x & 0xFFFFFFFFFFFFFFFF)
        x = x + np.uint64(0x9E3779B97F4A7C15)
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def derive_key(seed, realization):
    """Derive the Philox key pair (k0, k1) for one (seed, realization).

    Parameters
    ----------
    seed : int
        Master seed, any integer (taken mod 2^64).
    realization : int
        Realization index >= 0 (taken mod 2^64).

    Returns
    -------
    (int, int)
        Two 32-bit key words.
    """
    seed = check_int(seed, "seed")
    realization = check_int(realization, "realization", 0)
    h = splitmix64(seed & 0xFFFFFFFFFFFFFFFF)
    mixed = splitmix64(int(h) ^ ((realization * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF))
    return int(mixed) & 0xFFFFFFFF, int(mixed) >> 32


def normal_block(k0, k1, n1, n2, step, stream):
    """Standard-normal draws for all entries (i, j), i < n1, j < n2.

    One compiled draw: numpy's Philox4x64-10 with the 64-bit key
    ``k0 | k1 << 32`` and counter words 1-2 set to ``(step, stream)``, read
    by ``Generator.standard_normal`` in row-major order. ``stream``
    separates the mode draws (0), the exact reference's remainder draws (1)
    and a site lattice's alias-class draws (2). The block
    is a pure function of (key, n1, n2, step, stream); the draw at [i, j]
    is fixed by its flat position i * n2 + j, so a block of another shape
    redraws every entry. A block advances counter word 0 fewer than 2^64
    times, so no two (step, stream) blocks share a counter.
    """
    # key and counter go in as Python ints (counter word 0 lowest): numpy
    # converts a list holding a word >= 2^63 through float64, and a numpy
    # integer shifted past its width loses its high bits
    key = int(k0) | (int(k1) << 32)
    counter = (int(stream) << 128) | (int(step) << 64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter)).standard_normal((n1, n2))

