"""Low-level numerical kernels in plain numpy.

Two families live here:

* a CSR matrix-vector product (the benchmark and test reference for the
  scipy product that every phi action's Taylor terms call),
* counter-based normal draws (Philox4x32-10), which make every noise sample
  a pure function of ``(seed, realization, mode_i, mode_j, step, stream)``.
  That keying is what guarantees bit-exact path refinement and makes results
  independent of how realizations are scheduled across workers.
  ``philox4x32`` and ``normals_from_words`` are the plain reference;
  ``normal_block`` gives the same bits for a whole mode lattice while
  allocating only its working words, since a block's counters vary along
  one axis each.
"""

from __future__ import annotations

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT21 = np.uint64(21)
_SHIFT11 = np.uint64(11)
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_TWO_PI = 6.283185307179586
_INV_2_53 = 2.0 ** -53


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
        Master seed, any Python int.
    realization : int
        Realization index >= 0.

    Returns
    -------
    (int, int)
        Two 32-bit key words.
    """
    if realization < 0:
        raise ValueError("realization index must be >= 0")
    h = splitmix64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    mixed = splitmix64(int(h) ^ ((realization * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF))
    return int(mixed) & 0xFFFFFFFF, int(mixed) >> 32


def philox4x32(k0, k1, c0, c1, c2, c3):
    """Philox4x32-10 block function (vectorized numpy reference).

    All inputs are 32-bit words (scalars or equal-shape arrays). Returns the
    four 32-bit output words as uint64 arrays holding 32-bit values. This is
    the reference used by the known-answer tests and by the block oracle
    test; ``normal_block`` inlines the same rounds (on the counter vectors
    first, then in place), so its bits must match it.
    """
    c0 = np.asarray(c0, dtype=np.uint64)
    c1 = np.asarray(c1, dtype=np.uint64)
    c2 = np.asarray(c2, dtype=np.uint64)
    c3 = np.asarray(c3, dtype=np.uint64)
    k0 = np.uint64(k0)
    k1 = np.uint64(k1)
    for _ in range(10):
        p0 = _M0 * c0
        p1 = _M1 * c2
        hi0 = p0 >> np.uint64(32)
        lo0 = p0 & _MASK32
        hi1 = p1 >> np.uint64(32)
        lo1 = p1 & _MASK32
        c0 = hi1 ^ c1 ^ k0
        c1 = lo1
        c2 = hi0 ^ c3 ^ k1
        c3 = lo0
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return c0, c1, c2, c3


def normals_from_words(x0, x1, x2, x3):
    """Map four Philox output words to one standard normal (Box-Muller).

    Two 64-bit uniforms come from the four 32-bit words;
    (u >> 11) + 0.5 scaled by 2^-53 lies strictly inside (0, 1).
    """
    ua = (x0 << np.uint64(32)) | x1
    ub = (x2 << np.uint64(32)) | x3
    u1 = ((ua >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53
    u2 = ((ub >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)


def normal_block(k0, k1, n1, n2, step, stream):
    """Standard-normal draws for all modes (i, j), i < n1, j < n2.

    The draw at [i, j] is a pure function of (key, i, j, step, stream);
    ``stream`` separates the main Wiener draws (0) from auxiliary draws (1).
    Bit-identical to ``normals_from_words(*philox4x32(k0, k1, i, j, step,
    stream))``, but built for the counter's structure: c0 = i varies along
    rows, c1 = j along columns, c2 = step and c3 = stream are scalars. So
    rounds 1-2 run on vectors and round 3 on one full word, and rounds 4-10
    and Box-Muller run in place on four (n1, n2) words and two product
    buffers, the second of which becomes the result.
    """
    k0 = np.uint64(k0)
    k1 = np.uint64(k1)
    # round 1: p0 = M0 * i (rows), p1 = M1 * step (scalar)
    p0 = _M0 * np.arange(n1, dtype=np.uint64)
    p1 = _M1 * np.uint64(step)
    c0 = (p1 >> _SHIFT32) ^ np.arange(n2, dtype=np.uint64) ^ k0   # columns
    c1 = p1 & _MASK32                                               # scalar
    c2 = (p0 >> _SHIFT32) ^ np.uint64(stream) ^ k1                  # rows
    c3 = p0 & _MASK32                                               # rows
    k0 = (k0 + _W0) & _MASK32
    k1 = (k1 + _W1) & _MASK32
    # round 2: p0 = M0 * c0 (columns), p1 = M1 * c2 (rows)
    p0 = _M0 * c0
    p1 = _M1 * c2
    c0 = (p1 >> _SHIFT32) ^ c1 ^ k0                                 # rows
    c1 = p1 & _MASK32                                               # rows
    w = np.empty((4, n1, n2), dtype=np.uint64)
    w0, w1, w2, w3 = w
    np.bitwise_xor(c3[:, None], ((p0 >> _SHIFT32) ^ k1)[None, :], out=w2)
    c3 = p0 & _MASK32                                               # columns
    k0 = (k0 + _W0) & _MASK32
    k1 = (k1 + _W1) & _MASK32
    # round 3: p0 = M0 * c0 (rows), p1 = M1 * w2 (full)
    f0 = np.empty((n1, n2), dtype=np.float64)
    f1 = np.empty((n1, n2), dtype=np.float64)
    P0 = f0.view(np.uint64)
    P1 = f1.view(np.uint64)
    p0 = _M0 * c0
    np.multiply(w2, _M1, out=P1)
    np.right_shift(P1, _SHIFT32, out=w0)
    w0 ^= (c1 ^ k0)[:, None]
    np.bitwise_and(P1, _MASK32, out=w1)
    np.bitwise_xor(((p0 >> _SHIFT32) ^ k1)[:, None], c3[None, :], out=w2)
    w3[...] = (p0 & _MASK32)[:, None]
    k0 = (k0 + _W0) & _MASK32
    k1 = (k1 + _W1) & _MASK32
    # rounds 4-10 in place; P0 and P1 hold the two 64-bit products
    for _ in range(7):
        np.multiply(w0, _M0, out=P0)
        np.multiply(w2, _M1, out=P1)
        np.right_shift(P1, _SHIFT32, out=w0)
        w0 ^= w1
        w0 ^= k0
        np.bitwise_and(P1, _MASK32, out=w1)
        np.right_shift(P0, _SHIFT32, out=w2)
        w2 ^= w3
        w2 ^= k1
        np.bitwise_and(P0, _MASK32, out=w3)
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    # Box-Muller: (x0 << 32 | x1) >> 11 == (x0 << 21) | (x1 >> 11) < 2^53,
    # so the int64 view converts to float64 exactly (and faster than uint64)
    w0 <<= _SHIFT21
    w1 >>= _SHIFT11
    w0 |= w1
    w2 <<= _SHIFT21
    w3 >>= _SHIFT11
    w2 |= w3
    np.add(w0.view(np.int64), 0.5, out=f0)
    f0 *= _INV_2_53
    np.log(f0, out=f0)
    f0 *= -2.0
    np.sqrt(f0, out=f0)
    np.add(w2.view(np.int64), 0.5, out=f1)
    f1 *= _INV_2_53
    f1 *= _TWO_PI
    np.cos(f1, out=f1)
    f1 *= f0
    return f1


def csr_matvec_numpy(indptr, indices, data, x):
    """y = A @ x for CSR arrays; row entries accumulate left-to-right."""
    n = indptr.shape[0] - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    return np.bincount(rows, weights=data * x[indices], minlength=n)
