"""Counter-based RNG and CSR kernel tests.

numpy's compiled Philox4x64-10 is pinned to a plain-int transcription of
the algorithm and to the published known-answer vectors, and the first
bits of one noise block are pinned: every downstream reproducibility
guarantee rests on these draws, and numpy does not promise that its
``Generator`` streams stay the same across versions.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from setd import kernels, sparse
from setd.sparse import SparseOperator

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _philox4x64_plain(key, counter):
    # plain-int transcription of Philox4x64-10 (Salmon et al., SC'11)
    k0, k1 = key
    c0, c1, c2, c3 = counter
    for _ in range(10):
        p0 = 0xD2E7470EE14C6C93 * c0
        p1 = 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
        k0 = (k0 + 0x9E3779B97F4A7C15) & _MASK64
        k1 = (k1 + 0xBB67AE8584CAA73B) & _MASK64
    return c0, c1, c2, c3


def _numpy_philox_words(key, counter, nwords=4):
    """The first ``nwords`` words numpy's Philox gives from ``counter`` on.

    numpy increments the 256-bit counter (word 0 lowest) before each
    4-word output, so it is started one below the counter asked for.
    """
    start = (sum(w << (64 * n) for n, w in enumerate(counter)) - 1) % 2 ** 256
    bitgen = np.random.Philox(key=key[0] | (key[1] << 64), counter=start)
    return tuple(int(w) for w in bitgen.random_raw(nwords))


# Known-answer vectors for philox4x64-10 from the reference distribution
# of the algorithm (counter words c0..c3, key words k0..k1 -> four words).
PHILOX_KAT = [
    ((0, 0, 0, 0),
     (0, 0),
     (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)),
    ((_MASK64, _MASK64, _MASK64, _MASK64),
     (_MASK64, _MASK64),
     (0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)),
    ((0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89),
     (0x452821E638D01377, 0xBE5466CF34E90C6C),
     (0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6)),
]


@pytest.mark.parametrize("counter,key,expected", PHILOX_KAT)
def test_philox_known_answers(counter, key, expected):
    assert _philox4x64_plain(key, counter) == expected
    assert _numpy_philox_words(key, counter) == expected


def test_philox_vectorized_matches_scalar():
    # numpy's compiled generator, eight words per call, against the plain
    # rounds at random keys and counters, and at the block layout's key
    # k0 | k1 << 32 and counters (c, step, stream, 0)
    rng = np.random.default_rng(0)

    def words(n):
        return tuple(int(w) for w in rng.integers(0, _MASK64, size=n, dtype=np.uint64))

    cases = [(words(2), words(4)) for _ in range(20)]
    k0, k1 = kernels.derive_key(20240901, 3)
    cases += [((k0 | (k1 << 32), 0), (0, step, stream, 0))
              for step in (0, 1, 2**63, _MASK64) for stream in (0, 1)]
    for key, counter in cases:
        nxt = (counter[0] + 1, *counter[1:])  # word 0 < 2^64 - 1: no carry
        want = _philox4x64_plain(key, counter) + _philox4x64_plain(key, nxt)
        assert _numpy_philox_words(key, counter, 8) == want


def test_derive_key_distinct_and_stable():
    keys = {kernels.derive_key(seed, r) for seed in range(5) for r in range(5)}
    assert len(keys) == 25  # no collisions among small seeds/realizations
    assert kernels.derive_key(42, 3) == kernels.derive_key(42, 3)
    with pytest.raises(ValueError):
        kernels.derive_key(1, -1)


def test_normal_block_pure_function_of_counters():
    a = kernels.normal_block(1, 2, 8, 8, 5, 0)
    b = kernels.normal_block(1, 2, 8, 8, 5, 0)
    np.testing.assert_array_equal(a, b)
    # different step / stream / key each decorrelate completely
    assert not np.array_equal(a, kernels.normal_block(1, 2, 8, 8, 6, 0))
    assert not np.array_equal(a, kernels.normal_block(1, 2, 8, 8, 5, 1))
    assert not np.array_equal(a, kernels.normal_block(1, 3, 8, 8, 5, 0))
    # steps fill a whole 64-bit counter word, and numpy integer inputs draw
    # the same bits as Python ints
    high = [kernels.normal_block(1, 2, 8, 8, s, 0) for s in (2**63, 2**64 - 1)]
    assert not np.array_equal(high[0], high[1])
    assert not any(np.array_equal(a, h) for h in high)
    np.testing.assert_array_equal(
        high[1], kernels.normal_block(np.uint32(1), np.uint32(2), 8, 8, np.uint64(2**64 - 1), 0))
    np.testing.assert_array_equal(
        a, kernels.normal_block(np.int64(1), np.uint32(2), 8, 8, np.int64(5), np.int64(0)))


def test_normal_block_moments():
    # 200 blocks of 32x32 = 204800 draws; mean ~ N(0, 1/n), fourth moment ~ 3
    draws = np.concatenate([
        kernels.normal_block(*kernels.derive_key(7, r), 32, 32, 0, 0).ravel()
        for r in range(200)
    ])
    n = draws.size
    assert abs(draws.mean()) < 4.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)
    assert abs(np.mean(draws**4) - 3.0) < 0.1


# First entries of normal_block(*derive_key(20240901, 3), n1, n2, 7, 0) in
# row-major order: a draw is fixed by its lattice position, so every shape
# starts with the same bits
PINNED_FIRST = ['-0x1.ab76593d5f211p-3', '-0x1.64ed0206e399dp+0',
                '-0x1.1a84d255501f9p+0', '0x1.c44986b2c8c12p-3']


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 7), (65, 65), (101, 101)])
def test_normal_block_pinned_bits(shape):
    # fails if numpy changes Philox or its normal sampler, or if the block
    # layout changes: every report number would move
    k0, k1 = kernels.derive_key(20240901, 3)
    got = kernels.normal_block(k0, k1, *shape, 7, 0)
    assert got.shape == shape and got.dtype == np.float64
    assert got.flags.c_contiguous
    first = got.ravel()[:len(PINNED_FIRST)]
    assert [float(x).hex() for x in first] == PINNED_FIRST[:first.size]
    flat = kernels.normal_block(k0, k1, 1, got.size, 7, 0)
    assert flat.tobytes() == got.tobytes()


def test_csr_matvec_matches_scipy():
    # an unstructured operator takes scipy's compiled CSR kernel, which
    # gives the bits of scipy's own product
    rng = np.random.default_rng(3)
    A = sp.random(120, 120, density=0.05, random_state=rng, format="csr")
    x = rng.standard_normal(120)
    op = SparseOperator(A)
    assert op.add_product.func is sparse._csr_matvec
    assert op.matvec(x).tobytes() == (op.to_scipy() @ x).tobytes()


def _splitmix64_plain(x):
    # plain-int transcription of the reference algorithm (next() from state x)
    mask = 0xFFFFFFFFFFFFFFFF
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_splitmix64_matches_plain_int_reference():
    # exercises numpy-uint64 wraparound against exact integer arithmetic
    for x in [0, 1, 1234567, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]:
        assert int(kernels.splitmix64(x)) == _splitmix64_plain(x)
