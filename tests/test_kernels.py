"""Counter-based RNG and CSR kernel tests.

The Philox4x32-10 implementation is pinned to the published known-answer
vectors, and the numba/numpy backends are required to agree bit-for-bit:
every downstream reproducibility guarantee rests on these two facts.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from setd import kernels

# Known-answer vectors for philox4x32-10 from the reference distribution
# of the algorithm (counter words c0..c3, key words k0..k1 -> four words).
PHILOX_KAT = [
    ((0x00000000, 0x00000000, 0x00000000, 0x00000000),
     (0x00000000, 0x00000000),
     (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
     (0xFFFFFFFF, 0xFFFFFFFF),
     (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
     (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


@pytest.mark.parametrize("counter,key,expected", PHILOX_KAT)
def test_philox_known_answers(counter, key, expected):
    c0, c1, c2, c3 = counter
    k0, k1 = key
    out = kernels.philox4x32(k0, k1, c0, c1, c2, c3)
    assert tuple(int(w) for w in out) == expected


def test_philox_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    c = rng.integers(0, 2**32, size=(4, 50), dtype=np.uint64)
    k0, k1 = 0xDEADBEEF, 0x12345678
    batch = kernels.philox4x32(k0, k1, c[0], c[1], c[2], c[3])
    for idx in range(50):
        single = kernels.philox4x32(k0, k1, c[0, idx], c[1, idx], c[2, idx], c[3, idx])
        assert all(int(b[idx]) == int(s) for b, s in zip(batch, single))


def test_derive_key_distinct_and_stable():
    keys = {kernels.derive_key(seed, r) for seed in range(5) for r in range(5)}
    assert len(keys) == 25  # no collisions among small seeds/realizations
    assert kernels.derive_key(42, 3) == kernels.derive_key(42, 3)
    with pytest.raises(ValueError):
        kernels.derive_key(1, -1)


def test_normal_block_pure_function_of_counters():
    a = kernels.normal_block_numpy(1, 2, 8, 8, 5, 0)
    b = kernels.normal_block_numpy(1, 2, 8, 8, 5, 0)
    np.testing.assert_array_equal(a, b)
    # different step / stream / key each decorrelate completely
    assert not np.array_equal(a, kernels.normal_block_numpy(1, 2, 8, 8, 6, 0))
    assert not np.array_equal(a, kernels.normal_block_numpy(1, 2, 8, 8, 5, 1))
    assert not np.array_equal(a, kernels.normal_block_numpy(1, 3, 8, 8, 5, 0))


def test_normal_block_moments():
    # 200 blocks of 32x32 = 204800 draws; mean ~ N(0, 1/n), fourth moment ~ 3
    draws = np.concatenate([
        kernels.normal_block_numpy(*kernels.derive_key(7, r), 32, 32, 0, 0).ravel()
        for r in range(200)
    ])
    n = draws.size
    assert abs(draws.mean()) < 4.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)
    assert abs(np.mean(draws**4) - 3.0) < 0.1


def _oracle_block(k0, k1, n1, n2, step, stream):
    i = np.repeat(np.arange(n1, dtype=np.uint64), n2)
    j = np.tile(np.arange(n2, dtype=np.uint64), n1)
    words = kernels.philox4x32(k0, k1, i, j, step, stream)
    return kernels.normals_from_words(*words).reshape(n1, n2)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 7), (65, 65), (101, 101)])
def test_normal_block_numpy_matches_reference_rounds(shape):
    # the in-place, counter-structured kernel against the plain Philox
    # rounds and Box-Muller map, byte for byte
    keys = [(0, 0), (0xFFFFFFFF, 0xFFFFFFFF), (0xDEADBEEF, 0x12345678),
            kernels.derive_key(20240901, 3)]
    for k0, k1 in keys:
        for step in (0, 1, 2**32 - 1):
            for stream in (0, 1):
                got = kernels.normal_block_numpy(k0, k1, *shape, step, stream)
                want = _oracle_block(k0, k1, *shape, step, stream)
                assert got.shape == shape and got.dtype == np.float64
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")
def test_normal_block_backends_bit_identical():
    for step, stream in [(0, 0), (3, 1), (1000, 0)]:
        a = kernels.normal_block_numba(11, 22, 16, 12, step, stream)
        b = kernels.normal_block_numpy(11, 22, 16, 12, step, stream)
        np.testing.assert_array_equal(a, b)


def test_csr_matvec_matches_scipy():
    rng = np.random.default_rng(3)
    A = sp.random(120, 120, density=0.05, random_state=rng, format="csr")
    x = rng.standard_normal(120)
    y = kernels.csr_matvec_numpy(A.indptr, A.indices, A.data, x)
    np.testing.assert_allclose(y, A @ x, rtol=1e-13, atol=1e-15)


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")
def test_csr_matvec_backends_agree():
    rng = np.random.default_rng(4)
    A = sp.random(200, 200, density=0.03, random_state=rng, format="csr")
    x = rng.standard_normal(200)
    a = kernels.csr_matvec_numba(A.indptr, A.indices, A.data, x)
    b = kernels.csr_matvec_numpy(A.indptr, A.indices, A.data, x)
    # row accumulation order differs (sequential vs bincount), so bits may
    # differ in the last ulp; demand near-exact agreement
    np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-300)


def test_env_flag_selects_numpy_backend():
    code = (
        "import setd.kernels as k; "
        "assert not k.USING_NUMBA; "
        "assert k.csr_matvec is k.csr_matvec_numpy; "
        "assert k.normal_block is k.normal_block_numpy; "
        "print('fallback ok')"
    )
    env = dict(os.environ, SETD_DISABLE_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "fallback ok" in out.stdout


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
