"""Phi-function actions: phi0(dt*A) v, phi1(dt*A) v and the fused SETDM1
action phi0(dt*A) u + dt*phi1(dt*A) f.

phi0(z) = exp(z), phi1(z) = (exp(z) - 1)/z with phi1(0) = 1. All three
actions are one call of one core, which computes the first block of

    exp(t [[A, f], [0, 0]]) [u; 1] = phi0(tA) u + t phi1(tA) f

(Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2):488-511, 2011, Theorem 2.1;
Niesen & Wright, ACM TOMS 38(3), 2012, use the same idea in Krylov form),
so A is never inverted (it may be singular, e.g. a Neumann Laplacian) and a
SETDM1 step costs one action. The core states every argument rule, once: A
square, dt finite and >= 0, u and f vectors of A's width whose entries are
finite, read from the max-norms the series takes anyway (each by itself: a
sum may overflow). dt = 0 or an A with no stored entries gives u + dt f,
checked for overflow as the series result is.

The core is uniformization (Jensen, Skand. Aktuarietidskr. 36, 1953), for
every square operator. With lam = max(-min_i a_ii, 0) and
beta = max(|| |A + lam I| ||_inf, lam) (absolute row sums), the matrix
P = (A + lam I)/beta has ||P||_inf <= 1 and 0 <= lam/beta <= 1
(``SparseOperator.uniformized_form``), and with x = h*beta and w_k the
Poisson(x) weights

    exp(h [[A, f], [0, 0]]) [u; 1] = e^{h(beta - lam)} sum_k w_k y_k,
    y_0 = u,  y_k = P y_{k-1} + (lam/beta)^{k-1} f/beta,

the augmented matrix shifted by lam I and divided by beta. Since
||y_k||_inf <= ||u||_inf + k ||f||_inf / beta, the sum stops at the
smallest K with P(N >= K) <= 2^-53, fixed before the first product: no
term norms, no stop test. Its truncation bound is
e^{h(beta - lam)} [P(N > K) ||u||_inf + h P(N >= K) ||f||_inf]. On a
Metzler A (off-diagonal entries >= 0: the upwind-FV generators, and the
P1 generator of diagonal diffusion on these right triangles with lumped
mass, zero Dirichlet rows included) P >= 0, so the series does not
cancel either; P1 advection and a c0 shift (consistent mass) are not
Metzler, and their P has entries of both signs.

An action over [0, t] takes s = max(1, ceil(t(beta - lam))) equal steps
of h = t/s, one series each, so each step's growth factor
e^{h(beta - lam)} is at most e; the last coordinate of [u; 1] stays 1
from step to step. Every study generator has t(beta - lam) <= 1 at its
step lengths and takes one step. Strongly advective, skew or growing
operators take many: their beta - lam is large though ||exp(tA)|| may
not be. The action's bound is the sum over steps of each step's bound,
taken with that step's ||u||_inf.

Each step evaluates its truncated series in Horner form. With
c_k = e^{h(beta - lam)} w_k, r = lam/beta and g = f/beta,
sum_k c_k y_k = sum_m P^m (c_m u + d_m g) with d_K = 0 and
d_m = c_{m+1} + r d_{m+1}, so

    b_K = c_K u,  b_m = c_m u + d_m g + P b_{m+1},  result b_0.

All steps share one set of coefficients and tails, a pure function of
h*beta, the growth factor and r, cached for the last 64 such triples
(``_step_weights``). Each term writes c_m u + d_m g into a buffer the
action owns and then adds P b_{m+1}, read from another, with one call of
P's compiled product kernel (``SparseOperator.add_product``, out += P x:
scipy's diagonal kernel on the study operators' banded P, its CSR kernel
otherwise). Three buffers keep a step's u, b_{m+1} and b_m apart, so no
product allocates and the caller's u and f are never written.

An action may take at most _MAX_PRODUCTS = 550 055 sparse products, s*K.
One that would take more raises KrylovConvergenceError with an error
estimate before any product; a study flags that cell. Nothing configures
it. An action whose result overflows float64 raises the same error,
with an infinite bound, after the first step whose result is not finite;
the series run with numpy's overflow and invalid warnings off, so the
error is the one signal.

``dense_phi`` is the independent dense oracle (n <= 256): Taylor
scaling-and-squaring on the plain or augmented matrix. It shares no code
with the action core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, KrylovConvergenceError, check_real

_UNIT_ROUNDOFF = 2.0 ** -53

# Sparse products one action may take; past it the action raises before
# its first product.
_MAX_PRODUCTS = 550055


@dataclass
class PhiResult:
    """An action's vector, its truncation bound (the sum over its s steps of
    each step's Poisson tail bound), restarts_used = s - 1 and the sparse
    products it took, s*K."""

    vector: np.ndarray
    est_error: float
    restarts_used: int
    products: int


def _poisson_weights(x):
    """Poisson(x) weights w_0..w_K, K the smallest k with P(N >= k) <= 2^-53,
    and the tails P(N >= k) for k = 0 up to past K.

    The weights run outward from the mode m = floor(x) by the ratios
    w_{k+1}/w_k = x/(k+1) and w_{k-1}/w_k = k/x, from w_m = 1, and are then
    normalised to sum 1 (Fox & Glynn, Commun. ACM 31(4), 1988): each weight
    is then good to a few ulps, where e^{k log x - x - lgamma(k+1)} loses
    about ulp(x log x) to cancellation (7e-13 relative at x = 320), and
    nothing underflows for x > 745 as e^-x would. Above
    x + 20 sqrt(x) + 50 the mass is below e^-70 (Bernstein's inequality), so
    the weights stop there. The tails are summed from the top, so they do
    not cancel.
    """
    top = math.ceil(x + 20.0 * math.sqrt(x) + 50.0)
    m = int(x)
    w = np.empty(top + 1)
    w[m] = 1.0
    w[m + 1:] = np.cumprod(x / np.arange(m + 1, top + 1))
    w[:m] = np.cumprod(np.arange(m, 0, -1) / x)[::-1]
    w /= w.sum()
    tail = np.append(np.cumsum(w[::-1])[::-1], 0.0)
    K = int(np.argmax(tail <= _UNIT_ROUNDOFF))
    return w[:K + 1], tail


@lru_cache(maxsize=64)
def _step_weights(x, growth, ratio):
    """One step's Horner coefficients c_k = growth * w_k and
    d_k = c_{k+1} + ratio * d_{k+1}, d_K = 0 (lists), and the tails of the
    Poisson(x) weights: built once per (x, growth, ratio), which every step
    of an action and of a study repeats; 64 entries take about 3 MB for
    x <= 500."""
    w, tail = _poisson_weights(x)
    c = (growth * w).tolist()
    d = [0.0] * len(c)
    for k in range(len(c) - 2, -1, -1):
        d[k] = c[k + 1] + ratio * d[k + 1]
    return c, d, tail


def _action(A, u, f, t):
    """First block of exp(t [[A, f], [0, 0]]) [u; 1]; f None means exp(tA) u.

    The argument rules, then s = max(1, ceil(t(beta - lam))) steps of length
    h = t/s, each one polynomial in P of degree K evaluated in Horner form,
    with no stop test.
    """
    if A.n_rows != A.n_cols:
        raise InvalidArgumentError("phi actions require a square operator")
    t = check_real(t, "dt", 0)
    for v in (u, f):
        if v is not None and np.shape(v) != (A.n_cols,):
            raise InvalidArgumentError(
                f"phi action vector has shape {np.shape(v)}, expected ({A.n_cols},)")
    u = np.ascontiguousarray(u, dtype=np.float64)
    u_norm = float(np.abs(u).max()) if u.size else 0.0
    f_norm = 0.0
    if f is not None:
        f = np.ascontiguousarray(f, dtype=np.float64)
        f_norm = float(np.abs(f).max()) if f.size else 0.0
    # each norm by itself (a sum may overflow); NaN fails < too
    if not (u_norm < math.inf and f_norm < math.inf):
        raise InvalidArgumentError("phi action vectors contain NaN/Inf")
    if t == 0.0 or A.nnz == 0:
        with np.errstate(over="ignore"):
            v = u.copy() if f is None else u + t * f
        if not np.isfinite(v).all():
            raise KrylovConvergenceError("phi action overflowed", est_error=math.inf)
        return PhiResult(v, 0.0, 0, 0)
    if f_norm == 0.0:
        f = None
    P, beta, lam = A.uniformized_form
    r = t * (beta - lam)
    s = max(1, math.ceil(min(r, _MAX_PRODUCTS + 1)))
    h = t / s
    x = h * beta
    # K > x - 1 (N's median is >= x - ln 2): past the ceiling, skip the weights
    if s > _MAX_PRODUCTS or s * (x - 1.0) >= _MAX_PRODUCTS:
        raise KrylovConvergenceError(
            f"phi action needs more than the ceiling of {_MAX_PRODUCTS} products",
            est_error=(math.exp(r) if r < 709.0 else math.inf) * (u_norm + t * f_norm))
    growth = math.exp(h * (beta - lam))
    c, d, tail = _step_weights(x, growth, lam / beta)
    K = len(c) - 1
    if s * K > _MAX_PRODUCTS:
        k = _MAX_PRODUCTS // s
        raise KrylovConvergenceError(
            f"phi action needs {s * K} products, more than the ceiling of {_MAX_PRODUCTS}",
            est_error=s * growth * (tail[k + 1] * u_norm + h * tail[k] * f_norm))
    add_product = P.add_product
    buffers = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    if f is not None:
        g = f / beta
        forcing = np.empty_like(u)
    est = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(s):
            est += growth * (tail[K + 1] * u_norm + h * tail[K] * f_norm)
            # b_K = c_K u, b_m = c_m u + d_m g + P b_{m+1}, each in one of the
            # two buffers that do not hold u; the step's result is b_0
            # (ufunc outputs passed by position: the out= keyword costs
            # about 0.2 us a call, a tenth of a term's numpy work)
            work = [buffer for buffer in buffers if buffer is not u]
            b = np.multiply(u, c[K], work[0])
            for m in range(K - 1, -1, -1):
                term = np.multiply(u, c[m], work[b is work[0]])
                if f is not None:
                    np.add(term, np.multiply(g, d[m], forcing), term)
                add_product(b, term)
                b = term
            u = b
            u_norm = float(np.abs(u).max())
            if not u_norm < math.inf:
                raise KrylovConvergenceError(
                    f"phi action overflowed in step {step + 1} of {s}", est_error=math.inf)
    return PhiResult(u, est, s - 1, s * K)


def phi0_action(A, v, dt):
    """Approximate exp(dt*A) v.

    Parameters
    ----------
    A : SparseOperator, square
    v : array, shape (n,), finite
    dt : float >= 0

    Returns
    -------
    PhiResult
        vector, truncation bound, uniformization steps beyond the first
        (restarts_used) and sparse products.
    """
    return _action(A, v, None, dt)


def phi1_action(A, v, dt):
    """Approximate phi1(dt*A) v without inverting A.

    The first block of exp(dt [[A, v], [0, 0]]) [0; 1] equals
    dt * phi1(dt*A) v. Where that takes no product (dt = 0 or no stored
    entries), phi1 is the identity and the result a copy of v, bit for bit.
    """
    res = _action(A, np.zeros(A.n_cols), v, dt)
    if res.products == 0:
        return PhiResult(np.array(v, dtype=np.float64), 0.0, 0, 0)
    dt = float(dt)  # the core accepted it as a finite real
    return PhiResult(res.vector / dt, res.est_error / dt, res.restarts_used, res.products)


def fused_action(A, u, f, dt):
    """phi0(dt*A) u + dt * phi1(dt*A) f as one action: a whole SETDM1 step."""
    return _action(A, u, f, dt)


# ---------------------------------------------------------------------------
# Dense oracle
# ---------------------------------------------------------------------------

def _expm_taylor(M):
    """Dense exp(M) by Taylor series with scaling and squaring."""
    n = M.shape[0]
    nrm = np.linalg.norm(M, 1)
    s = 0
    if nrm > 0.5:
        s = int(math.ceil(math.log2(nrm / 0.5)))
    A = M / (2.0 ** s)
    X = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ A / k
        X = X + term
        if np.linalg.norm(term, 1) <= 1e-20 * np.linalg.norm(X, 1):
            break
    for _ in range(s):
        X = X @ X
    return X


def dense_phi(A, k, dt):
    """Dense phi_k(dt*A) for k in {0, 1}; verification oracle for n <= 256.

    k=1 uses the augmented block matrix [[dt*A, I], [0, 0]] whose
    exponential carries phi1(dt*A) in the upper-right block, so singular A
    is fine.
    """
    if k not in (0, 1):
        raise InvalidArgumentError(f"phi index must be 0 or 1, got {k}")
    M = A.dense() if hasattr(A, "dense") else np.asarray(A, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidArgumentError("dense_phi requires a square matrix")
    n = M.shape[0]
    if n > 256:
        raise InvalidArgumentError("dense_phi is an oracle for n <= 256")
    dt = float(dt)
    if not np.isfinite(dt) or dt < 0:
        raise InvalidArgumentError(f"dt must be finite and >= 0, got {dt}")
    if k == 0:
        return _expm_taylor(dt * M)
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = dt * M
    aug[:n, n:] = np.eye(n)
    return _expm_taylor(aug)[:n, n:]
