"""Phi-function actions: phi0(dt*A) v, phi1(dt*A) v and the fused SETDM1
action phi0(dt*A) u + dt*phi1(dt*A) f.

phi0(z) = exp(z), phi1(z) = (exp(z) - 1)/z with phi1(0) = 1. All three
actions are thin wrappers over one core, which computes the first block of

    exp(t [[A, f], [0, 0]]) [u; 1] = phi0(tA) u + t phi1(tA) f

(Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2):488-511, 2011, Theorem 2.1;
Niesen & Wright, ACM TOMS 38(3), 2012, use the same idea in Krylov form),
so A is never inverted (it may be singular, e.g. a Neumann Laplacian) and a
SETDM1 step costs one action. The core has two routes, chosen from the
operator's sign pattern and the step alone; nothing else selects them.

Uniformization (Jensen, Skand. Aktuarietidskr. 36, 1953) serves a Metzler
A, one whose off-diagonal entries are >= 0. Upwind-FV generators are, and
so is the P1 generator of diagonal diffusion on these right triangles with
lumped mass, zero Dirichlet rows included; P1 advection and a c0 shift
(consistent mass) are not. With lam = max(-min_i a_ii, 0) and
beta = max(||A + lam I||_inf, lam), the matrix P = (A + lam I)/beta is
>= 0 with ||P||_inf <= 1 and 0 <= lam/beta <= 1
(``SparseOperator.uniformized_form``), and with x = t*beta and w_k the
Poisson(x) weights

    exp(t [[A, f], [0, 0]]) [u; 1] = e^{t(beta - lam)} sum_k w_k y_k,
    y_0 = u,  y_k = P y_{k-1} + (lam/beta)^{k-1} f/beta,

the augmented matrix shifted by lam I and divided by beta. Every weight and
every P^k is non-negative, so the series does not cancel, and the sum stops
at the smallest K with P(N >= K) <= 2^-53, fixed before the first product:
no term norms, no stop test, no restarts. The route is taken only when
t(beta - lam) <= 1, i.e. the growth factor e^{t(beta - lam)} is at most e,
and when A + lam I is not 0; its truncation bound is
e^{t(beta - lam)} [P(N > K) ||u||_inf + t P(N >= K) ||f||_inf]. The
weights, a pure function of t*beta and the growth factor, are cached for
the last 64 such pairs (``_step_weights``).

Every other operator takes the truncated-Taylor exponential action of
Al-Mohy & Higham. The operator is shifted by mu = trace/n, [0, t] is cut
into s equal scaling steps, and each step applies a Taylor polynomial of
degree at most m and multiplies back by exp(t*mu/s). (m, s) minimise the
matvec count m*s subject to t*||B||_1/s <= theta_m, the double-precision
bounds of their Table 3.1, so every action is accurate to unit roundoff; a
series stops early once two consecutive terms fall below 2^-53 of the
partial sum.

Each term of either route costs one sparse product: one call of scipy's
compiled CSR kernel through ``sparse._matvec_into``, without scipy's ``@``
dispatch. It reads u or one of two buffers the action allocates and
writes the other buffer, so no product allocates and the caller's u and f
are never written. Each Taylor term multiplies by A - mu I, built once per
operator on its first action (``SparseOperator.taylor_form``), and adds
one scaling, one accumulation and one inf-norm of the new term. The stop
test needs ||partial sum||_inf too, but that is taken only when the scalar
bound b = ||u||_inf + sum of the term norms, which is at least the partial
sum's norm, says the test could pass (terms <= 2 * 2^-53 * b); every stop
decision is therefore the one the exact test makes at every term. On this
route the last coordinate of [u; 1] is carried as a scalar and reset to its
exact value 1 after every scaling step. Scaling the f column by eta and the
last coordinate by 1/eta leaves the result unchanged (their Section 3), so
||B||_1 is taken as eta -> 0, which leaves max(||A - mu I||_1, |mu|).

Both routes share one fixed product ceiling of
_MAX_SCALING_STEPS * 55 = 550 055 sparse products: the Taylor route caps
its scaling steps at _MAX_SCALING_STEPS of degree at most 55, the
uniformized route its series at that many terms. An action beyond it
raises KrylovConvergenceError with its truncation bound before any
product is taken; a study flags that cell. Nothing configures it.

``dense_phi`` is the independent dense oracle (n <= 256): Taylor
scaling-and-squaring on the plain or augmented matrix. It shares no code
with the action core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, KrylovConvergenceError
from .sparse import _matvec_into

_UNIT_ROUNDOFF = 2.0 ** -53

# theta_m for double precision (Al-Mohy & Higham 2011, Table 3.1): a degree-m
# Taylor step of length h with h*||B||_1 <= theta_m has backward error at
# most unit roundoff.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.70, 40: 6.00,
    45: 7.20, 50: 8.50, 55: 9.90,
}
_DEGREES = np.array(sorted(_THETA))
_THETAS = np.array([_THETA[m] for m in _DEGREES])

# Scaling steps of degree at most 55 a Taylor action may take; the
# uniformized series gets the same product count, _MAX_SCALING_STEPS * 55.
_MAX_SCALING_STEPS = 10001


@dataclass
class PhiResult:
    """An action's vector, its truncation bound (the sum over scaling steps
    of the Taylor tail bound, or the Poisson tail bound of a uniformized
    action), restarts_used = scaling steps - 1 (0 when uniformized) and the
    sparse products it took (the series length K when uniformized, the
    Taylor terms it ran otherwise)."""

    vector: np.ndarray
    est_error: float
    restarts_used: int
    products: int


def _taylor_parameters(x):
    """(m, s) minimising m*s subject to x/s <= theta_m, for x = t*||B||_1."""
    if x == 0.0:
        return 0, 1
    steps = np.ceil(x / _THETAS)
    i = int(np.argmin(_DEGREES * steps))
    return int(_DEGREES[i]), int(steps[i])


def _taylor_tail(x, m):
    """Lagrange bound x^(m+1) e^x / (m+1)! on sum_{k>m} x^k / k!."""
    if x == 0.0:
        return 0.0
    try:
        return math.exp((m + 1) * math.log(x) + x - math.lgamma(m + 2))
    except OverflowError:
        return math.inf


def _taylor_action(A, u, f, t):
    """First block of exp(t [[A, f], [0, 0]]) [u; 1] by the Taylor action;
    f None (or all zero, dropped by the caller) means exp(tA) u."""
    B, mu, norm = A.taylor_form
    if f is not None:
        norm = max(norm, abs(mu))
    m, s = _taylor_parameters(t * norm)
    needed = s
    if needed > _MAX_SCALING_STEPS:
        m, s = int(_DEGREES[-1]), _MAX_SCALING_STEPS
    h = t / s
    eta = np.exp(h * mu)
    # tail bound of one step; the f terms lag the u terms by one degree
    tail = eta * _taylor_tail(h * norm, m - (f is not None))
    hf_norm = 0.0 if f is None else h * float(np.abs(f).sum())
    if s < needed:
        raise KrylovConvergenceError(
            f"phi action needs {needed} scaling steps, more than the ceiling of {s}",
            est_error=s * tail * (float(np.abs(u).sum()) + hf_norm),
        )
    est = 0.0
    products = 0
    buffers = np.empty_like(u), np.empty_like(u)
    for _ in range(s):
        est += tail * (float(np.abs(u).sum()) + hf_norm)
        out = u.copy()
        v, w = u, 1.0
        c1 = bound = np.abs(v).max()
        for k in range(1, m + 1):
            # read u or one buffer, write the other buffer
            v = _matvec_into(B, v, buffers[v is buffers[0]])
            products += 1
            if f is not None:
                v += w * f
                w *= -mu * h / k
            v *= h / k
            out += v
            c2 = np.abs(v).max()
            bound += c2
            # bound >= ||out||_inf, so the exact test below can only pass
            # when this one does; the factor 2 covers rounding in bound
            if (c1 + c2 <= 2 * _UNIT_ROUNDOFF * bound
                    and c1 + c2 <= _UNIT_ROUNDOFF * np.abs(out).max()):
                break
            c1 = c2
        u = eta * out
    return PhiResult(u, est, s - 1, products)


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
def _step_weights(x, growth):
    """The uniformized route's coefficients growth * w_k (a list) and the
    tails of the Poisson(x) weights: built once per (x, growth), which a
    study repeats every step; 64 entries take about 2 MB for x <= 500."""
    w, tail = _poisson_weights(x)
    return (growth * w).tolist(), tail


def _uniformized_action(form, u, f, t):
    """First block of exp(t [[A, f], [0, 0]]) [u; 1] for a Metzler A whose
    growth factor e^{t(beta - lam)} is at most e: one series of Poisson
    weights times products with P >= 0, no stop test, no restarts."""
    P, beta, lam = form
    x = t * beta
    growth = math.exp(t * (beta - lam))
    u_norm = float(np.abs(u).max())
    f_norm = 0.0 if f is None else float(np.abs(f).max())
    cap = _MAX_SCALING_STEPS * int(_DEGREES[-1])
    if x - 1.0 >= cap:      # K > x - 1 (N's median is >= x - ln 2): skip the weights
        raise KrylovConvergenceError(
            f"uniformized phi action needs more than the ceiling of {cap} products",
            est_error=growth * (u_norm + t * f_norm))
    coeffs, tail = _step_weights(x, growth)
    K = len(coeffs) - 1
    if K > cap:
        raise KrylovConvergenceError(
            f"uniformized phi action needs {K} products, more than the ceiling of {cap}",
            est_error=growth * (tail[cap + 1] * u_norm + t * tail[cap] * f_norm))
    out = coeffs[0] * u
    term = np.empty_like(u)
    buffers = np.empty_like(u), np.empty_like(u)
    y = u
    if f is not None:
        g = f / beta
        ratio, scale = lam / beta, 1.0
    for k in range(1, K + 1):
        # read u or one buffer, write the other buffer
        y = _matvec_into(P, y, buffers[y is buffers[0]])
        if f is not None:
            y += np.multiply(g, scale, out=term)
            scale *= ratio
        out += np.multiply(y, coeffs[k], out=term)
    est = growth * (tail[K + 1] * u_norm + t * tail[K] * f_norm)
    return PhiResult(out, est, 0, K)


def _action(A, u, f, t):
    """First block of exp(t [[A, f], [0, 0]]) [u; 1]; f None means exp(tA) u.

    Uniformization when A is Metzler and the series cannot amplify by more
    than e, the Taylor action otherwise.
    """
    if f is not None and not f.any():
        f = None
    form = A.uniformized_form
    if form is not None and t * (form[1] - form[2]) <= 1.0:
        return _uniformized_action(form, u, f, t)
    return _taylor_action(A, u, f, t)


def _check_vector(A, v, name="vector"):
    """v as a C-contiguous float64 array (the caller's own when it already
    is one: the actions never write into it), checked for shape and
    finiteness."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (A.n_cols,):
        raise InvalidArgumentError(f"{name} has shape {v.shape}, expected ({A.n_cols},)")
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError(f"{name} contains NaN/Inf")
    return np.ascontiguousarray(v)


def _check_action_args(A, dt):
    if A.n_rows != A.n_cols:
        raise InvalidArgumentError("phi actions require a square operator")
    dt = float(dt)
    if not np.isfinite(dt) or dt < 0:
        raise InvalidArgumentError(f"dt must be finite and >= 0, got {dt}")
    return dt


def phi0_action(A, v, dt):
    """Approximate exp(dt*A) v.

    Parameters
    ----------
    A : SparseOperator
    v : array, shape (n,)
    dt : float >= 0

    Returns
    -------
    PhiResult
        vector, truncation bound, scaling steps beyond the first
        (restarts_used).
    """
    dt = _check_action_args(A, dt)
    v = _check_vector(A, v)
    if dt == 0.0 or A.nnz == 0:
        return PhiResult(v.copy(), 0.0, 0, 0)
    return _action(A, v, None, dt)


def phi1_action(A, v, dt):
    """Approximate phi1(dt*A) v without inverting A.

    The first block of exp(dt [[A, v], [0, 0]]) [0; 1] equals
    dt * phi1(dt*A) v.
    """
    dt = _check_action_args(A, dt)
    v = _check_vector(A, v)
    if dt == 0.0 or A.nnz == 0:
        return PhiResult(v.copy(), 0.0, 0, 0)
    res = _action(A, np.zeros_like(v), v, dt)
    return PhiResult(res.vector / dt, res.est_error / dt, res.restarts_used, res.products)


def fused_action(A, u, f, dt):
    """phi0(dt*A) u + dt * phi1(dt*A) f as one action: a whole SETDM1 step."""
    dt = _check_action_args(A, dt)
    u = _check_vector(A, u, "u")
    f = _check_vector(A, f, "f")
    if dt == 0.0 or A.nnz == 0:
        return PhiResult(u + dt * f, 0.0, 0, 0)
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
