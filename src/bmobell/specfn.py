"""Exponential moment transforms of power functions.

Two families are evaluated here, both parametrized by an exponent p >= 1 and
an oscillation scale eps > 0:

    m(u) = (p/eps) * integral_u^inf  exp((u-t)/eps) t^(p-1) dt,   u >= 0
    k(u) = (p/eps) * integral_eps^u  exp((t-u)/eps) t^(p-1) dt,   u >= eps

Both satisfy the first order recurrences

    m(u) - eps*m'(u) = p u^(p-1)        k(u) + eps*k'(u) = p u^(p-1)

so derivative orders 1 and 2 are produced from order 0 by exact algebra
instead of differentiated quadrature.  Order zero is closed form: m through
the upper incomplete gamma function, k through Kummer's function M in
rise_integral.  Direct quadrature routes for every order are kept in
quad_m / quad_k as independent cross-checks.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaincc, hyp1f1, roots_jacobi

from .errors import DomainError, SingularityError

# u/eps above this threshold switches the closed form exp(x)*Gamma(p,x) to a
# shifted exponential-weight rule, which cannot overflow and is already at
# machine accuracy there.
_LARGE_X = 30.0

# node count of every fixed Gauss rule here, and the absolute and relative
# target of the adaptive cross-route quad_k
_NODES = 64
_QUAD_TOL = 1e-12

# rise_integral spans below this cancel in the closed-form difference; one
# Gauss-Legendre panel takes them.  Measured against 40-digit mpmath over
# exponents 0 to 9 at y1 = 1: worst relative error 1.2e-15 with this cut,
# 1.6e-15 with 0.6 and 2.6e-15 with 1.0; the closed form alone reads
# 1.9e-14 at span 0.05.
_RISE_CUT = 0.5

# hyp1f1 loses digits at large arguments: at a = 10 the closed form reads
# 1.1e-12 relative at y = 1e10 against 50-digit mpmath.  From y = max(
# _RISE_FAR, 100 (a + 1)) on, 16 terms of the asymptotic series, each under
# 1/100 of the one before, read within 2.0e-16 for a <= 19.
_RISE_FAR = 1e4


def gamma_fn(a: float) -> float:
    """Euler gamma function, restricted to positive arguments."""
    if not a > 0:
        raise DomainError(f"gamma_fn needs a > 0, got {a}")
    return math.gamma(a)


@lru_cache(maxsize=32)
def _laguerre(n: int):
    return laggauss(n)


@lru_cache(maxsize=32)
def _legendre(n: int):
    return leggauss(n)


@lru_cache(maxsize=64)
def _jacobi_left(n: int, beta: float):
    # weight (1+x)^beta on [-1, 1]; the algebraic factor sits at the left end
    return roots_jacobi(n, 0.0, beta)


def _check_common(p: float, eps: float, order: int) -> None:
    if not p >= 1:
        raise DomainError(f"exponent p must be >= 1, got {p}")
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if order not in (0, 1, 2):
        raise DomainError(f"order must be 0, 1 or 2, got {order}")


def _as_array(u) -> tuple[np.ndarray, bool]:
    arr = np.asarray(u, dtype=float)
    return arr, arr.ndim == 0


def _restore(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _m0(p: float, eps: float, u: np.ndarray) -> np.ndarray:
    """Order zero of m on nonnegative u, elementwise."""
    x = u / eps
    out = np.empty_like(u)
    small = x <= _LARGE_X
    if np.any(small):
        xs = x[small]
        out[small] = eps ** (p - 1) * math.gamma(p + 1) * np.exp(xs) * gammaincc(p, xs)
    if not np.all(small):
        s, w = _laguerre(_NODES)
        ub = u[~small]
        vals = (ub[:, None] + eps * s[None, :]) ** (p - 1)
        # a row sum, not a matrix product: BLAS picks its kernel by batch
        # size, which would make a value depend on the other rows
        out[~small] = p * (vals * w).sum(axis=1)
    return out


def m_fn(p: float, eps: float, u, order: int = 0):
    """Outward exponential moment transform m(u) and its first two derivatives.

    u may be a scalar or an ndarray; the result matches the input shape.
    Orders 1 and 2 come from the defining recurrence, which is exact.
    """
    _check_common(p, eps, order)
    arr, scalar = _as_array(u)
    if np.any(arr < 0):
        raise DomainError("m_fn needs u >= 0")
    if order >= 1 and p < 2 and np.any(arr == 0):
        raise SingularityError(f"derivative of order {order} of m is singular at u = 0 for p = {p} < 2")
    m0 = _m0(p, eps, arr)
    if order == 0:
        return _restore(m0, scalar)
    m1 = (m0 - p * arr ** (p - 1)) / eps
    if order == 1:
        return _restore(m1, scalar)
    m2 = (m1 - p * (p - 1) * arr ** (p - 2)) / eps
    return _restore(m2, scalar)


def _rise_from_zero(a: float, y: np.ndarray) -> np.ndarray:
    # integral_0^y exp(t - y) t^a dt = y^(a+1) M(1, a+2, -y) / (a+1), by
    # DLMF 13.4.4 and Kummer's transformation 13.2.39; far out, repeated
    # integration by parts gives y^a sum_k (-1)^k a(a-1)...(a-k+1) / y^k
    out = y ** (a + 1.0) * hyp1f1(1.0, a + 2.0, -y) / (a + 1.0)
    cut = max(_RISE_FAR, 100.0 * (a + 1.0))
    if y.max(initial=0.0) >= cut:
        far = y >= cut
        yf = y[far]
        term, acc = np.ones_like(yf), np.ones_like(yf)
        for k in range(1, 16):
            term *= (k - 1.0 - a) / yf
            acc += term
        out[far] = yf ** a * acc
    return out


def rise_integral(a: float, y1, span) -> np.ndarray:
    """integral_{y1}^{y1+span} exp(y - y1 - span) y^a dy for a >= 0, y1 >= 0, span >= 0.

    Elementwise over the broadcast of y1 and span.  The closed form is the
    difference of two integrals from 0.  Below _RISE_CUT the two cancel
    unless y1 <= span, so those rows take one Gauss-Legendre panel, whose
    integrand has no singularity closer than y1 to the span.  The span is
    an argument of its own so that callers can pass it formed exactly.
    """
    y1, span = np.broadcast_arrays(np.asarray(y1, dtype=float), np.asarray(span, dtype=float))
    y1, span = y1.ravel(), span.ravel()
    # both ends in one call, which saves a call's overhead on the short arrays of k_fn
    ends = _rise_from_zero(a, np.concatenate((y1 + span, y1)))
    out = ends[: y1.size] - np.exp(-span) * ends[y1.size :]
    short = (span < _RISE_CUT) & (y1 > span)
    if np.any(short):
        x, w = _legendre(_NODES)
        half = 0.5 * span[short]
        s = half[:, None] * (1.0 + x[None, :])
        vals = np.exp(s - span[short, None]) * (y1[short, None] + s) ** a
        # a row sum, not a matrix product, for the same reason as in _m0
        out[short] = half * (vals * w).sum(axis=1)
    return out


def k_fn(p: float, eps: float, u, order: int = 0):
    """Backward exponential moment transform k(u) on u >= eps, with derivatives.

    Order zero is p*eps^(p-1) times rise_integral from 1 over the span
    (u - eps)/eps, in closed form through Kummer's function.  k(eps) = 0
    and k'(eps) = p*eps^(p-2) exactly.  Arrays are handled elementwise.
    """
    _check_common(p, eps, order)
    arr, scalar = _as_array(u)
    if np.any(arr < eps * (1.0 - 1e-12) - 1e-300):
        raise DomainError(f"k_fn needs u >= eps = {eps}")
    arr = np.maximum(arr, eps)
    k0 = (p * eps ** (p - 1) * rise_integral(p - 1.0, 1.0, (arr - eps) / eps)).reshape(arr.shape)
    if order == 0:
        return _restore(k0, scalar)
    k1 = (p * arr ** (p - 1) - k0) / eps
    if order == 1:
        return _restore(k1, scalar)
    k2 = (p * (p - 1) * arr ** (p - 2) - k1) / eps
    return _restore(k2, scalar)


def _exp_power_integral(a: float, eps: float, u: float, n: int) -> float:
    """integral_0^inf exp(-s) (u + eps*s)^a ds by split quadrature.

    The head [0, 1] is resolved against the algebraic behaviour near s = 0
    (log substitution for u > 0, one-sided Jacobi rule at u = 0); the tail
    uses a shifted exponential-weight rule.
    """
    s, w = _laguerre(n)
    tail = float(math.exp(-1.0) * ((u + eps + eps * s) ** a) @ w)
    if u == 0.0:
        if a <= -1:
            raise SingularityError(f"exponent {a} not integrable at u = 0")
        xj, wj = _jacobi_left(n, a)
        sj = 0.5 * (xj + 1.0)
        head = float(2.0 ** (-a - 1.0) * (np.exp(-sj) @ wj)) * eps ** a
        return head + tail
    # head in t = u + eps*s coordinates, resolved on a log scale
    Y = math.log1p(eps / u)
    npan = max(1, math.ceil(Y / 3.0))
    edges = np.linspace(0.0, Y, npan + 1)
    x, wl = _legendre(n)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    y = mid[:, None] + half[:, None] * x[None, :]
    t = u * np.exp(y)
    vals = np.exp(-(t - u) / eps) * t ** (a + 1.0)
    head = float(np.sum(half[:, None] * wl[None, :] * vals) / eps)
    return head + tail


def quad_m(p: float, eps: float, u, order: int = 0):
    """Direct quadrature route for m and its derivatives, used as a cross-check."""
    _check_common(p, eps, order)
    arr, scalar = _as_array(u)
    if np.any(arr < 0):
        raise DomainError("quad_m needs u >= 0")
    factor = {0: p, 1: p * (p - 1), 2: p * (p - 1) * (p - 2)}[order]
    a = p - 1 - order
    if factor == 0.0:
        return _restore(np.zeros_like(arr), scalar)
    if order >= 1 and p < 2 and np.any(arr == 0):
        raise SingularityError(f"derivative of order {order} of m is singular at u = 0 for p = {p} < 2")
    flat = np.atleast_1d(arr)
    vals = np.array([factor * _exp_power_integral(a, eps, float(ui), _NODES) for ui in flat])
    return _restore(vals.reshape(arr.shape), scalar)


def quad_k(p: float, eps: float, u, order: int = 0):
    """Adaptive-quadrature route for k and its derivatives, used as a cross-check."""
    _check_common(p, eps, order)
    arr, scalar = _as_array(u)
    if np.any(arr < eps * (1.0 - 1e-12)):
        raise DomainError(f"quad_k needs u >= eps = {eps}")
    # imported here: scipy.integrate adds about 26 MB to every process that
    # imports bmobell, and only this cross-check uses it
    from scipy.integrate import quad as adaptive_quad

    def one(ui: float, a: float, factor: float) -> float:
        if ui <= eps:
            return 0.0
        val, _ = adaptive_quad(
            lambda t: math.exp((t - ui) / eps) * t ** a,
            eps, ui, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200,
        )
        return factor / eps * val

    flat = np.atleast_1d(arr)
    if order == 0:
        vals = np.array([one(float(ui), p - 1.0, p) for ui in flat])
    elif order == 1:
        base = np.array([one(float(ui), p - 1.0, p) for ui in flat])
        vals = (p * flat ** (p - 1) - base) / eps
    else:
        boundary = p * (p - 2) * eps ** (p - 3) * np.exp((eps - flat) / eps)
        inner = np.array([one(float(ui), p - 3.0, p * (p - 1) * (p - 2)) for ui in flat])
        vals = boundary + inner
    return _restore(vals.reshape(arr.shape), scalar)
