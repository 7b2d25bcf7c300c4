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
rise_integral.  quad_m and quad_k are independent cross-checks: they
integrate every order directly, with no recurrence, through one adaptive
quadrature (scipy's quad, QUADPACK; Piessens et al., 1983).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaincc, hyp1f1

from .errors import ConvergenceError, DomainError, SingularityError

# u/eps above this threshold switches the closed form exp(x)*Gamma(p,x) to a
# shifted exponential-weight rule, which cannot overflow and is already at
# machine accuracy there.
_LARGE_X = 30.0

# node count of the fixed Gauss rules of m_fn and rise_integral, and the
# absolute and relative target of the adaptive quadrature behind quad_m and
# quad_k
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
    """Euler gamma function, restricted to positive arguments where it is a finite double, about a <= 171.6."""
    if not 0 < a < math.inf:
        raise DomainError(f"gamma_fn needs a finite a > 0, got {a}")
    try:
        return math.gamma(a)
    except OverflowError:
        raise DomainError(f"gamma_fn({a}) overflows a double") from None


@lru_cache(maxsize=32)
def _laguerre(n: int):
    return laggauss(n)


@lru_cache(maxsize=32)
def _legendre(n: int):
    return leggauss(n)


def _check_common(p: float, eps: float, order: int) -> None:
    if not 1 <= p < math.inf:
        raise DomainError(f"exponent p must be finite and >= 1, got {p}")
    if not 0 < eps < math.inf:
        raise DomainError(f"eps must be finite and positive, got {eps}")
    if order not in (0, 1, 2):
        raise DomainError(f"order must be 0, 1 or 2, got {order}")


def _as_array(u, least: float, what: str) -> tuple[np.ndarray, bool]:
    """u as a float array and whether it was a scalar; DomainError unless every u is finite and >= least."""
    arr = np.asarray(u, dtype=float)
    # NaN fails the sign test and +inf the maximum
    if not ((arr >= least).all() and arr.max(initial=least) < math.inf):
        raise DomainError(f"{what} needs finite u >= {least:.6g}")
    return arr, arr.ndim == 0


def _restore(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _m0(p: float, eps: float, u: np.ndarray) -> np.ndarray:
    """Order zero of m on nonnegative u, elementwise."""
    x = u / eps
    small = x <= _LARGE_X
    every = small.all()
    xs = x if every else x[small]
    head = eps ** (p - 1) * gamma_fn(p + 1) * np.exp(xs) * gammaincc(p, xs)
    if every:
        return head
    out = np.empty_like(u)
    out[small] = head
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
    arr, scalar = _as_array(u, 0.0, "m_fn")
    if order >= 1 and p < 2 and (arr == 0).any():
        raise SingularityError(f"derivative of order {order} of m is singular at u = 0 for p = {p} < 2")
    out = _m0(p, eps, arr)
    for j in range(order):
        out = next_order("m", p, eps, arr, out, j)
    return _restore(out, scalar)


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
    y1, span = np.asarray(y1, dtype=float), np.asarray(span, dtype=float)
    y1, span = (v.ravel() for v in np.broadcast_arrays(y1, span)) if y1.ndim else (y1, span.ravel())
    # both ends in one call, which saves a call's overhead on the short arrays
    # of k_fn; a scalar y1, as k_fn passes, is one end for every span
    ends = _rise_from_zero(a, np.concatenate((y1 + span, y1.reshape(-1))))
    out = ends[: span.size] - np.exp(-span) * ends[span.size :]
    short = (span < _RISE_CUT) & (y1 > span)
    if short.any():
        x, w = _legendre(_NODES)
        half = 0.5 * span[short]
        s = half[:, None] * (1.0 + x[None, :])
        start = y1[short, None] if y1.ndim else y1
        vals = np.exp(s - span[short, None]) * (start + s) ** a
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
    arr, scalar = _as_array(u, eps * (1.0 - 1e-12) - 1e-300, "k_fn")
    arr = np.maximum(arr, eps)
    out = (p * eps ** (p - 1) * rise_integral(p - 1.0, 1.0, (arr - eps) / eps)).reshape(arr.shape)
    for j in range(order):
        out = next_order("k", p, eps, arr, out, j)
    return _restore(out, scalar)


def _falling(p: float, order: int) -> float:
    """p (p-1) ... (p-order), the factor order derivatives put before t^(p-1-order)."""
    return math.prod(p - i for i in range(order + 1))


def next_order(kind: str, p: float, eps: float, u, f, j: int):
    """Order j + 1 of m or k (kind "m" or "k") at u from their order j values f.

    The recurrences m - eps m' = p u^(p-1) and k + eps k' = p u^(p-1),
    differentiated j times: m^(j+1) = (m^(j) - g) / eps and
    k^(j+1) = (g - k^(j)) / eps with g = p(p-1)...(p-j) u^(p-1-j).
    """
    g = _falling(p, j) * u ** (p - 1 - j)
    return (f - g) / eps if kind == "m" else (g - f) / eps


def _adaptive(f, lo: float, hi: float, **weight) -> float:
    """integral_lo^hi f by scipy's quad; what quad would flag with an IntegrationWarning raises."""
    # imported here: scipy.integrate adds about 26 MB to every process that
    # imports bmobell, and only the cross-routes use it
    from scipy.integrate import quad

    val, _, _, *msg = quad(f, lo, hi, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200,
                           full_output=1, **weight)
    if msg:
        raise ConvergenceError(f"adaptive quadrature over [{lo}, {hi}] did not converge: {msg[0]}")
    return val


def quad_m(p: float, eps: float, u, order: int = 0):
    """Direct quadrature route for m and its derivatives, used as a cross-check.

    m^(j)(u) = p(p-1)...(p-j) integral_0^inf exp(-y) (u + eps*y)^(p-1-j) dy,
    split at y = 1.  At u = 0 the head takes y^(p-1-j) as an algebraic
    weight; for u > 0 it is integrated on a log scale.
    """
    _check_common(p, eps, order)
    arr, scalar = _as_array(u, 0.0, "quad_m")
    factor, a = _falling(p, order), p - 1.0 - order
    if factor == 0.0:
        return _restore(np.zeros_like(arr), scalar)
    if order >= 1 and p < 2 and np.any(arr == 0):
        raise SingularityError(f"derivative of order {order} of m is singular at u = 0 for p = {p} < 2")

    def one(ui: float) -> float:
        if ui == 0.0:
            head = eps ** a * _adaptive(lambda y: math.exp(-y), 0.0, 1.0, weight="alg", wvar=(a, 0.0))
        else:
            # in s = ln(u + eps*y) the power is an exponential, which stays
            # smooth for u far below eps, where a negative power is sharp in y
            head = _adaptive(lambda s: math.exp(s * (a + 1.0) - (math.exp(s) - ui) / eps),
                             math.log(ui), math.log(ui + eps)) / eps
        tail = _adaptive(lambda y: math.exp(-y) * (ui + eps * y) ** a, 1.0, math.inf)
        return factor * (head + tail)

    return _restore(np.vectorize(one, otypes=[float])(arr), scalar)


def quad_k(p: float, eps: float, u, order: int = 0):
    """Direct quadrature route for k and its derivatives, used as a cross-check.

    k^(j)(u) = c_j exp((eps-u)/eps)
               + p(p-1)...(p-j)/eps integral_eps^u exp((t-u)/eps) t^(p-1-j) dt,
    where integration by parts gives c_0 = 0, c_1 = p eps^(p-2) and
    c_2 = p(p-2) eps^(p-3).  No order is derived from another.
    """
    _check_common(p, eps, order)
    arr, scalar = _as_array(u, eps * (1.0 - 1e-12), "quad_k")
    factor, a = _falling(p, order), p - 1.0 - order
    edge = (0.0, p * eps ** (p - 2.0), p * (p - 2.0) * eps ** (p - 3.0))[order]

    def one(ui: float) -> float:
        inner = 0.0 if ui <= eps else _adaptive(lambda t: math.exp((t - ui) / eps) * t ** a, eps, ui)
        return edge * math.exp((eps - ui) / eps) + factor / eps * inner

    return _restore(np.vectorize(one, otypes=[float])(arr), scalar)
