"""Exponential moment transforms of power functions.

Two families are evaluated here, both parametrized by an exponent p >= 1 and
an oscillation scale eps > 0:

    m(u) = (p/eps) * integral_u^inf  exp((u-t)/eps) t^(p-1) dt,   u >= 0
    k(u) = (p/eps) * integral_eps^u  exp((t-u)/eps) t^(p-1) dt,   u >= eps

Both satisfy the first order recurrences

    m(u) - eps*m'(u) = p u^(p-1)        k(u) + eps*k'(u) = p u^(p-1)

so derivative orders 1 and 2 are produced from order 0 by exact algebra
instead of differentiated quadrature.  Direct quadrature routes for every
order are kept in quad_m / quad_k as independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad as _adaptive_quad
from scipy.special import gammaincc, roots_jacobi

from .errors import DomainError, SingularityError

_SCHEMES = ("semi_infinite", "finite_adaptive")

# u/eps above this threshold switches the closed form exp(x)*Gamma(p,x) to a
# shifted exponential-weight rule, which cannot overflow and is already at
# machine accuracy there.
_LARGE_X = 30.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Node budget and accuracy target for the integral evaluators."""

    node_count: int = 64
    target_abs_tol: float = 1e-12
    scheme: str = "semi_infinite"

    def __post_init__(self):
        if not isinstance(self.node_count, int) or self.node_count < 8:
            raise DomainError(f"node_count must be an int >= 8, got {self.node_count}")
        if not self.target_abs_tol > 0:
            raise DomainError(f"target_abs_tol must be positive, got {self.target_abs_tol}")
        if self.scheme not in _SCHEMES:
            raise DomainError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")


M_QUAD = QuadratureSpec(scheme="semi_infinite")
K_QUAD = QuadratureSpec(scheme="finite_adaptive")


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


def _m0(p: float, eps: float, u: np.ndarray, n: int) -> np.ndarray:
    """Order zero of m on nonnegative u, elementwise."""
    x = u / eps
    out = np.empty_like(u)
    small = x <= _LARGE_X
    if np.any(small):
        xs = x[small]
        out[small] = eps ** (p - 1) * math.gamma(p + 1) * np.exp(xs) * gammaincc(p, xs)
    if not np.all(small):
        s, w = _laguerre(max(n, 64))
        ub = u[~small]
        vals = (ub[:, None] + eps * s[None, :]) ** (p - 1)
        # a row sum, not a matrix product: BLAS picks its kernel by batch
        # size, which would make a value depend on the other rows
        out[~small] = p * (vals * w).sum(axis=1)
    return out


def m_fn(p: float, eps: float, u, order: int = 0, quad: QuadratureSpec | None = None):
    """Outward exponential moment transform m(u) and its first two derivatives.

    u may be a scalar or an ndarray; the result matches the input shape.
    Orders 1 and 2 come from the defining recurrence, which is exact.
    """
    _check_common(p, eps, order)
    spec = quad or M_QUAD
    arr, scalar = _as_array(u)
    if np.any(arr < 0):
        raise DomainError("m_fn needs u >= 0")
    if order >= 1 and p < 2 and np.any(arr == 0):
        raise SingularityError(f"derivative of order {order} of m is singular at u = 0 for p = {p} < 2")
    m0 = _m0(p, eps, arr, spec.node_count)
    if order == 0:
        return _restore(m0, scalar)
    m1 = (m0 - p * arr ** (p - 1)) / eps
    if order == 1:
        return _restore(m1, scalar)
    m2 = (m1 - p * (p - 1) * arr ** (p - 2)) / eps
    return _restore(m2, scalar)


_K0_CHUNK = 16384


def _k0(p: float, eps: float, u: np.ndarray, n: int) -> np.ndarray:
    """Order zero of k on u >= eps, elementwise (flat input).

    Composite fixed-order panels of length <= 5 eps; the kernel
    exp((t-u)/eps) kills everything further than ~45 eps back, so the
    range is truncated there.  Inputs are bucketed by panel count so the
    whole batch runs as dense array arithmetic.
    """
    out = np.zeros_like(u)
    lo = np.maximum(eps, u - 45.0 * eps)
    span = u - lo
    x, w = _legendre(n)
    for start in range(0, u.size, _K0_CHUNK):
        sl = slice(start, min(start + _K0_CHUNK, u.size))
        uc, loc, spc = u[sl], lo[sl], span[sl]
        live = spc > 0
        if not np.any(live):
            continue
        ul, lol, spl = uc[live], loc[live], spc[live]
        npan = np.maximum(np.ceil(spl / (5.0 * eps)).astype(int), 1)
        res = np.empty_like(ul)
        for nv in np.unique(npan):
            sel = npan == nv
            us, los = ul[sel], lol[sel]
            frac = np.arange(nv + 1) / nv
            edges = los[:, None] + (us - los)[:, None] * frac[None, :]
            half = 0.5 * np.diff(edges, axis=1)
            mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
            t = mid[:, :, None] + half[:, :, None] * x[None, None, :]
            vals = np.exp((t - us[:, None, None]) / eps) * t ** (p - 1)
            # row sums for the same reason as in _m0
            res[sel] = p / eps * (half * (vals * w).sum(axis=2)).sum(axis=1)
        buf = np.zeros_like(uc)
        buf[live] = res
        out[sl] = buf
    return out


def k_fn(p: float, eps: float, u, order: int = 0, quad: QuadratureSpec | None = None):
    """Backward exponential moment transform k(u) on u >= eps, with derivatives.

    k(eps) = 0 and k'(eps) = p*eps^(p-2) exactly.  Arrays are handled
    elementwise.
    """
    _check_common(p, eps, order)
    spec = quad or K_QUAD
    arr, scalar = _as_array(u)
    if np.any(arr < eps * (1.0 - 1e-12) - 1e-300):
        raise DomainError(f"k_fn needs u >= eps = {eps}")
    arr = np.maximum(arr, eps)
    k0 = _k0(p, eps, np.atleast_1d(arr).ravel(), spec.node_count).reshape(arr.shape)
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


def quad_m(p: float, eps: float, u, order: int = 0, quad: QuadratureSpec | None = None):
    """Direct quadrature route for m and its derivatives, used as a cross-check."""
    _check_common(p, eps, order)
    spec = quad or M_QUAD
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
    vals = np.array([factor * _exp_power_integral(a, eps, float(ui), spec.node_count) for ui in flat])
    return _restore(vals.reshape(arr.shape), scalar)


def quad_k(p: float, eps: float, u, order: int = 0, quad: QuadratureSpec | None = None):
    """Adaptive-quadrature route for k and its derivatives, used as a cross-check."""
    _check_common(p, eps, order)
    spec = quad or K_QUAD
    arr, scalar = _as_array(u)
    if np.any(arr < eps * (1.0 - 1e-12)):
        raise DomainError(f"quad_k needs u >= eps = {eps}")
    tol = spec.target_abs_tol

    def one(ui: float, a: float, factor: float) -> float:
        if ui <= eps:
            return 0.0
        val, _ = _adaptive_quad(
            lambda t: math.exp((t - ui) / eps) * t ** a,
            eps, ui, epsabs=tol, epsrel=tol, limit=200,
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
