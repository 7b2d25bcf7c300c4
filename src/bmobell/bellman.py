"""Bellman function evaluation along the tangent leaf foliation.

Every interior moment triple x sits on exactly one supporting leaf, indexed
by a chord parameter u.  The leaf is located by bisection on the defining
plane equation in the p-coordinate, after which the function value, the
gradient and numeric second derivatives all come from closed expressions
in the transforms m and k evaluated at that u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Params, Regime, Region, bellman2d, classify, omega3_contains, tangent_params
from .errors import BoundaryError, ConvergenceError, DomainError
from .specfn import k_fn, m_fn

_BISECT_MAX = 200
_RESIDUAL_REL = 1e-12
_CLAMP_REL = 1e-10


@dataclass(frozen=True)
class Leaf:
    """Solved leaf through one moment triple."""

    region: Region
    u: float
    bracket: tuple[float, float]


def _chord_value(q: float, eps: float, u: float, x1: float, x2: float) -> float:
    """Supporting plane of the two-sided tangent leaf, exponent q, at (x1, x2)."""
    mq = m_fn(q, eps, u)
    kq = k_fn(q, eps, u)
    quad = x2 - x1 * x1 + (x1 - u) ** 2
    return u ** q + (mq - kq) / (4.0 * eps) * quad + (mq + kq) / 2.0 * (x1 - u)


def _central_value(q: float, eps: float, u: float, x2: float) -> float:
    """Supporting plane of the central leaf, exponent q, independent of x1."""
    return u ** q + (x2 - u * u) * m_fn(q, eps, u) / (2.0 * (u + eps))


def _bisect_leaf(f, lo: float, hi: float, increasing: bool, scale: float):
    """Locate f = 0 on [lo, hi] for monotone f, with endpoint clamping.

    Returns (u, residual) or None when the target level is outside the
    bracket by more than the clamp slack.
    """
    clamp = _CLAMP_REL * scale
    flo = f(lo)
    fhi = f(hi)
    if not increasing:
        flo, fhi = fhi, flo
        # reorder so the "low" end is the one with f <= 0
    # after the swap: flo corresponds to the end where f should be <= 0
    lo_end, hi_end = (lo, hi) if increasing else (hi, lo)
    if flo > 0.0:
        if flo <= clamp:
            return lo_end, abs(flo)
        return None
    if fhi < 0.0:
        if -fhi <= clamp:
            return hi_end, abs(fhi)
        return None
    # run the bracket down to float resolution; the last midpoints pin u to
    # an ulp, which keeps downstream finite differences of value() quiet
    target = _RESIDUAL_REL * scale
    a, b = lo_end, hi_end
    best_u, best_f = (a, abs(flo)) if abs(flo) <= abs(fhi) else (b, abs(fhi))
    for _ in range(_BISECT_MAX):
        u = 0.5 * (a + b)
        if u == a or u == b:
            break
        fu = f(u)
        if abs(fu) < best_f:
            best_u, best_f = u, abs(fu)
        if fu < 0.0:
            a = u
        else:
            b = u
    if best_f <= target:
        return best_u, best_f
    raise ConvergenceError(
        f"leaf bisection stalled at residual {best_f:.3e} (target {target:.3e})"
    )


def solve_leaf(params: Params, x) -> Leaf:
    """Find the leaf through x, trying the classified region first.

    Classification ties at the transition leaf are resolved by whichever
    bracket actually contains x3; the two candidate solves agree there to
    within the clamp slack.
    """
    x1, x2, x3 = (float(v) for v in x)
    region = classify(params, x)
    if region is Region.OUTSIDE:
        _raise_outside(params, x1, x2, x3)
    if region is Region.SKELETON:
        u = abs(x1)
        return Leaf(region, u, (u, u))
    p, eps = params.p, params.eps
    a1 = abs(x1)
    up, um = tangent_params(eps, a1, x2)
    increasing = p < 2
    scale = max(1.0, abs(x3))

    def attempt(reg: Region):
        if reg is Region.XI_ZERO:
            lo = max(0.0, up)
            hi = min(math.sqrt(x2), eps)
            if lo > hi:
                return None
            f = lambda u: _central_value(p, eps, u, x2) - x3
        else:
            lo = max(eps, up)
            hi = um
            if lo > hi:
                return None
            f = lambda u: _chord_value(p, eps, u, a1, x2) - x3
        got = _bisect_leaf(f, lo, hi, increasing, scale)
        if got is None:
            return None
        return Leaf(reg, got[0], (lo, hi))

    side = Region.XI_PLUS if x1 >= 0 else Region.XI_MINUS
    order = (region, side if region is Region.XI_ZERO else Region.XI_ZERO)
    for reg in order:
        leaf = attempt(reg)
        if leaf is not None:
            if reg is not Region.XI_ZERO:
                leaf = Leaf(side, leaf.u, leaf.bracket)
            return leaf
    raise ConvergenceError(f"no leaf bracket admits x3 = {x3} at ({x1}, {x2})")


def _raise_outside(params: Params, x1: float, x2: float, x3: float):
    eps = params.eps
    if x2 < x1 * x1 - 1e-12 or x2 > x1 * x1 + eps * eps + 1e-12:
        raise DomainError(
            f"x2 = {x2} outside [x1^2, x1^2 + eps^2] = [{x1 * x1}, {x1 * x1 + eps * eps}]"
        )
    lo = bellman2d(params, x1, x2, "lower")
    hi = bellman2d(params, x1, x2, "upper")
    raise DomainError(f"x3 = {x3} outside the reachable interval [{lo}, {hi}] at ({x1}, {x2})")


def value(params: Params, x) -> float:
    """Extremal r-th moment over all admissible functions with moments x.

    Supremum in the max regime, infimum in the min regime; the two
    degenerate exponent patterns collapse to a coordinate.
    """
    x1, x2, x3 = (float(v) for v in x)
    if params.regime is Regime.DEGENERATE:
        if not omega3_contains(params, (x1, x2, x3)):
            _raise_outside(params, x1, x2, x3)
        return x2 if params.r == 2 else x3
    leaf = solve_leaf(params, (x1, x2, x3))
    r, eps = params.r, params.eps
    if leaf.region is Region.SKELETON:
        return abs(x1) ** r
    if leaf.region is Region.XI_ZERO:
        return _central_value(r, eps, leaf.u, x2)
    return _chord_value(r, eps, leaf.u, abs(x1), x2)


def _interior_margin(params: Params, x1: float, x2: float, x3: float, margin: float):
    eps = params.eps
    strip = margin * max(1.0, eps * eps)
    if x2 - x1 * x1 < strip or (x1 * x1 + eps * eps) - x2 < strip:
        raise BoundaryError(f"({x1}, {x2}) within {strip} of the strip boundary")
    lo = bellman2d(params, x1, x2, "lower")
    hi = bellman2d(params, x1, x2, "upper")
    gap = margin * max(1.0, hi - lo)
    if x3 - lo < gap or hi - x3 < gap:
        raise BoundaryError(f"x3 = {x3} within {gap} of the envelope [{lo}, {hi}]")


def gradient(params: Params, x, margin: float = 1e-6) -> np.ndarray:
    """Analytic gradient of value at a strictly interior point."""
    x1, x2, x3 = (float(v) for v in x)
    if params.regime is Regime.DEGENERATE:
        if not omega3_contains(params, (x1, x2, x3)):
            _raise_outside(params, x1, x2, x3)
        return np.array([0.0, 1.0, 0.0]) if params.r == 2 else np.array([0.0, 0.0, 1.0])
    _interior_margin(params, x1, x2, x3, margin)
    leaf = solve_leaf(params, (x1, x2, x3))
    if leaf.region is Region.SKELETON:
        raise BoundaryError("gradient undefined on the skeleton")
    return _gradient_at_leaf(params, leaf.region, leaf.u, x1, x2)


def _gradient_at_leaf(params: Params, region: Region, u: float, x1: float, x2: float) -> np.ndarray:
    p, r, eps = params.p, params.r, params.eps
    if region is Region.XI_ZERO:
        mp_ = m_fn(p, eps, u)
        mr_ = m_fn(r, eps, u)
        m1p = m_fn(p, eps, u, 1)
        m1r = m_fn(r, eps, u, 1)
        rho = (m1r - r * u ** (r - 2.0)) / (m1p - p * u ** (p - 2.0))
        g2 = (mr_ - rho * mp_) / (2.0 * (u + eps))
        return np.array([0.0, g2, rho])
    a1 = abs(x1)
    mp_, kp_ = m_fn(p, eps, u), k_fn(p, eps, u)
    mr_, kr_ = m_fn(r, eps, u), k_fn(r, eps, u)
    m1p, k1p = m_fn(p, eps, u, 1), k_fn(p, eps, u, 1)
    m1r, k1r = m_fn(r, eps, u, 1), k_fn(r, eps, u, 1)
    rho = (m1r - k1r) / (m1p - k1p)
    s1 = -u * (mr_ - kr_) / (2.0 * eps) + (mr_ + kr_) / 2.0
    t1 = -u * (mp_ - kp_) / (2.0 * eps) + (mp_ + kp_) / 2.0
    s2 = (mr_ - kr_) / (4.0 * eps)
    t2 = (mp_ - kp_) / (4.0 * eps)
    g1 = s1 - rho * t1
    if region is Region.XI_MINUS or (region is Region.XI_PLUS and x1 < 0):
        g1 = -g1
    return np.array([g1, s2 - rho * t2, rho])


def hessian(params: Params, x, step: float = 1e-4) -> np.ndarray:
    """Symmetrized central-difference Hessian of value, from the analytic gradient."""
    x = np.asarray(x, dtype=float)
    h = np.zeros((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        gp = gradient(params, x + e)
        gm = gradient(params, x - e)
        h[i] = (gp - gm) / (2.0 * step)
    return 0.5 * (h + h.T)


def hessian_batch(params: Params, pts, step: float = 1e-4) -> np.ndarray:
    """Symmetrized central-difference Hessians from the analytic gradient.

    Per-point steps start at step * max(1, |coord|) and shrink until every
    displaced point keeps a fifth of its boundary slack, so the batched
    gradient call below never trips its interiority guard.
    """
    X = np.asarray(pts, dtype=float)
    n = len(X)
    eps = params.eps
    x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
    a1 = np.abs(x1)
    low, high = _envelope_batch(params, a1, x2)
    slack2 = np.minimum(x2 - a1 * a1, a1 * a1 + eps * eps - x2)
    slack3 = np.minimum(x3 - low, high - x3)
    h1 = step * np.maximum(1.0, a1)
    h2 = np.minimum(step * np.maximum(1.0, x2), 0.25 * slack2)
    h3 = np.minimum(step * np.maximum(1.0, np.abs(x3)), 0.25 * slack3)
    # lateral displacements move the envelope as well; shrink until safe
    z = np.zeros(n)
    for _ in range(6):
        ok = np.ones(n, dtype=bool)
        for dx1, dx2 in ((h1, z), (-h1, z), (z, h2), (z, -h2)):
            a1d = np.abs(x1 + dx1)
            x2d = x2 + dx2
            lo_d, hi_d = _envelope_batch(params, a1d, x2d)
            ok &= (np.minimum(x2d - a1d * a1d, a1d * a1d + eps * eps - x2d) > 0.2 * slack2)
            ok &= (np.minimum(x3 - lo_d, hi_d - x3) > 0.2 * slack3)
        if ok.all():
            break
        h1 = np.where(ok, h1, 0.2 * h1)
        h2 = np.where(ok, h2, 0.2 * h2)
    disp = np.empty((6, n, 3))
    for j, hh in enumerate((h1, h2, h3)):
        for s, sgn in enumerate((1.0, -1.0)):
            d = X.copy()
            d[:, j] += sgn * hh
            disp[2 * j + s] = d
    g = gradient_batch(params, disp.reshape(6 * n, 3), margin=1e-10).reshape(6, n, 3)
    hess = np.empty((n, 3, 3))
    for j, hh in enumerate((h1, h2, h3)):
        hess[:, j, :] = (g[2 * j] - g[2 * j + 1]) / (2.0 * hh)[:, None]
    return 0.5 * (hess + np.transpose(hess, (0, 2, 1)))


def hessian_leaf_batch(params: Params, pts) -> np.ndarray:
    """Closed-form Hessians: rank one, transversal to the leaf family.

    Differentiating the supporting-plane representation through the solved
    chord parameter collapses the second derivative matrix onto the outer
    product of the plane's moment-space gradient with itself; the scalar in
    front is the only carrier of curvature sign.  Eigenvalue checks against
    this form are exact up to symmetric-eigensolver roundoff, which the
    finite-difference route cannot match near the domain boundary.
    """
    X = np.asarray(pts, dtype=float)
    p, r, eps = params.p, params.r, params.eps
    if params.regime is Regime.DEGENERATE:
        return np.zeros((len(X), 3, 3))
    u, central, _ = solve_u_batch(params, X)
    x1, x2 = X[:, 0], X[:, 1]
    out = np.zeros((len(X), 3, 3))

    def rank_one(coef, w):
        return coef[:, None, None] * w[:, :, None] * w[:, None, :]

    if np.any(central):
        # floor keeps the u^(q-3) factors finite on the axis leaf; the
        # collapsed expressions have a limit there and the floor only
        # perturbs by an ulp-scale amount
        uc = np.maximum(u[central], 1e-15)
        x2c = x2[central]
        mp_, mr_ = m_fn(p, eps, uc), m_fn(r, eps, uc)
        m1p, m1r = m_fn(p, eps, uc, 1), m_fn(r, eps, uc, 1)
        m2p, m2r = m_fn(p, eps, uc, 2), m_fn(r, eps, uc, 2)
        dp_ = m1p - p * uc ** (p - 2.0)
        dr_ = m1r - r * uc ** (r - 2.0)
        dp1 = m2p - p * (p - 2.0) * uc ** (p - 3.0)
        dr1 = m2r - r * (r - 2.0) * uc ** (r - 3.0)
        rho1 = (dr1 * dp_ - dr_ * dp1) / (dp_ * dp_)
        t2 = mp_ / (2.0 * (uc + eps))
        fu = (
            p * uc ** (p - 1.0)
            + (-2.0 * uc * mp_ + (x2c - uc * uc) * m1p) / (2.0 * (uc + eps))
            - (x2c - uc * uc) * mp_ / (2.0 * (uc + eps) ** 2)
        )
        w = np.stack([np.zeros_like(uc), t2, -np.ones_like(uc)], axis=1)
        out[central] = rank_one(rho1 / fu, w)
    rest = ~central
    if np.any(rest):
        ur = u[rest]
        a1r, x2r = np.abs(x1[rest]), x2[rest]
        mp_, kp_ = m_fn(p, eps, ur), k_fn(p, eps, ur)
        m1p, k1p = m_fn(p, eps, ur, 1), k_fn(p, eps, ur, 1)
        m2p, k2p = m_fn(p, eps, ur, 2), k_fn(p, eps, ur, 2)
        m1r, k1r = m_fn(r, eps, ur, 1), k_fn(r, eps, ur, 1)
        m2r, k2r = m_fn(r, eps, ur, 2), k_fn(r, eps, ur, 2)
        dmkp, dmkr = m1p - k1p, m1r - k1r
        rho1 = ((m2r - k2r) * dmkp - dmkr * (m2p - k2p)) / (dmkp * dmkp)
        t1 = -ur * (mp_ - kp_) / (2.0 * eps) + (mp_ + kp_) / 2.0
        t2 = (mp_ - kp_) / (4.0 * eps)
        quad = x2r - 2.0 * a1r * ur + ur * ur
        fu = dmkp * (quad - 2.0 * eps * eps) / (4.0 * eps)
        # mirror symmetry flips the x1 component of the plane gradient
        t1 = np.where(x1[rest] < 0.0, -t1, t1)
        w = np.stack([t1, t2, -np.ones_like(ur)], axis=1)
        out[rest] = rank_one(rho1 / fu, w)
    return out


def _envelope_batch(params: Params, a1: np.ndarray, x2: np.ndarray):
    """Vectorized 2d envelope pair (lower, upper) over arrays of |x1|, x2."""
    p, eps = params.p, params.eps
    disc = np.clip(eps * eps - (x2 - a1 * a1), 0.0, None)
    d = np.sqrt(disc)
    up = a1 - eps + d
    um = a1 + eps - d
    # tangent from the outward transform where it exists, central ray otherwise
    upc = np.maximum(up, 0.0)
    am = np.where(
        up > 0.0,
        upc ** p + m_fn(p, eps, upc) * (a1 - upc),
        m_fn(p, eps, 0.0) * x2 / (2.0 * eps),
    )
    umc = np.maximum(um, eps)
    ak = np.where(
        x2 <= eps * eps,
        x2 ** (p / 2.0),
        umc ** p + k_fn(p, eps, umc) * (a1 - umc),
    )
    return (ak, am) if p > 2 else (am, ak)


def _bisect_batch(f, lo: np.ndarray, hi: np.ndarray, increasing: bool, iters: int = 90):
    """Vectorized bisection for elementwise-monotone f; returns midpoints.

    Endpoints whose level sits outside [f(lo), f(hi)] converge to the
    nearer endpoint; the caller judges residuals.
    """
    sign = 1.0 if increasing else -1.0
    a, b = lo.copy(), hi.copy()
    for _ in range(iters):
        mid = 0.5 * (a + b)
        below = sign * f(mid) < 0.0
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    return 0.5 * (a + b)


def solve_u_batch(params: Params, pts, iters: int = 90):
    """Vectorized leaf solve over an (n, 3) array of interior moment triples.

    Returns (u, central, skel) where central[i] marks the x1-independent
    leaf family and skel[i] a skeleton point, whose u is |x1|.  Points the
    dense path cannot settle (clamp ties, boundary degeneracies) are
    re-solved through the scalar path.
    """
    X = np.asarray(pts, dtype=float)
    if X.ndim != 2 or X.shape[1] != 3:
        raise DomainError("expected an (n, 3) array of moment triples")
    p, eps = params.p, params.eps
    n = X.shape[0]
    a1, x2, x3 = np.abs(X[:, 0]), X[:, 1], X[:, 2]
    u_out = np.empty(n)
    central = np.zeros(n, dtype=bool)
    regions = np.empty(n, dtype=object)
    for i in range(n):
        regions[i] = classify(params, X[i])
        if regions[i] is Region.OUTSIDE:
            _raise_outside(params, X[i, 0], X[i, 1], X[i, 2])
    skel = np.array([reg is Region.SKELETON for reg in regions])
    cen = np.array([reg is Region.XI_ZERO for reg in regions])
    chord = ~(skel | cen)
    u_out[skel] = a1[skel]
    increasing = p < 2
    scale = np.maximum(1.0, np.abs(x3))
    fallback = []

    if np.any(cen):
        idx = np.flatnonzero(cen)
        d = np.sqrt(np.clip(eps * eps - (x2[idx] - a1[idx] ** 2), 0.0, None))
        lo = np.maximum(0.0, a1[idx] - eps + d)
        hi = np.minimum(np.sqrt(x2[idx]), eps)
        bad = lo > hi
        t2, t3 = x2[idx], x3[idx]

        def fc(u):
            return u ** p + (t2 - u * u) * m_fn(p, eps, u) / (2.0 * (u + eps)) - t3

        u = _bisect_batch(fc, np.minimum(lo, hi), hi, increasing, iters)
        res = np.abs(fc(u))
        ok = (res <= 1e-8 * scale[idx]) & ~bad
        u_out[idx[ok]] = u[ok]
        central[idx[ok]] = True
        fallback.extend(idx[~ok].tolist())

    if np.any(chord):
        idx = np.flatnonzero(chord)
        d = np.sqrt(np.clip(eps * eps - (x2[idx] - a1[idx] ** 2), 0.0, None))
        lo = np.maximum(eps, a1[idx] - eps + d)
        hi = a1[idx] + eps - d
        bad = lo > hi
        t1, t2, t3 = a1[idx], x2[idx], x3[idx]

        def fq(u):
            mq = m_fn(p, eps, u)
            kq = k_fn(p, eps, u)
            quad = t2 - t1 * t1 + (t1 - u) ** 2
            return u ** p + (mq - kq) / (4.0 * eps) * quad + (mq + kq) / 2.0 * (t1 - u) - t3

        u = _bisect_batch(fq, np.minimum(lo, hi), np.maximum(lo, hi), increasing, iters)
        res = np.abs(fq(u))
        ok = (res <= 1e-8 * scale[idx]) & ~bad
        u_out[idx[ok]] = u[ok]
        fallback.extend(idx[~ok].tolist())

    for i in fallback:
        leaf = solve_leaf(params, X[i])
        u_out[i] = leaf.u
        central[i] = leaf.region is Region.XI_ZERO
    return u_out, central, skel


def value_batch(params: Params, pts) -> np.ndarray:
    """Vectorized value() over an (n, 3) array of moment triples."""
    X = np.asarray(pts, dtype=float)
    if X.ndim != 2 or X.shape[1] != 3:
        raise DomainError("expected an (n, 3) array of moment triples")
    if params.regime is Regime.DEGENERATE:
        for x in X:
            if not omega3_contains(params, x):
                _raise_outside(params, x[0], x[1], x[2])
        return X[:, 1].copy() if params.r == 2 else X[:, 2].copy()
    r, eps = params.r, params.eps
    u, central, skel = solve_u_batch(params, X)
    a1, x2 = np.abs(X[:, 0]), X[:, 1]
    out = np.empty(len(X))
    if np.any(central):
        uc = u[central]
        out[central] = uc ** r + (x2[central] - uc * uc) * m_fn(r, eps, uc) / (2.0 * (uc + eps))
    # the skeleton is the curve of constants: B = |x1|^r, as value() gives
    out[skel] = [abs(x) ** r for x in X[skel, 0]]
    rest = ~(central | skel)
    if np.any(rest):
        ur, t1 = u[rest], a1[rest]
        mr_, kr_ = m_fn(r, eps, ur), k_fn(r, eps, ur)
        quad = x2[rest] - t1 * t1 + (t1 - ur) ** 2
        out[rest] = ur ** r + (mr_ - kr_) / (4.0 * eps) * quad + (mr_ + kr_) / 2.0 * (t1 - ur)
    return out


def gradient_batch(params: Params, pts, margin: float = 1e-6) -> np.ndarray:
    """Vectorized analytic gradients over an (n, 3) array of interior points."""
    X = np.asarray(pts, dtype=float)
    if params.regime is Regime.DEGENERATE:
        g = np.array([0.0, 1.0, 0.0]) if params.r == 2 else np.array([0.0, 0.0, 1.0])
        return np.tile(g, (len(X), 1))
    p, r, eps = params.p, params.r, params.eps
    a1, x2, x3 = np.abs(X[:, 0]), X[:, 1], X[:, 2]
    strip = margin * max(1.0, eps * eps)
    low2, high2 = _envelope_batch(params, a1, x2)
    gap = margin * np.maximum(1.0, high2 - low2)
    bad = (
        (x2 - a1 * a1 < strip)
        | ((a1 * a1 + eps * eps) - x2 < strip)
        | (x3 - low2 < gap)
        | (high2 - x3 < gap)
    )
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise BoundaryError(
            f"point ({X[i, 0]}, {X[i, 1]}, {X[i, 2]}) within margin {margin} of the domain boundary"
        )
    u, central, _ = solve_u_batch(params, X)
    out = np.empty((len(X), 3))
    if np.any(central):
        uc = u[central]
        mp_, mr_ = m_fn(p, eps, uc), m_fn(r, eps, uc)
        m1p, m1r = m_fn(p, eps, uc, 1), m_fn(r, eps, uc, 1)
        rho = (m1r - r * uc ** (r - 2.0)) / (m1p - p * uc ** (p - 2.0))
        out[central, 0] = 0.0
        out[central, 1] = (mr_ - rho * mp_) / (2.0 * (uc + eps))
        out[central, 2] = rho
    rest = ~central
    if np.any(rest):
        ur = u[rest]
        mp_, kp_ = m_fn(p, eps, ur), k_fn(p, eps, ur)
        mr_, kr_ = m_fn(r, eps, ur), k_fn(r, eps, ur)
        m1p, k1p = m_fn(p, eps, ur, 1), k_fn(p, eps, ur, 1)
        m1r, k1r = m_fn(r, eps, ur, 1), k_fn(r, eps, ur, 1)
        rho = (m1r - k1r) / (m1p - k1p)
        s1 = -ur * (mr_ - kr_) / (2.0 * eps) + (mr_ + kr_) / 2.0
        t1 = -ur * (mp_ - kp_) / (2.0 * eps) + (mp_ + kp_) / 2.0
        g1 = s1 - rho * t1
        g1 = np.where(X[rest, 0] < 0.0, -g1, g1)
        out[rest, 0] = g1
        out[rest, 1] = (mr_ - kr_) / (4.0 * eps) - rho * (mp_ - kp_) / (4.0 * eps)
        out[rest, 2] = rho
    return out


def central_u_batch(params: Params, x2: float, x3: np.ndarray, iters: int = 80) -> np.ndarray:
    """Vectorized leaf parameters for points (0, x2, x3[i]) of the central slice.

    Clamps to the admissible chord range; intended for dense scans where
    every x3 already lies between the envelope values.
    """
    p, eps = params.p, params.eps
    x3 = np.asarray(x3, dtype=float)
    lo = np.zeros_like(x3)
    hi = np.full_like(x3, min(math.sqrt(x2), eps))
    sign = 1.0 if p < 2 else -1.0

    def f(u):
        return (u ** p + (x2 - u * u) * m_fn(p, eps, u) / (2.0 * (u + eps)) - x3) * sign

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = f(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def central_value_batch(params: Params, x2: float, u: np.ndarray, exponent: float) -> np.ndarray:
    """Central-leaf plane values at chord parameters u, any exponent."""
    eps = params.eps
    return u ** exponent + (x2 - u * u) * m_fn(exponent, eps, u) / (2.0 * (u + eps))
