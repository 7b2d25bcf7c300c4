"""Bellman function evaluation along the tangent leaf foliation.

Every interior moment triple x sits on exactly one supporting leaf, indexed
by a chord parameter u.  One vectorized kernel locates the leaves of a
whole batch: classify_batch picks each point's leaf family, and a masked
bisection on the defining plane equation in the p-coordinate runs every
point to float resolution under one contract, with the same brackets,
endpoint clamps and residual target for all of them.  The function value
is the same plane in the r-coordinate at the solved u; the gradient and
the leafwise Hessian come from closed expressions in the transforms m and
k there.  solve_leaf, value and gradient are one-row calls of
solve_u_batch, value_batch and gradient_batch, so the scalar and batch
answers are the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    Params,
    Regime,
    Region,
    as_triples,
    bellman2d,
    classify_batch,
    envelope_batch,
)
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


def _plane(q: float, eps: float, u, a1, x2, central) -> np.ndarray:
    """Supporting plane, exponent q, of the leaf at chord parameter u over (|x1|, x2).

    central[i] picks the x1-independent central leaf, otherwise the
    two-sided tangent chord leaf.  u, a1, x2 and central are arrays of one
    shape, except that a1 and x2 may be scalars when every leaf is central.
    """
    m = m_fn(q, eps, u)
    out = u ** q + (x2 - u * u) * m / (2.0 * (u + eps))
    chord = ~central
    if np.any(chord):
        uh, t1, mq = u[chord], a1[chord], m[chord]
        kq = k_fn(q, eps, uh)
        quad = x2[chord] - t1 * t1 + (t1 - uh) ** 2
        out[chord] = uh ** q + (mq - kq) / (4.0 * eps) * quad + (mq + kq) / 2.0 * (t1 - uh)
    return out


def _brackets(eps: float, a1, x2, central):
    """Chord-parameter bracket (lo, hi) of each point's leaf family; empty when lo > hi."""
    d = np.sqrt(np.clip(eps * eps - (x2 - a1 * a1), 0.0, eps * eps))
    up, um = a1 - eps + d, a1 + eps - d
    lo = np.where(central, np.maximum(0.0, up), np.maximum(eps, up))
    hi = np.where(central, np.minimum(np.sqrt(x2), eps), um)
    return lo, hi


def _bisect(f, lo, hi, increasing: bool, scale):
    """Masked bisection for f(u, rows) = 0, monotone in u, one bracket per row.

    Each row clamps to a bracket end whose level misses by at most
    _CLAMP_REL * scale, otherwise halves its bracket until the midpoint
    equals an end, for at most _BISECT_MAX steps, and keeps the u of the
    smallest |f| it saw.  Returns (u, residual, state) with state 1
    solved, 0 level outside the bracket, -1 stalled above the target.
    """
    n = lo.size
    rows = np.arange(n)
    ends = f(np.concatenate([lo, hi]), np.concatenate([rows, rows]))
    flo, fhi = ends[:n], ends[n:]
    # orient every bracket so that f <= 0 at a and f >= 0 at b
    a, b = (lo.copy(), hi.copy()) if increasing else (hi.copy(), lo.copy())
    if not increasing:
        flo, fhi = fhi, flo
    clamp = _CLAMP_REL * scale
    u, res, state = np.empty(n), np.empty(n), np.ones(n, dtype=int)
    low = flo > 0.0
    high = ~low & (fhi < 0.0)
    u[low], res[low] = a[low], flo[low]
    u[high], res[high] = b[high], -fhi[high]
    state[(low | high) & (res > clamp)] = 0
    run = np.flatnonzero(~(low | high))
    a, b = a[run], b[run]
    fa, fb = np.abs(flo[run]), np.abs(fhi[run])
    best_u, best_f = np.where(fa <= fb, a, b), np.minimum(fa, fb)
    live = np.arange(run.size)
    for _ in range(_BISECT_MAX):
        mid = 0.5 * (a[live] + b[live])
        moving = (mid != a[live]) & (mid != b[live])
        live, mid = live[moving], mid[moving]
        if live.size == 0:
            break
        fm = f(mid, run[live])
        better = np.abs(fm) < best_f[live]
        best_u[live[better]] = mid[better]
        best_f[live[better]] = np.abs(fm[better])
        neg = fm < 0.0
        a[live[neg]] = mid[neg]
        b[live[~neg]] = mid[~neg]
    u[run], res[run] = best_u, best_f
    state[run[~(best_f <= _RESIDUAL_REL * scale[run])]] = -1
    return u, res, state


def _raise_outside(params: Params, x1: float, x2: float, x3: float):
    eps = params.eps
    if x2 < x1 * x1 - 1e-12 or x2 > x1 * x1 + eps * eps + 1e-12:
        raise DomainError(
            f"x2 = {x2} outside [x1^2, x1^2 + eps^2] = [{x1 * x1}, {x1 * x1 + eps * eps}]"
        )
    lo = bellman2d(params, x1, x2, "lower")
    hi = bellman2d(params, x1, x2, "upper")
    raise DomainError(f"x3 = {x3} outside the reachable interval [{lo}, {hi}] at ({x1}, {x2})")


def _classify_inside(params: Params, X: np.ndarray) -> np.ndarray:
    """classify_batch of X, raising DomainError at the first point outside the body."""
    regions = classify_batch(params, X)
    bad = np.flatnonzero(regions == Region.OUTSIDE)
    if bad.size:
        _raise_outside(params, *(float(v) for v in X[bad[0]]))
    return regions


def solve_u_batch(params: Params, pts):
    """Leaf solve over an (n, 3) array of moment triples, in one batched kernel.

    Returns (u, central, skel) where central[i] marks the x1-independent
    leaf family and skel[i] a skeleton point, whose u is |x1|.  Each point
    tries its classified family first and the other one when the level
    misses that bracket by more than the clamp slack, so a classification
    tie resolves to whichever bracket holds x3.  The residual target is
    _RESIDUAL_REL * max(1, |x3|) for every point.
    """
    X = as_triples(pts)
    regions = _classify_inside(params, X)
    p, eps = params.p, params.eps
    a1, x2, x3 = np.abs(X[:, 0]), X[:, 1], X[:, 2]
    skel = regions == Region.SKELETON
    central = regions == Region.XI_ZERO
    u = a1.copy()
    todo = np.flatnonzero(~skel)
    fam = central[todo]
    for _attempt in range(2):
        if todo.size == 0:
            break
        lo, hi = _brackets(eps, a1[todo], x2[todo], fam)
        has = np.flatnonzero(lo <= hi)
        sub, sfam = todo[has], fam[has]

        def f(v, rows):
            i = sub[rows]
            return _plane(p, eps, v, a1[i], x2[i], sfam[rows]) - x3[i]

        got, res, state = _bisect(f, lo[has], hi[has], p < 2, np.maximum(1.0, np.abs(x3[sub])))
        if np.any(state < 0):
            k = int(np.flatnonzero(state < 0)[0])
            target = _RESIDUAL_REL * max(1.0, abs(x3[sub[k]]))
            raise ConvergenceError(
                f"leaf bisection stalled at residual {res[k]:.3e} (target {target:.3e})"
            )
        done = state > 0
        u[sub[done]] = got[done]
        central[sub[done]] = sfam[done]
        left = np.ones(todo.size, dtype=bool)
        left[has[done]] = False
        todo, fam = todo[left], ~fam[left]
    if todo.size:
        i = todo[0]
        raise ConvergenceError(f"no leaf bracket admits x3 = {X[i, 2]} at ({X[i, 0]}, {X[i, 1]})")
    return u, central, skel


def leaf_regions(x1, central, skel) -> np.ndarray:
    """Region of each solved leaf, from the masks of solve_u_batch and the sign of x1."""
    out = np.where(np.asarray(x1) >= 0.0, Region.XI_PLUS, Region.XI_MINUS)
    out[central] = Region.XI_ZERO
    out[skel] = Region.SKELETON
    return out


def _one_row(x) -> np.ndarray:
    return np.array([[float(v) for v in x]])


def solve_leaf(params: Params, x) -> Leaf:
    """The leaf through x: solve_u_batch of one row, with its region and bracket."""
    X = _one_row(x)
    u, central, skel = solve_u_batch(params, X)
    region = leaf_regions(X[:, 0], central, skel)[0]
    if skel[0]:
        return Leaf(region, float(u[0]), (float(u[0]), float(u[0])))
    lo, hi = _brackets(params.eps, np.abs(X[:, 0]), X[:, 1], central)
    return Leaf(region, float(u[0]), (float(lo[0]), float(hi[0])))


def value(params: Params, x) -> float:
    """Extremal r-th moment over all admissible functions with moments x.

    Supremum in the max regime, infimum in the min regime; the two
    degenerate exponent patterns collapse to a coordinate.  value_batch of
    one row.
    """
    return float(value_batch(params, _one_row(x))[0])


def gradient(params: Params, x, margin: float = 1e-6) -> np.ndarray:
    """Analytic gradient of value at a strictly interior point; gradient_batch of one row."""
    return gradient_batch(params, _one_row(x), margin)[0]


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
    low, high = envelope_batch(params, a1, x2)
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
            lo_d, hi_d = envelope_batch(params, a1d, x2d)
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
    X = as_triples(pts)
    p, r, eps = params.p, params.r, params.eps
    if params.regime is Regime.DEGENERATE:
        _classify_inside(params, X)
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


def value_batch(params: Params, pts) -> np.ndarray:
    """Vectorized value() over an (n, 3) array of moment triples."""
    X = as_triples(pts)
    if params.regime is Regime.DEGENERATE:
        _classify_inside(params, X)
        return leaf_value(params, X, None, None, None)
    return leaf_value(params, X, *solve_u_batch(params, X))


def leaf_value(params: Params, X: np.ndarray, u, central, skel) -> np.ndarray:
    """value_batch at leaves (u, central, skel) already solved by solve_u_batch."""
    if params.regime is Regime.DEGENERATE:
        return X[:, 1].copy() if params.r == 2 else X[:, 2].copy()
    out = np.empty(len(X))
    live = ~skel
    out[live] = _plane(params.r, params.eps, u[live], np.abs(X[live, 0]), X[live, 1], central[live])
    # the skeleton is the curve of constants: B = |x1|^r
    out[skel] = [abs(x) ** params.r for x in X[skel, 0]]
    return out


def gradient_batch(params: Params, pts, margin: float = 1e-6) -> np.ndarray:
    """Vectorized analytic gradients over an (n, 3) array of interior points.

    Points outside the body raise DomainError, as in value_batch; points
    within margin of its boundary raise BoundaryError.
    """
    X = as_triples(pts)
    if params.regime is Regime.DEGENERATE:
        _classify_inside(params, X)
        g = np.array([0.0, 1.0, 0.0]) if params.r == 2 else np.array([0.0, 0.0, 1.0])
        return np.tile(g, (len(X), 1))
    u, central, _ = solve_u_batch(params, X)
    p, r, eps = params.p, params.r, params.eps
    a1, x2, x3 = np.abs(X[:, 0]), X[:, 1], X[:, 2]
    strip = margin * max(1.0, eps * eps)
    low2, high2 = envelope_batch(params, a1, x2)
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
    fan = np.ones(x3.shape, dtype=bool)

    def f(u):
        return (_plane(p, eps, u, 0.0, x2, fan) - x3) * sign

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = f(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def central_value_batch(params: Params, x2: float, u: np.ndarray, exponent: float) -> np.ndarray:
    """Central-leaf plane values at chord parameters u, any exponent."""
    return _plane(exponent, params.eps, u, 0.0, x2, np.ones(np.shape(u), dtype=bool))
