"""Bellman function evaluation along the tangent leaf foliation.

Every interior moment triple x sits on exactly one supporting leaf, indexed
by a chord parameter u.  One vectorized kernel locates the leaves of a
whole batch: classify_batch picks each point's leaf family, and a masked,
bracketed Newton-bisection on the defining plane equation in the
p-coordinate runs every point to its noise floor under one contract, with
the same brackets, endpoint clamps and residual target for all of them.
The function value is the same plane in the r-coordinate at the solved u;
the gradient and the leafwise Hessian come from closed expressions in the
transforms m and k there.  solve_leaf, value, gradient and hessian are
one-row calls of solve_u_batch, value_batch, gradient_batch and
hessian_batch, so the scalar and batch answers are the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    Params,
    Regime,
    Region,
    as_triples,
    chord_params,
    classify_envelopes,
    envelope_batch,
    leaf_regions,
    omega2_contains,
)
from .errors import BoundaryError, ConvergenceError, DomainError, SingularityError
from .specfn import k_fn, m_fn, next_order

_STEP_MAX = 200
_RESIDUAL_REL = 1e-12
_CLAMP_REL = 1e-10
# a step within this many ulps of u ends a row's solve
_STEP_ULPS = 4.0
# hessian_batch's relative step, and its rounds of fivefold shrinking near the boundary
_FD_STEP = 1e-4
_FD_SHRINKS = 6


@dataclass(frozen=True)
class Leaf:
    """Solved leaf through one moment triple."""

    region: Region
    u: float
    bracket: tuple[float, float]


def _transforms(q: float, eps: float, u, central):
    """(m, k, chord) at exponent q for _plane and _coeffs: m on every row, k on
    the chord-leaf rows, which chord indexes (None for none, a full slice for
    all, so that a one-family batch pays no gather or scatter)."""
    chord = ~central
    if not chord.any():
        return m_fn(q, eps, u), None, None
    chord = slice(None) if chord.all() else chord
    return m_fn(q, eps, u), k_fn(q, eps, u[chord]), chord


def _plane(q: float, eps: float, u, a1, x2, tr, slope: bool = False):
    """Supporting plane, exponent q, of the leaf at chord parameter u over (|x1|, x2).

    tr = _transforms(q, eps, u, central): the central rows take the
    x1-independent central leaf, the chord rows the two-sided tangent
    chord leaf; u, a1 and x2 are arrays of one shape.  With slope it
    returns (plane, d plane / du), the derivative taken from the same m
    and k through m' = (m - q u^(q-1)) / eps and k' = (q u^(q-1) - k) / eps,
    so it costs no further transform call.
    """
    m, kq, chord = tr
    w = x2 - u * u
    out = u ** q + w * m / (2.0 * (u + eps))
    if slope:
        g = q * u ** (q - 1.0)
        d = g + (-2.0 * u * m + w * (m - g) / eps) / (2.0 * (u + eps)) - w * m / (2.0 * (u + eps) ** 2)
    if chord is not None:
        uh, t1, mq = u[chord], a1[chord], m[chord]
        quad = x2[chord] - t1 * t1 + (t1 - uh) ** 2
        out[chord] = uh ** q + (mq - kq) / (4.0 * eps) * quad + (mq + kq) / 2.0 * (t1 - uh)
        if slope:
            # the (t1 - u) terms cancel: d = (m' - k') (quad - 2 eps^2) / (4 eps)
            d[chord] = (mq + kq - 2.0 * g[chord]) / eps * (quad - 2.0 * eps * eps) / (4.0 * eps)
    return (out, d) if slope else out


def _coeffs(q: float, eps: float, u, central, tr, second: bool = False):
    """Leaf coefficients, exponent q, at chord parameters u.

    Returns (t1, t2, d, d1): the |x1| and x2 coefficients of the plane of
    _plane, the rate d whose ratio between exponents r and p is dB/dx3,
    and with second the u-derivative d1 of d (otherwise None).  Orders 1
    and 2 of m and k come from specfn.next_order, as in m_fn and k_fn, so
    the transforms tr = _transforms(q, eps, u, central) serve every order.
    """
    if q < 2 and (u[central] == 0.0).any():
        raise SingularityError(f"leaf rates are singular at u = 0 for exponent {q} < 2")
    m, k, chord = tr
    m1 = next_order("m", q, eps, u, m, 0)
    t1, t2 = np.zeros_like(u), m / (2.0 * (u + eps))
    d = m1 - q * u ** (q - 2.0)
    m2 = next_order("m", q, eps, u, m1, 1) if second else None
    d1 = m2 - q * (q - 2.0) * u ** (q - 3.0) if second else None
    if chord is not None:
        uh, mh = u[chord], m[chord]
        uk = np.maximum(uh, eps)
        k1 = next_order("k", q, eps, uk, k, 0)
        t1[chord] = -uh * (mh - k) / (2.0 * eps) + (mh + k) / 2.0
        t2[chord] = (mh - k) / (4.0 * eps)
        d[chord] = m1[chord] - k1
        if second:
            d1[chord] = m2[chord] - next_order("k", q, eps, uk, k1, 1)
    return t1, t2, d, d1


def _brackets(eps: float, a1, x2, central):
    """Chord-parameter bracket (lo, hi) of each point's leaf family; empty when lo > hi."""
    x2, up, um = chord_params(eps, a1, x2)
    lo = np.where(central, np.maximum(0.0, up), np.maximum(eps, up))
    hi = np.where(central, np.minimum(np.sqrt(x2), eps), um)
    return lo, hi


def _rtsafe_step(x, ratio, fx, dfx, prev, a, b):
    """rtsafe's next iterate: the Newton point x - f/f', or the midpoint of (a, b)."""
    xn = x - ratio
    newton = (xn > a) & (xn < b) & (np.abs(2.0 * fx) <= np.abs(prev * dfx))
    return np.where(newton, xn, 0.5 * (a + b))


def _ulp_walk(g, rows, u, res, a, b, toward):
    """(u, |g|, a, b) after trying up to _STEP_ULPS doubles from u to toward, one g call each.

    g is f with its sign folded in; u keeps the smallest |g| seen, and each
    bracket (a, b) closes on the doubles tried.  Where the plane's u-slope
    is steep, one ulp of u moves the residual by more than the target, so
    the ulp rule can stop a row a double or two from the root.
    """
    u, res, a, b = u.copy(), res.copy(), a.copy(), b.copy()
    live, v = np.arange(u.size), u
    for _ in range(int(_STEP_ULPS)):
        go = v != toward[live]
        live = live[go]
        if not live.size:
            break
        v = np.nextafter(v[go], toward[live])
        gv = g(v, rows[live])
        better = np.abs(gv) < res[live]
        u[live[better]], res[live[better]] = v[better], np.abs(gv[better])
        neg = gv < 0.0
        a[live[neg]] = np.maximum(a[live[neg]], v[neg])
        b[live[~neg]] = np.minimum(b[live[~neg]], v[~neg])
    return u, res, a, b


def _newton(f, lo, hi, increasing: bool, scale):
    """Bracketed Newton-bisection for f(u, rows) = 0 over rows, monotone in u.

    f returns the residual and its u-derivative at each (u, row).  Each
    row clamps to a bracket end whose level misses by at most
    _CLAMP_REL * scale.  Otherwise it starts at the end nearer the level
    and steps as rtsafe does (Press et al., Numerical Recipes, 9.4): a
    Newton step, or the bracket midpoint when the Newton iterate is not
    finite, leaves the bracket, or would not halve the step before last.
    A row stops when its residual is zero, its next Newton step is within
    _STEP_ULPS ulps of u, its bracket has collapsed, or its smallest |f|
    meets the target while its steps have stopped shrinking (the noise
    floor); at most _STEP_MAX steps.  It keeps the u of the smallest |f|
    it saw.  A row that stops on the ulp rule above its target first tries
    the doubles from that u into its bracket (_ulp_walk).  The running
    rows' state sits in dense arrays, compacted when rows stop, and each
    step forms f/f' once, for its stop test and for the next Newton
    iterate.  Returns (u, residual, state) with state 1 solved, 0 level
    outside the bracket, -1 stalled above the target.  A row above its
    target whose bracket has closed on two adjacent doubles, with a
    residual within the clamp slack, is solved: no double meets the target
    there.
    """
    n = lo.size
    rows = np.arange(n)
    sign = 1.0 if increasing else -1.0
    ends, slopes = f(np.concatenate([lo, hi]), np.concatenate([rows, rows]))
    # with the sign folded in, f <= 0 at lo and f >= 0 at hi inside a bracket
    ends, slopes = sign * ends, sign * slopes
    flo, fhi = ends[:n], ends[n:]
    clamp = _CLAMP_REL * scale
    u, res, state = np.empty(n), np.empty(n), np.ones(n, dtype=int)
    low = flo > 0.0
    high = ~low & (fhi < 0.0)
    u[low], res[low] = lo[low], flo[low]
    u[high], res[high] = hi[high], -fhi[high]
    state[(low | high) & (res > clamp)] = 0
    run = np.flatnonzero(~(low | high))
    a, b = lo[run], hi[run]
    near = -flo[run] <= fhi[run]
    x = np.where(near, a, b)
    fx = np.where(near, flo[run], fhi[run])
    dfx = np.where(near, slopes[:n][run], slopes[n:][run])
    u[run], res[run] = x, np.abs(fx)
    mid = 0.5 * (a + b)
    # a bracket closed on adjacent doubles pins the root to the last bit
    pinned = np.zeros(n, dtype=bool)
    pinned[run] = (mid == a) | (mid == b)
    go = (fx != 0.0) & ~pinned[run]
    idx, a, b, x, fx, dfx = run[go], a[go], b[go], x[go], fx[go], dfx[go]
    best_u, best_f, target = x, np.abs(fx), _RESIDUAL_REL * scale[idx]
    step = prev = np.full(idx.size, np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = fx / dfx
        xn = _rtsafe_step(x, ratio, fx, dfx, prev, a, b)
    for _ in range(_STEP_MAX):
        if idx.size == 0:
            break
        prev, step, x = step, np.abs(xn - x), xn
        fx, dfx = f(x, idx)
        fx, dfx = sign * fx, sign * dfx
        better = np.abs(fx) < best_f
        best_u, best_f = np.where(better, x, best_u), np.where(better, np.abs(fx), best_f)
        neg = fx < 0.0
        a, b = np.where(neg, x, a), np.where(neg, b, x)
        mid = 0.5 * (a + b)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = fx / dfx
            nxt = np.abs(ratio)
            ulps = nxt <= _STEP_ULPS * np.spacing(np.abs(x))
            done = (fx == 0.0) | ulps | (mid == a) | (mid == b)
            done |= (best_f <= target) & (nxt >= 0.5 * step)
            if done.any():
                near = done & ulps & (best_f > target)
                if near.any():
                    # the root lies inside the bracket, which best_u ends
                    toward = np.where(best_u[near] - a[near] <= b[near] - best_u[near], b[near], a[near])
                    best_u[near], best_f[near], a[near], b[near] = _ulp_walk(
                        lambda v, i: sign * f(v, i)[0], idx[near], best_u[near], best_f[near], a[near], b[near], toward
                    )
                    mid = 0.5 * (a + b)
                u[idx[done]], res[idx[done]] = best_u[done], best_f[done]
                pinned[idx[done]] = ((mid == a) | (mid == b))[done]
                go = ~done
                idx, a, b, x, fx, dfx, ratio = idx[go], a[go], b[go], x[go], fx[go], dfx[go], ratio[go]
                best_u, best_f, target, step, prev = best_u[go], best_f[go], target[go], step[go], prev[go]
            xn = _rtsafe_step(x, ratio, fx, dfx, prev, a, b)
    u[idx], res[idx] = best_u, best_f
    met = res <= _RESIDUAL_REL * scale
    state[run[~(met[run] | (pinned[run] & (res[run] <= clamp[run])))]] = -1
    return u, res, state


def _inside(params: Params, pts):
    """(X, regions, low, high): pts as an (n, 3) array with classify_envelopes' regions
    and envelope pair, after a DomainError at the first row outside the body."""
    X = as_triples(pts)
    regions, low, high = classify_envelopes(params, X)
    bad = np.flatnonzero(regions == Region.OUTSIDE)
    if bad.size:
        i, eps = bad[0], params.eps
        x1, x2, x3 = (float(v) for v in X[i])
        if not np.isfinite([x1, x2, x3]).all():
            raise DomainError(f"point ({x1}, {x2}, {x3}) has a non-finite coordinate")
        if not omega2_contains(eps, x1, x2):
            raise DomainError(
                f"x2 = {x2} outside [x1^2, x1^2 + eps^2] = [{x1 * x1}, {x1 * x1 + eps * eps}]"
            )
        raise DomainError(f"x3 = {x3} outside the reachable interval [{low[i]}, {high[i]}] at ({x1}, {x2})")
    return X, regions, low, high


def _slack(eps: float, a1, x2, x3, low, high):
    """(strip, envelope) distances of the points (|x1|, x2, x3) from the parabolas
    bounding the strip and from the envelope pair (low, high)."""
    return np.minimum(x2 - a1 * a1, a1 * a1 + eps * eps - x2), np.minimum(x3 - low, high - x3)


def solve_u_batch(params: Params, pts):
    """Leaf solve over an (n, 3) array of moment triples, in one batched kernel.

    Returns (u, central, skel) where central[i] marks the x1-independent
    leaf family and skel[i] a skeleton point, whose u is |x1|.  Each point
    tries its classified family first and the other one when the level
    misses that bracket by more than the clamp slack, so a classification
    tie resolves to whichever bracket holds x3.  The residual target is
    _RESIDUAL_REL * max(1, |x3|) for every point.
    """
    X, regions, _, _ = _inside(params, pts)
    return _solve(params, X, regions)


def _solve(params: Params, X: np.ndarray, regions: np.ndarray):
    """solve_u_batch of the (n, 3) array X, whose rows are inside the body in these regions."""
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
            val, slope = _plane(p, eps, v, a1[i], x2[i], _transforms(p, eps, v, sfam[rows]), slope=True)
            return val - x3[i], slope

        got, res, state = _newton(f, lo[has], hi[has], p < 2, np.maximum(1.0, np.abs(x3[sub])))
        if (state < 0).any():
            k = int(np.flatnonzero(state < 0)[0])
            target = _RESIDUAL_REL * max(1.0, abs(x3[sub[k]]))
            raise ConvergenceError(f"leaf solve stalled at residual {res[k]:.3e} (target {target:.3e})")
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


def hessian(params: Params, x) -> np.ndarray:
    """Symmetrized central-difference Hessian of value; hessian_batch of one row."""
    return hessian_batch(params, _one_row(x))[0]


def hessian_batch(params: Params, pts) -> np.ndarray:
    """Symmetrized central-difference Hessians from the analytic gradient.

    Outside points raise DomainError as in value_batch.  Per-point steps start
    at _FD_STEP * max(1, |coord|) and shrink until each displaced point keeps
    a fifth of its boundary slack, so the batched gradient call never trips its
    guard; a point still unsafe after _FD_SHRINKS rounds raises BoundaryError.
    """
    X, _, low, high = _inside(params, pts)
    n = len(X)
    eps = params.eps
    x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
    a1 = np.abs(x1)
    slack2, slack3 = _slack(eps, a1, x2, x3, low, high)
    h1 = _FD_STEP * np.maximum(1.0, a1)
    h2 = np.minimum(_FD_STEP * np.maximum(1.0, x2), 0.25 * slack2)
    h3 = np.minimum(_FD_STEP * np.maximum(1.0, np.abs(x3)), 0.25 * slack3)
    # lateral displacements move the envelope as well; shrink until safe
    z = np.zeros(n)
    for _ in range(_FD_SHRINKS):
        ok = np.ones(n, dtype=bool)
        for dx1, dx2 in ((h1, z), (-h1, z), (z, h2), (z, -h2)):
            a1d = np.abs(x1 + dx1)
            x2d = x2 + dx2
            s2, s3 = _slack(eps, a1d, x2d, x3, *envelope_batch(params, a1d, x2d))
            ok &= s2 > 0.2 * slack2
            ok &= s3 > 0.2 * slack3
        if ok.all():
            break
        h1 = np.where(ok, h1, 0.2 * h1)
        h2 = np.where(ok, h2, 0.2 * h2)
    _refuse_boundary(X, ~ok, _FD_STEP * 0.2 ** (_FD_SHRINKS - 1))
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
    Skeleton points, where no leaf passes transversally, raise
    BoundaryError as in gradient_batch, and rows whose plane's u-slope
    rounds to 0 (far out at p = 1, where k rounds to m) SingularityError.
    """
    X, regions, _, _ = _inside(params, pts)
    p, r, eps = params.p, params.r, params.eps
    if params.regime is Regime.DEGENERATE:
        return np.zeros((len(X), 3, 3))
    u, central, skel = _solve(params, X, regions)
    _refuse_boundary(X, skel, 0.0)
    x1, x2 = X[:, 0], X[:, 1]
    # floor keeps the u^(q-3) factors finite on the axis leaf; the collapsed
    # expressions have a limit there and the floor only perturbs by an
    # ulp-scale amount
    uf = np.maximum(u, 1e-15)
    tp = _transforms(p, eps, uf, central)
    fu = _plane(p, eps, uf, np.abs(x1), x2, tp, slope=True)[1]
    if (fu == 0.0).any():
        i = int(np.argmax(fu == 0.0))
        raise SingularityError(f"the leaf plane's u-slope rounds to 0 at row {i}, point {X[i].tolist()}")
    t1, t2, dp, dp1 = _coeffs(p, eps, uf, central, tp, second=True)
    _, _, dr, dr1 = _coeffs(r, eps, uf, central, _transforms(r, eps, uf, central), second=True)
    # mirror symmetry flips the x1 component of the plane gradient
    w = np.stack([np.where(x1 < 0.0, -t1, t1), t2, -np.ones_like(u)], axis=1)
    coef = (dr1 * dp - dr * dp1) / (dp * dp) / fu
    return coef[:, None, None] * w[:, :, None] * w[:, None, :]


def value_batch(params: Params, pts) -> np.ndarray:
    """Vectorized value() over an (n, 3) array of moment triples."""
    X, regions, _, _ = _inside(params, pts)
    if params.regime is Regime.DEGENERATE:
        return leaf_value(params, X, None, None, None)
    return leaf_value(params, X, *_solve(params, X, regions))


def leaf_value(params: Params, X: np.ndarray, u, central, skel) -> np.ndarray:
    """value_batch at leaves (u, central, skel) already solved by solve_u_batch."""
    if params.regime is Regime.DEGENERATE:
        return X[:, 1].copy() if params.r == 2 else X[:, 2].copy()
    out = np.empty(len(X))
    live = ~skel
    r, eps, ul = params.r, params.eps, u[live]
    out[live] = _plane(r, eps, ul, np.abs(X[live, 0]), X[live, 1], _transforms(r, eps, ul, central[live]))
    # the skeleton is the curve of constants: B = |x1|^r
    out[skel] = [abs(x) ** params.r for x in X[skel, 0]]
    return out


def _refuse_boundary(X: np.ndarray, bad, margin: float):
    """BoundaryError naming the first row of X flagged in bad."""
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise BoundaryError(
            f"point ({X[i, 0]}, {X[i, 1]}, {X[i, 2]}) within margin {margin} of the domain boundary"
        )


def gradient_batch(params: Params, pts, margin: float = 1e-6) -> np.ndarray:
    """Vectorized analytic gradients over an (n, 3) array of interior points.

    Points outside the body raise DomainError, as in value_batch; points
    within margin of its boundary raise BoundaryError.
    """
    X, regions, low, high = _inside(params, pts)
    if params.regime is Regime.DEGENERATE:
        g = np.array([0.0, 1.0, 0.0]) if params.r == 2 else np.array([0.0, 0.0, 1.0])
        return np.tile(g, (len(X), 1))
    u, central, _ = _solve(params, X, regions)
    p, r, eps = params.p, params.r, params.eps
    # the envelopes classify_envelopes tested x3 against serve the margin test
    strip, gap = _slack(eps, np.abs(X[:, 0]), X[:, 1], X[:, 2], low, high)
    bad = (strip < margin * max(1.0, eps * eps)) | (gap < margin * np.maximum(1.0, high - low))
    _refuse_boundary(X, bad, margin)
    t1p, t2p, dp, _ = _coeffs(p, eps, u, central, _transforms(p, eps, u, central))
    t1r, t2r, dr, _ = _coeffs(r, eps, u, central, _transforms(r, eps, u, central))
    rho = dr / dp
    g1 = t1r - rho * t1p
    return np.column_stack([np.where(X[:, 0] < 0.0, -g1, g1), t2r - rho * t2p, rho])


def central_u_batch(params: Params, x2: float, x3) -> np.ndarray:
    """Leaf parameters of the points (0, x2, x3[i]) of the centred slice: solve_u_batch of those rows."""
    x3 = np.asarray(x3, dtype=float)
    X = np.column_stack([np.zeros(x3.size), np.full(x3.size, float(x2)), x3.ravel()])
    return solve_u_batch(params, X)[0].reshape(x3.shape)
