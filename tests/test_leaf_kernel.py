"""The vectorized leaf kernel: one contract for scalar and batch calls.

solve_leaf, value and gradient are one-row calls of the batch functions,
so every comparison here is exact.  The edge cases pin the paths a point
can take through the kernel: Newton steps and their bisection fallback,
endpoint clamps, the second leaf family, the skeleton, and chord
parameters 60 eps out, in the far field of k_fn.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmobell.bellman as bellman
import bmobell.domain as domain
from bmobell import (
    BoundaryError,
    DomainError,
    Params,
    Region,
    bellman2d,
    classify,
    extract_constant,
    gamma_fn,
    gradient,
    gradient_batch,
    hessian,
    hessian_batch,
    hessian_leaf_batch,
    solve_leaf,
    transition_level,
    value,
    value_batch,
)
from bmobell.bellman import _brackets, _coeffs, _plane, _transforms, central_u_batch, solve_u_batch
from bmobell.specfn import k_fn, m_fn


def point(params, s1, f2, f3):
    """The interior point at x1 = s1 eps, strip fraction f2, envelope fraction f3."""
    eps = params.eps
    x1 = s1 * eps
    x2 = x1 * x1 + f2 * eps * eps
    lo = bellman2d(params, x1, x2, "lower")
    hi = bellman2d(params, x1, x2, "upper")
    return (x1, x2, lo + f3 * (hi - lo))


def p_residuals(params, pts):
    """|p-plane at each solved leaf - x3|, relative to max(1, |x3|)."""
    X = np.asarray(pts, dtype=float)
    u, central, skel = solve_u_batch(params, X)
    assert not np.any(skel)
    p, eps = params.p, params.eps
    got = _plane(p, eps, u, np.abs(X[:, 0]), X[:, 1], _transforms(p, eps, u, central))
    return np.abs(got - X[:, 2]) / np.maximum(1.0, np.abs(X[:, 2]))


def p_residual(params, x):
    return p_residuals(params, [x])[0]


def slice_rows(params, x2, fractions):
    """Points (0, x2, x3) of the centred slice at the given envelope fractions."""
    lo = bellman2d(params, 0.0, x2, "lower")
    hi = bellman2d(params, 0.0, x2, "upper")
    return [(0.0, x2, lo + t * (hi - lo)) for t in fractions]


def interior(params, n, seed):
    """n points like the benchmark's: |x1| <= 2.5 eps, fractions in [0.05, 0.95]."""
    rng = np.random.default_rng(seed)
    draws = zip(rng.uniform(-2.5, 2.5, n), rng.uniform(0.05, 0.95, n), rng.uniform(0.05, 0.95, n))
    return [point(params, *d) for d in draws]


# --------------------------------------------------------------- properties

# p near 2 is where the plane equation is worst conditioned; r = 10 and
# eps far from 1 stress the scale of the residual target
PAIRS = [(1.999, 10.0), (2.001, 10.0), (1.0, 3.0), (4.0, 3.0), (1.5, 1.2)]
FRACTION = st.floats(0.01, 0.99)
POINT = st.tuples(st.floats(-2.5, 2.5), FRACTION, FRACTION)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    pair=st.sampled_from(PAIRS),
    eps=st.sampled_from([0.3, 1.0, 3.0]),
    target=POINT,
    others=st.lists(POINT, min_size=1, max_size=6),
    slot=st.integers(0, 6),
)
def test_scalar_batch_and_neighbours_agree_exactly(pair, eps, target, others, slot):
    pa = Params(*pair, eps)
    x = point(pa, *target)
    alone_b = value_batch(pa, [x])[0]
    alone_u = solve_u_batch(pa, [x])[0][0]
    # near p = 2 the envelopes close in, so the default margin would refuse points
    alone_g = gradient_batch(pa, [x], margin=1e-300)[0]
    alone_h = hessian_leaf_batch(pa, [x])[0]
    assert value(pa, x) == alone_b
    assert solve_leaf(pa, x).u == alone_u
    assert np.array_equal(gradient(pa, x, margin=1e-300), alone_g)
    # the same point among other rows, at any position, gives the same bits;
    # one row is always one leaf family, so this pins the one-family paths
    # against the mixed ones
    rows = [point(pa, *o) for o in others]
    k = min(slot, len(rows))
    rows.insert(k, x)
    assert value_batch(pa, rows)[k] == alone_b
    assert solve_u_batch(pa, rows)[0][k] == alone_u
    assert np.array_equal(gradient_batch(pa, rows, margin=1e-300)[k], alone_g)
    assert np.array_equal(hessian_leaf_batch(pa, rows)[k], alone_h)


# --------------------------------------------------------------- edge cases


@pytest.mark.parametrize("pair,eps", [((1.0, 3.0), 1.0), ((4.0, 3.0), 1.0), ((1.5, 3.0), 0.6)])
def test_points_on_the_envelopes_solve_by_clamp_or_bisection(pair, eps):
    pa = Params(*pair, eps)
    on, inside = [], []
    for s1 in (0.0, 0.3, -0.9, 1.6, 2.4):
        for f2 in (0.2, 0.7, 1.0):
            x1 = s1 * eps
            x2 = x1 * x1 + f2 * eps * eps
            for side, nudge in (("lower", 1.0), ("upper", -1.0)):
                x3 = bellman2d(pa, x1, x2, side)
                on.append((x1, x2, x3))
                inside.append((x1, x2, x3 + nudge * 1e-9 * max(1.0, abs(x3))))
    got = value_batch(pa, on)
    assert np.array_equal(got, [value(pa, x) for x in on])
    np.testing.assert_allclose(got, value_batch(pa, inside), rtol=1e-6)
    for x in on:
        leaf = solve_leaf(pa, x)
        assert leaf.bracket[0] <= leaf.u <= leaf.bracket[1]
        assert p_residual(pa, x) <= 1e-10


def test_leaf_rates_are_the_transform_orders_combined():
    # _coeffs takes orders 1 and 2 of m and k from the order-0 values it is
    # handed; they must be m_fn's and k_fn's own, bit for bit, on both
    # families, the pinned pairs, p near 2 and the min regime
    rng = np.random.default_rng(23)
    for pair in [(1.0, 3.0), (2.5, 4.0), (1.5, 3.0), (4.0, 3.0), (1.999, 10.0), (2.001, 10.0), (1.5, 1.2)]:
        for eps in (0.3, 1.0, 3.0):
            pa = Params(*pair, eps)
            fr = zip(rng.uniform(-2.5, 2.5, 60), rng.uniform(0.05, 0.95, 60), rng.uniform(0.05, 0.95, 60))
            u, central, _ = solve_u_batch(pa, [point(pa, *t) for t in fr])
            assert 0 < central.sum() < u.size
            u, c = np.maximum(u, 1e-15), ~central
            for q in pair:
                _, _, d, d1 = _coeffs(q, eps, u, central, _transforms(q, eps, u, central), second=True)
                m1, m2 = m_fn(q, eps, u, 1), m_fn(q, eps, u, 2)
                assert np.array_equal(d[central], (m1 - q * u ** (q - 2.0))[central])
                assert np.array_equal(d1[central], (m2 - q * (q - 2.0) * u ** (q - 3.0))[central])
                assert np.array_equal(d[c], m1[c] - k_fn(q, eps, u[c], 1))
                assert np.array_equal(d1[c], m2[c] - k_fn(q, eps, u[c], 2))


def test_transition_leaf_points_solve_in_either_family(monkeypatch):
    # on the transition leaf both families hold the point at u = eps; a tie
    # classifies it central, and with the classification flipped to the
    # chord side the kernel must reach the same leaf
    pa = Params(1.0, 3.0)
    pts = []
    for x1 in (0.0, 0.2, -0.6, 1.1):
        x2 = max(1.0, 4.0 * abs(x1) - 3.0) + 0.5 * (x1 * x1 + 1.0 - max(1.0, 4.0 * abs(x1) - 3.0))
        pts.append((x1, x2, transition_level(pa, x2)))
    assert all(classify(pa, x) is Region.XI_ZERO for x in pts)
    u, central, _ = solve_u_batch(pa, pts)
    assert np.all(central) and np.all(u == pa.eps)
    want = value_batch(pa, pts)

    real = bellman.classify_envelopes

    def chord_side(params, X):
        reg, low, high = real(params, X)
        reg[reg == Region.XI_ZERO] = Region.XI_PLUS
        return reg, low, high

    monkeypatch.setattr(bellman, "classify_envelopes", chord_side)
    u2, central2, _ = solve_u_batch(pa, pts)
    assert not np.any(central2) and np.all(u2 == pa.eps)
    np.testing.assert_allclose(value_batch(pa, pts), want, rtol=1e-14)


def test_misclassified_points_fall_back_to_the_other_family(monkeypatch):
    # every point tries its classified family first; when the level misses
    # that bracket the other family must give exactly the leaf it would
    # have given first
    pa = Params(1.5, 3.0, 0.6)
    rng = np.random.default_rng(3)
    fractions = zip(rng.uniform(-2.0, 2.0, 30), rng.uniform(0.05, 0.95, 30), rng.uniform(0.05, 0.95, 30))
    pts = [point(pa, *t) for t in fractions]
    u, central, _ = solve_u_batch(pa, pts)
    assert 0 < central.sum() < len(pts)

    real = bellman.classify_envelopes

    def flipped(params, X):
        reg, low, high = real(params, X)
        fan = reg == Region.XI_ZERO
        chord = (reg == Region.XI_PLUS) | (reg == Region.XI_MINUS)
        reg[fan] = Region.XI_PLUS
        reg[chord] = Region.XI_ZERO
        return reg, low, high

    monkeypatch.setattr(bellman, "classify_envelopes", flipped)
    u2, central2, _ = solve_u_batch(pa, pts)
    assert np.array_equal(central2, central)
    assert np.array_equal(u2, u)


def test_skeleton_points_skip_the_solve():
    for pa in (Params(1.0, 3.0), Params(4.0, 3.0, 0.6)):
        pts = [(t, t * t, abs(t) ** pa.p) for t in (-1.7, 0.0, 0.4, 2.2)]
        u, central, skel = solve_u_batch(pa, pts)
        assert np.all(skel) and not np.any(central)
        assert np.array_equal(u, [abs(x[0]) for x in pts])
        for x in pts:
            leaf = solve_leaf(pa, x)
            assert leaf.region is Region.SKELETON
            assert leaf.bracket == (leaf.u, leaf.u) == (abs(x[0]), abs(x[0]))
            assert value(pa, x) == abs(x[0]) ** pa.r


@pytest.mark.parametrize("pair,eps", [((1.0, 3.0), 1.0), ((4.0, 3.0), 0.5), ((2.5, 4.0), 2.0)])
def test_chord_parameters_past_the_k_window(pair, eps):
    # |x1| = 60 eps puts u in the far field of k_fn, where its backward
    # kernel has forgotten the left end, and past the switch of m_fn to its
    # exponential-weight rule
    pa = Params(*pair, eps)
    grid = (0.1, 0.5, 0.9)
    pts = [point(pa, s, f2, f3) for s in (60.0, -60.0) for f2 in grid for f3 in grid]
    u, central, _ = solve_u_batch(pa, pts)
    assert not np.any(central) and np.all(u > 45.0 * eps)
    got = value_batch(pa, pts)
    assert np.array_equal(got, [value(pa, x) for x in pts])
    assert np.array_equal(got[:9], got[9:])  # even in x1
    for x in pts:
        assert p_residual(pa, x) <= 1e-12
    # the value is an r-th moment, so it lies between the r-moment envelopes
    pr = Params(pa.r, pa.p, eps)
    for x, b in zip(pts, got):
        lo, hi = bellman2d(pr, x[0], x[1], "lower"), bellman2d(pr, x[0], x[1], "upper")
        assert lo * (1.0 - 1e-12) <= b <= hi * (1.0 + 1e-12)
    # for p = 1 both envelopes round to x3 itself out there, so every
    # margin refuses the points as boundary points
    if pa.p == 1.0:
        with pytest.raises(BoundaryError, match="domain boundary"):
            gradient_batch(pa, pts, margin=1e-300)
        return
    g = gradient_batch(pa, pts)
    assert np.array_equal(g[4], gradient(pa, pts[4]))



# --------------------------------------------------------------- the solver


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_central_rows_near_the_axis_leaf(p):
    # for 1 < p < 2 the plane's u-slope vanishes like u^(p-1) at u = 0, so
    # Newton iterates there are not finite or leave the bracket and the
    # rows must bisect down to the axis
    pa = Params(p, 3.0)
    fractions = (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1)
    for x2 in (0.05, 0.5, 1.0):
        rows = slice_rows(pa, x2, fractions)
        u, central, _ = solve_u_batch(pa, rows)
        assert np.all(central)
        # rows within the residual target of the axis level may stop at u = 0
        assert np.all(np.diff(u) >= 0.0) and 0.0 <= u[0] < u[-1] < min(np.sqrt(x2), 1.0)
        assert p_residuals(pa, rows).max() <= 1e-12
        assert np.array_equal(value_batch(pa, rows), [value(pa, x) for x in rows])


@pytest.mark.parametrize("p", [1.999, 2.001])
@pytest.mark.parametrize("eps", [0.3, 3.0])
def test_solver_near_p_two(p, eps):
    # the plane equation is worst conditioned next to p = 2
    pa = Params(p, 10.0, eps)
    rows = interior(pa, 60, seed=17)
    rows += slice_rows(pa, 0.4 * eps * eps, (0.0, 1e-9, 0.3, 0.9, 1.0))
    assert p_residuals(pa, rows).max() <= 1e-12
    assert np.array_equal(value_batch(pa, rows), [value(pa, x) for x in rows])


@pytest.mark.parametrize("p", [1.0, 1.5, 1.999, 2.001, 2.5, 4.0, 6.0, 8.0])
@pytest.mark.parametrize("eps", [0.3, 1.0, 3.0])
def test_solver_contract_across_the_p_eps_plane(p, eps):
    # 200 interior rows, |x1| up to 10 eps and fractions in [0.01, 0.99],
    # meet the residual target; 200 rows on the envelopes, alternately lower
    # and upper, meet the clamp slack.  The p-solve does not depend on r.
    pa = Params(p, p + 2.0, eps)
    rng = np.random.default_rng(31)
    x1 = eps * rng.uniform(-10.0, 10.0, 200)
    x2 = x1 * x1 + eps * eps * rng.uniform(0.01, 0.99, 200)
    lo = np.array([bellman2d(pa, a, b, "lower") for a, b in zip(x1, x2)])
    hi = np.array([bellman2d(pa, a, b, "upper") for a, b in zip(x1, x2)])
    inner = np.column_stack([x1, x2, lo + rng.uniform(0.01, 0.99, 200) * (hi - lo)])
    ends = np.column_stack([x1, x2, np.where(np.arange(200) % 2 == 0, lo, hi)])
    assert p_residuals(pa, inner).max() <= 1e-12
    assert p_residuals(pa, ends).max() <= 1e-10


@pytest.mark.parametrize("pair", [(1.0, 3.0), (1.5, 3.0), (2.5, 4.0), (4.0, 3.0), (1.999, 10.0)])
@pytest.mark.parametrize("eps", [1.0, 0.3, 3.0])
def test_centred_slice_envelopes_land_on_the_bracket_ends(pair, eps):
    # at x1 = 0 the a_m envelope is the leaf u = 0 and the a_k envelope the
    # leaf u = sqrt(x2), both bracket ends: each row clamps there or solves
    # to within rounding of it
    pa = Params(*pair, eps)
    x2 = eps * eps * np.linspace(0.01, 1.0, 25)
    m_side = "lower" if pa.p < 2 else "upper"
    rows, ends = [], []
    for v in x2:
        for side in ("lower", "upper"):
            rows.append((0.0, v, bellman2d(pa, 0.0, v, side)))
            ends.append(0.0 if side == m_side else min(np.sqrt(v), eps))
    u, central, _ = solve_u_batch(pa, rows)
    assert np.all(central)
    lo, hi = _brackets(eps, np.zeros(len(rows)), x2.repeat(2), central)
    assert np.all((lo <= u) & (u <= hi))
    assert np.max(np.abs(u - ends)) <= 1e-12 * eps
    assert p_residuals(pa, rows).max() <= 1e-10


@pytest.mark.parametrize("pair", [(1.0, 3.0), (2.5, 4.0), (1.5, 3.0), (4.0, 3.0)])
def test_dense_centred_slice_block_meets_the_residual_target(pair):
    # extract_constant's rows: a dense (0, x2, x3) block, envelopes included
    pa = Params(*pair)
    x2 = np.linspace(0.0, 1.0, 81)[1:]
    lo, hi = domain.envelope_batch(pa, np.zeros_like(x2), x2)
    x3 = np.linspace(lo, hi, 80, axis=1)
    X = np.column_stack([np.zeros(x3.size), x2.repeat(80), x3.ravel()])
    assert p_residuals(pa, X).max() <= 1e-12
    u = solve_u_batch(pa, X)[0].reshape(x3.shape)
    assert np.array_equal(central_u_batch(pa, x2[7], x3[7]), u[7])


def test_steep_p_planes_solve_at_the_double_next_to_the_root():
    # at p = 8 one ulp of u moves the p-plane by about 6e-12 at (0, 1, 7.0477),
    # so the solve stopped on the ulp rule a double short of the one that
    # meets the target, and raised ConvergenceError
    pa = Params(8.0, 10.0)
    assert np.isfinite(value_batch(pa, [[0.0, 1.0, 7.0477]])).all()
    assert p_residual(pa, (0.0, 1.0, 7.0477)) <= 1e-12
    # on the slice's lower envelope, as at (0, 0.27, 0.27^4), no double
    # meets the target: the bracket closes on the two around the root, and
    # the solve keeps the better one, within the clamp slack
    for r in (10.0, 12.0):
        c, _ = extract_constant(Params(8.0, r), 200)
        assert c**r == pytest.approx(gamma_fn(r + 1.0) / gamma_fn(9.0), rel=1e-3)
    low = domain.envelope_batch(pa, np.zeros(1), np.array([0.27]))[0][0]
    assert 1e-12 < p_residual(pa, (0.0, 0.27, low)) <= 1e-10


def test_a_start_end_within_its_target_whose_newton_step_rounds_to_nothing_is_kept():
    # f rises with slope 1e4 through [1, 2] and misses by -4e-13 at the start
    # end 1, within the target 1e-12, so the Newton step, 4e-17, rounds to
    # nothing; the next double reads a smaller |f| only through the rounding
    # noise written into f there.  The row keeps 1 and evaluates nothing
    # past its ends.
    up = np.nextafter(1.0, 2.0)
    calls = []

    def f(v, rows):
        calls.append(v.size)
        return np.where(v == up, 1e-13, 1e4 * (v - 1.0) - 4e-13), np.full(v.size, 1e4)

    u, res, state = bellman._newton(f, np.array([1.0]), np.array([2.0]), True, np.ones(1))
    assert (u[0], res[0], state[0]) == (1.0, 4e-13, 1)
    assert calls == [2]


@pytest.mark.parametrize("pair", [(1.0, 3.0), (2.5, 4.0), (1.5, 3.0), (4.0, 3.0), (8.0, 10.0)])
def test_value_batch_costs_few_m_fn_calls(pair, monkeypatch):
    # a count, not a timing: each solver step evaluates m once for the
    # whole batch, so the calls of one value_batch bound the steps of its
    # slowest row; halving brackets took 57-59 calls here.  At (8, 10) the
    # rows are the 400 envelope rows of extract_constant's density-200
    # slice, where a Newton step from the start end can round to nothing;
    # bisecting from there across the bracket took 67 calls
    pa = Params(*pair)
    if pair == (8.0, 10.0):
        x2 = np.linspace(0.0, 1.0, 201)[1:]
        lo, hi = domain.envelope_batch(pa, np.zeros_like(x2), x2)
        rows = np.column_stack([np.zeros(400), np.tile(x2, 2), np.concatenate([lo, hi])])
    else:
        rows = interior(pa, 250, seed=23)
    calls = []
    real = bellman.m_fn

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bellman, "m_fn", counted)
    monkeypatch.setattr(domain, "m_fn", counted)
    value_batch(pa, rows)
    assert len(calls) <= 16


@pytest.mark.parametrize("pair", [(1.0, 3.0), (2.5, 4.0), (1.5, 3.0), (4.0, 3.0)])
def test_hessian_leaf_batch_evaluates_m_once_per_exponent(pair, monkeypatch):
    # after its solve the closed-form Hessian needs m at p, for the plane's
    # slope and the p-rates alike, and m at r: two calls, not three
    pa = Params(*pair)
    rows = interior(pa, 250, seed=23)
    calls = []
    real_m, real_solve = bellman.m_fn, bellman._solve

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real_m(*args, **kwargs)

    def solve(*args, **kwargs):
        out = real_solve(*args, **kwargs)
        calls.clear()
        return out

    monkeypatch.setattr(bellman, "m_fn", counted)
    monkeypatch.setattr(bellman, "_solve", solve)
    bellman.hessian_leaf_batch(pa, rows)
    assert calls == [pa.p, pa.r]


@pytest.mark.parametrize("pair", [(1.0, 3.0), (2.5, 4.0), (1.5, 3.0), (4.0, 3.0)])
def test_gradient_batch_forms_the_envelopes_once(pair, monkeypatch):
    # the margin test reads the envelopes the classification formed, so the
    # transforms behind them run once per row, not twice; the gradients are
    # the same bits as with the envelopes formed again
    pa = Params(*pair)
    rows = interior(pa, 250, seed=23)
    want = gradient_batch(pa, rows)
    calls = []
    real = domain.envelope_batch

    def counted(params, a1, x2):
        calls.append(np.size(a1))
        return real(params, a1, x2)

    monkeypatch.setattr(domain, "envelope_batch", counted)
    monkeypatch.setattr(bellman, "envelope_batch", counted)
    got = gradient_batch(pa, rows)
    assert calls == [len(rows)]
    assert got.tobytes() == want.tobytes()
    X = np.array(rows)
    low, high = real(pa, np.abs(X[:, 0]), X[:, 1])
    _, low2, high2 = domain.classify_envelopes(pa, X)
    assert low2.tobytes() == low.tobytes() and high2.tobytes() == high.tobytes()

OUTSIDE_TEXT = [
    ((1.0, 3.0, 1.0), (0.0, 1.2, 0.5), "x2 = 1.2 outside [x1^2, x1^2 + eps^2] = [0.0, 1.0]"),
    ((1.0, 3.0, 1.0), (0.0, 1.0, 99.0), "x3 = 99.0 outside the reachable interval [0.5, 1.0] at (0.0, 1.0)"),
    (
        (4.0, 3.0, 0.6),
        (0.5, 0.4, 5.0),
        "x3 = 5.0 outside the reachable interval [0.1604662251671506, 1.3470636416237092] at (0.5, 0.4)",
    ),
    (
        (1.5, 3.0, 1.0),
        (1.5, 3.0, 9.0),
        "x3 = 9.0 outside the reachable interval [2.0342020585529923, 2.2346201731660864] at (1.5, 3.0)",
    ),
    ((1.0, 3.0, 1.0), (2.0, 3.9, 2.0), "x2 = 3.9 outside [x1^2, x1^2 + eps^2] = [4.0, 5.0]"),
    ((1.0, 2.0, 1.0), (0.0, 5.0, 0.0), "x2 = 5.0 outside [x1^2, x1^2 + eps^2] = [0.0, 1.0]"),
    # a non-finite coordinate is named as such, not blamed on another one
    ((1.0, 3.0, 1.0), (np.nan, 1.0, 1.0), "point (nan, 1.0, 1.0) has a non-finite coordinate"),
    ((4.0, 3.0, 0.6), (0.5, np.inf, 1.0), "point (0.5, inf, 1.0) has a non-finite coordinate"),
    ((1.5, 3.0, 1.0), (0.0, 0.5, -np.inf), "point (0.0, 0.5, -inf) has a non-finite coordinate"),
]


@pytest.mark.parametrize("pe,x,text", OUTSIDE_TEXT)
def test_outside_points_raise_the_same_message_everywhere(pe, x, text):
    pa = Params(*pe)
    inside = point(pa, 0.3, 0.5, 0.5)
    assert domain.classify_batch(pa, [x])[0] is Region.OUTSIDE
    for call in (
        lambda: value(pa, x),
        lambda: solve_leaf(pa, x),
        lambda: value_batch(pa, [inside, x, inside]),
        lambda: gradient_batch(pa, [inside, x]),
        lambda: solve_u_batch(pa, [inside, x]),
        lambda: hessian_leaf_batch(pa, [inside, x]),
        lambda: hessian_batch(pa, [inside, x]),
        lambda: hessian(pa, x),
    ):
        with pytest.raises(DomainError, match=re.escape(text)):
            call()
