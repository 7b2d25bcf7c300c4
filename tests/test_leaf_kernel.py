"""The vectorized leaf kernel: one contract for scalar and batch calls.

solve_leaf, value and gradient are one-row calls of the batch functions,
so every comparison here is exact.  The edge cases pin the paths a point
can take through the kernel: Newton steps and their bisection fallback,
endpoint clamps, the second leaf family, the skeleton, and chord
parameters far past the 45 eps window of k_fn's quadrature.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmobell.bellman as bellman
import bmobell.domain as domain
from bmobell import (
    DomainError,
    Params,
    Region,
    bellman2d,
    classify,
    gradient,
    gradient_batch,
    solve_leaf,
    transition_level,
    value,
    value_batch,
)
from bmobell.bellman import _brackets, _plane, central_u_batch, solve_u_batch


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
    got = _plane(params.p, params.eps, u, np.abs(X[:, 0]), X[:, 1], central)
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
    assert value(pa, x) == alone_b
    assert solve_leaf(pa, x).u == alone_u
    # the same point among other rows, at any position, gives the same bits
    rows = [point(pa, *o) for o in others]
    k = min(slot, len(rows))
    rows.insert(k, x)
    assert value_batch(pa, rows)[k] == alone_b
    assert solve_u_batch(pa, rows)[0][k] == alone_u


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

    real = bellman.classify_batch

    def chord_side(params, X, tol=1e-12):
        reg = real(params, X, tol)
        reg[reg == Region.XI_ZERO] = Region.XI_PLUS
        return reg

    monkeypatch.setattr(bellman, "classify_batch", chord_side)
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

    real = bellman.classify_batch

    def flipped(params, X, tol=1e-12):
        reg = real(params, X, tol)
        fan = reg == Region.XI_ZERO
        chord = (reg == Region.XI_PLUS) | (reg == Region.XI_MINUS)
        reg[fan] = Region.XI_PLUS
        reg[chord] = Region.XI_ZERO
        return reg

    monkeypatch.setattr(bellman, "classify_batch", flipped)
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
    # |x1| = 60 eps puts u beyond the 45 eps window of k_fn's quadrature and
    # past the switch of m_fn to its exponential-weight rule
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
    # for p = 1 the envelopes meet to within 1e-6 out there, so no margin
    g = gradient_batch(pa, pts, margin=0.0)
    assert np.array_equal(g[4], gradient(pa, pts[4], margin=0.0))



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


@pytest.mark.parametrize("pair", [(1.0, 3.0), (2.5, 4.0), (1.5, 3.0), (4.0, 3.0)])
def test_value_batch_costs_few_m_fn_calls(pair, monkeypatch):
    # a count, not a timing: each solver step evaluates m once for the
    # whole batch, so the calls of one value_batch bound the steps of its
    # slowest row; halving brackets took 57-59 calls here
    pa = Params(*pair)
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

OUTSIDE_TEXT = [
    ((1.0, 3.0, 1.0), (0.0, 1.2, 0.5), "x2 = 1.2 outside [x1^2, x1^2 + eps^2] = [0.0, 1.0]"),
    ((1.0, 3.0, 1.0), (0.0, 1.0, 99.0), "x3 = 99.0 outside the reachable interval [0.5, 1.0] at (0.0, 1.0)"),
    (
        (4.0, 3.0, 0.6),
        (0.5, 0.4, 5.0),
        "x3 = 5.0 outside the reachable interval [0.16046622516715062, 1.3470636416237092] at (0.5, 0.4)",
    ),
    (
        (1.5, 3.0, 1.0),
        (1.5, 3.0, 9.0),
        "x3 = 9.0 outside the reachable interval [2.0342020585529923, 2.234620173166087] at (1.5, 3.0)",
    ),
    ((1.0, 3.0, 1.0), (2.0, 3.9, 2.0), "x2 = 3.9 outside [x1^2, x1^2 + eps^2] = [4.0, 5.0]"),
    ((1.0, 2.0, 1.0), (0.0, 5.0, 0.0), "x2 = 5.0 outside [x1^2, x1^2 + eps^2] = [0.0, 1.0]"),
]


@pytest.mark.parametrize("pe,x,text", OUTSIDE_TEXT)
def test_outside_points_raise_the_same_message_everywhere(pe, x, text):
    pa = Params(*pe)
    inside = point(pa, 0.3, 0.5, 0.5)
    for call in (
        lambda: value(pa, x),
        lambda: solve_leaf(pa, x),
        lambda: value_batch(pa, [inside, x, inside]),
        lambda: gradient_batch(pa, [inside, x]),
    ):
        with pytest.raises(DomainError, match=re.escape(text)):
            call()
