"""Evaluator tests: leaf solving, values, derivatives, batch agreement.

The frozen leaf table pins both the solved parameter and the value at
interior points of every region and regime, against an external
high-precision route.
"""

import warnings

import numpy as np
import pytest

from bmobell import (
    BoundaryError,
    DomainError,
    Params,
    Region,
    SingularityError,
    bellman2d,
    classify_batch,
    gamma_fn,
    gradient,
    gradient_batch,
    hessian,
    hessian_batch,
    hessian_leaf_batch,
    solve_leaf,
    solve_u_batch,
    value,
    value_batch,
)

from _frozen import LEAF_TABLE

PA = Params(1.0, 3.0)


def interior_points(params, n, seed, margin=0.05):
    rng = np.random.default_rng(seed)
    eps = params.eps
    x1 = rng.uniform(-2.5 * eps, 2.5 * eps, n)
    x2 = x1 * x1 + eps * eps * rng.uniform(margin, 1.0 - margin, n)
    lo = np.array([bellman2d(params, a, b, "lower") for a, b in zip(x1, x2)])
    hi = np.array([bellman2d(params, a, b, "upper") for a, b in zip(x1, x2)])
    x3 = lo + (hi - lo) * rng.uniform(margin, 1.0 - margin, n)
    return np.column_stack([x1, x2, x3])


# ------------------------------------------------------------------- solving


def test_leaf_solutions_match_frozen_reference():
    for (p, r, eps), x, family, u_ref, b_ref in LEAF_TABLE:
        pa = Params(p, r, eps)
        leaf = solve_leaf(pa, x)
        assert abs(leaf.u - u_ref) <= 1e-10 * max(1.0, abs(u_ref))
        got = value(pa, x)
        assert abs(got - b_ref) <= 1e-12 * max(1.0, abs(b_ref))
        if family == "central":
            assert leaf.region is Region.XI_ZERO
        else:
            assert leaf.region in (Region.XI_PLUS, Region.XI_MINUS)


def test_leaf_solution_reproduces_the_constraint():
    # plugging the solved parameter back into the p-plane recovers x3
    pts = interior_points(PA, 50, seed=5)
    for x in pts:
        leaf = solve_leaf(PA, tuple(x))
        assert leaf.bracket[0] <= leaf.u <= leaf.bracket[1]


def test_skeleton_values_are_pure_powers():
    for pa in (PA, Params(2.5, 4.0), Params(4.0, 3.0)):
        for t in (-2.0, -0.7, 0.0, 0.4, 1.9):
            x = (t, t * t, abs(t) ** pa.p)
            got = value(pa, x)
            assert got == pytest.approx(abs(t) ** pa.r, rel=1e-10, abs=1e-12)


def test_central_axis_value_is_gamma_ratio():
    # the centre of the fan carries the extremal moment pair
    for p, r in ((1.0, 3.0), (1.0, 2.5), (2.5, 4.0), (1.5, 3.0)):
        pa = Params(p, r)
        got = value(pa, (0.0, 1.0, gamma_fn(p + 1.0) / 2.0))
        assert got == pytest.approx(gamma_fn(r + 1.0) / 2.0, rel=1e-10)


def test_degenerate_exponents_short_circuit():
    # r = 2 reads off the second coordinate, r = p the third
    assert value(Params(1.0, 2.0), (0.3, 0.8, 0.7)) == 0.8
    assert value(Params(3.0, 3.0), (0.3, 0.8, 1.0)) == pytest.approx(1.0)


def test_outside_points_raise():
    with pytest.raises(DomainError):
        value(PA, (0.0, 1.2, 0.5))
    with pytest.raises(DomainError):
        value(PA, (0.0, 1.0, 99.0))


def test_value_symmetry_in_x1():
    # the body and every leaf formula see |x1| only, so mirroring a point
    # is exact: B even, dB/dx1 odd, and the Hessian conjugated by
    # S = diag(-1, 1, 1); the four pinned pairs, p near 2 and the min regime
    S = np.diag([-1.0, 1.0, 1.0])
    for pair in [(1.0, 3.0), (2.5, 4.0), (1.5, 3.0), (4.0, 3.0), (1.999, 10.0), (2.001, 10.0), (1.5, 1.2)]:
        for eps in (0.3, 1.0, 3.0):
            pa = Params(*pair, eps)
            pts = interior_points(pa, 200, seed=9)
            mirror = pts * np.array([-1.0, 1.0, 1.0])
            assert np.array_equal(value_batch(pa, mirror), value_batch(pa, pts))
            # near p = 2 the envelopes close in, so the margin would refuse points
            g, gm = gradient_batch(pa, pts, margin=0.0), gradient_batch(pa, mirror, margin=0.0)
            assert np.array_equal(gm[:, 0], -g[:, 0]) and np.array_equal(gm[:, 1:], g[:, 1:])
            assert np.array_equal(hessian_leaf_batch(pa, mirror), S @ hessian_leaf_batch(pa, pts) @ S)


# ------------------------------------------------------------------ batching


def test_value_batch_agrees_with_scalar():
    for pa in (PA, Params(2.5, 4.0), Params(4.0, 3.0), Params(1.2, 1.5, 0.7)):
        pts = interior_points(pa, 80, seed=13)
        got = value_batch(pa, pts)
        want = np.array([value(pa, tuple(x)) for x in pts])
        np.testing.assert_allclose(got, want, rtol=5e-14, atol=1e-15)


def test_value_batch_on_the_skeleton_is_a_pure_power():
    # skeleton points must not reach the chord plane, whose k_fn refuses
    # u = |x1| < eps; both sides of eps, both regimes, eps away from 1
    for pa in (PA, Params(4.0, 3.0), Params(1.5, 3.0, 0.6)):
        eps = pa.eps
        ts = (0.5 * eps, -0.2 * eps, 0.0, 1.7 * eps, -2.3 * eps)
        skel = [(t, t * t, abs(t) ** pa.p) for t in ts]
        for x in skel:
            assert value_batch(pa, [x])[0] == abs(x[0]) ** pa.r == value(pa, x)
        inner = interior_points(pa, 6, seed=29)
        mixed = np.concatenate([skel[:2], inner[:3], skel[2:], inner[3:]])
        got = value_batch(pa, mixed)
        np.testing.assert_array_equal(got[[0, 1, 5, 6, 7]], [abs(t) ** pa.r for t in ts])
        np.testing.assert_array_equal(got[[2, 3, 4, 8, 9, 10]], value_batch(pa, inner))


def test_gradient_batch_agrees_with_scalar():
    pts = interior_points(PA, 30, seed=17)
    got = gradient_batch(PA, pts)
    want = np.array([gradient(PA, tuple(x)) for x in pts])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


# --------------------------------------------------------------- derivatives


def test_gradient_matches_divided_differences():
    h = 1e-5
    pts = interior_points(PA, 25, seed=21, margin=0.2)
    for x in pts:
        g = gradient(PA, tuple(x))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (value(PA, tuple(x + e)) - value(PA, tuple(x - e))) / (2 * h)
            scale = max(1.0, abs(fd))
            assert abs(g[j] - fd) <= 2e-6 * scale


def test_closed_hessian_matches_differenced_gradient():
    # interior points only: the differenced route needs sideways room
    for pa in (PA, Params(4.0, 3.0)):
        pts = interior_points(pa, 40, seed=25, margin=0.25)
        hc = hessian_leaf_batch(pa, pts)
        hf = hessian_batch(pa, pts)
        scale = np.abs(hf).max(axis=(1, 2)) + 1.0
        err = np.abs(hc - hf).max(axis=(1, 2)) / scale
        assert err.max() <= 1e-3


def test_closed_hessian_is_rank_one():
    pts = interior_points(PA, 60, seed=29)
    h = hessian_leaf_batch(PA, pts)
    eig = np.linalg.eigvalsh(h)
    # one curved direction, two flat ones along the leaf
    flat = np.sort(np.abs(eig), axis=1)[:, :2]
    curved = np.abs(eig).max(axis=1)
    assert np.all(flat.max(axis=1) <= 1e-9 * np.maximum(1.0, curved))


def test_scalar_hessian_agrees_with_batch():
    x = (0.3, 0.8, 0.7)
    hs = hessian(PA, x)
    hb = hessian_batch(PA, np.array([x]))[0]
    np.testing.assert_array_equal(hs, hb)


@pytest.mark.parametrize(
    "entry",
    [classify_batch, solve_u_batch, value_batch, gradient_batch, hessian_batch, hessian_leaf_batch],
)
def test_batch_entries_refuse_two_column_input(entry):
    with pytest.raises(DomainError, match=r"expected an \(n, 3\) array of moment triples"):
        entry(Params(1.0, 3.0), np.array([[0.3, 0.8]]))


def test_scalar_hessian_refuses_boundary_points():
    x2 = 0.8
    hi = bellman2d(PA, 0.3, x2, "upper")
    with pytest.raises(BoundaryError):
        hessian(PA, (0.3, x2, hi - 1e-9))



def test_differenced_hessian_refuses_points_it_cannot_step_around():
    # a sideways step of any tried size moves the upper envelope past the
    # point; the caller's row is refused, not a displaced copy of it
    x2 = 0.8
    hi = bellman2d(PA, 0.3, x2, "upper")
    inner = (0.3, x2, 0.7)
    with pytest.raises(BoundaryError, match=r"point \(0\.3, 0\.8, "):
        hessian_batch(PA, [inner, (0.3, x2, hi - 1e-9)])


@pytest.mark.parametrize("x", [(0.5, 0.25, 0.5), (1.5, 2.25, 1.5)])
def test_leaf_hessian_refuses_skeleton_points(x):
    # no leaf crosses the skeleton transversally, on either side of eps;
    # both calls refuse the point the same way
    with pytest.raises(BoundaryError, match="domain boundary"):
        gradient_batch(PA, [x])
    with pytest.raises(BoundaryError, match="domain boundary"):
        hessian_leaf_batch(PA, [x])
    inner = interior_points(PA, 4, seed=41)
    with pytest.raises(BoundaryError, match=r"point \(%s, %s, %s\)" % x):
        hessian_leaf_batch(PA, np.concatenate([inner[:2], [x], inner[2:]]))

# ------------------------------------------------------------------- scaling


def test_value_scaling_covariance():
    # rescaling the oscillation bound maps values by a pure power
    base = Params(1.0, 3.0, 1.0)
    for eps in (0.5, 2.0):
        pa = Params(1.0, 3.0, eps)
        pts = interior_points(pa, 50, seed=33)
        scaled = np.column_stack(
            [pts[:, 0] / eps, pts[:, 1] / eps**2, pts[:, 2] / eps**base.p]
        )
        got = value_batch(pa, pts)
        want = eps**base.r * value_batch(base, scaled)
        np.testing.assert_allclose(got, want, rtol=1e-10)


def test_continuity_across_the_interface():
    # values straddling the transition leaf agree to first order
    pa = PA
    from bmobell import transition_level

    for x1 in (0.2, -0.6, 1.1):
        x2 = x1 * x1 + 0.8
        x3 = transition_level(pa, x2)
        lo = bellman2d(pa, x1, x2, "lower")
        hi = bellman2d(pa, x1, x2, "upper")
        if not (lo < x3 < hi):
            continue
        above = value(pa, (x1, x2, x3 + 1e-9))
        below = value(pa, (x1, x2, x3 - 1e-9))
        assert abs(above - below) <= 1e-7 * max(1.0, abs(above))


def test_degenerate_batch_derivatives_check_membership_and_shape():
    # r = 2 and r = p short-circuit the solve, but not the membership check
    for pa in (Params(1.0, 2.0), Params(3.0, 3.0)):
        with pytest.raises(DomainError, match="x2 = 5.0 outside"):
            gradient_batch(pa, [[0.0, 5.0, 0.0]])
        with pytest.raises(DomainError, match="x2 = 5.0 outside"):
            hessian_leaf_batch(pa, [[0.0, 5.0, 0.0]])
        with pytest.raises(DomainError, match="x2 = 5.0 outside"):
            gradient(pa, (0.0, 5.0, 0.0))
        for bad in ([0.3, 0.8, 0.7], np.zeros((2, 2))):
            with pytest.raises(DomainError, match=r"\(n, 3\)"):
                gradient_batch(pa, bad)
            with pytest.raises(DomainError, match=r"\(n, 3\)"):
                hessian_leaf_batch(pa, bad)
        x1, x2 = 0.3, 0.8
        x = (x1, x2, 0.5 * (bellman2d(pa, x1, x2, "lower") + bellman2d(pa, x1, x2, "upper")))
        want = [0.0, 1.0, 0.0] if pa.r == 2 else [0.0, 0.0, 1.0]
        assert gradient_batch(pa, [x]).tolist() == [want]
        assert gradient(pa, x).tolist() == want
        assert hessian_leaf_batch(pa, [x]).tolist() == [np.zeros((3, 3)).tolist()]


def test_batch_derivatives_check_shape():
    for bad in ([0.3, 0.8, 0.7], np.zeros((2, 2))):
        with pytest.raises(DomainError, match=r"\(n, 3\)"):
            gradient_batch(PA, bad)
        with pytest.raises(DomainError, match=r"\(n, 3\)"):
            hessian_leaf_batch(PA, bad)


def test_hessian_refuses_a_leaf_plane_without_u_slope():
    # at p = 1, k(u) = 1 - exp((eps - u)/eps) rounds to m(u) = 1 far out, so
    # at x1 = 40 the plane's u-slope is exactly 0 and the rank-one factor
    # would divide by it
    def mid(x1):
        x2 = x1 * x1 + 0.5
        return [x1, x2, 0.5 * (bellman2d(PA, x1, x2, "lower") + bellman2d(PA, x1, x2, "upper"))]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(hessian_leaf_batch(PA, [mid(10.0), mid(20.0)])).all()
        with pytest.raises(SingularityError, match="row 1"):
            hessian_leaf_batch(PA, [mid(10.0), mid(40.0)])
