"""Geometry layer: strip membership, tangent chords, envelopes, regions."""

import math

import numpy as np
import pytest

from bmobell import (
    DomainError,
    Params,
    Region,
    Regime,
    a_k,
    a_m,
    bellman2d,
    classify,
    classify_batch,
    gamma_fn,
    k_fn,
    m_fn,
    omega2_contains,
    omega3_contains,
    tangent_params,
    transition_level,
    value,
)

from _frozen import ENV_D


def test_params_validation():
    Params(1.0, 3.0)
    Params(1.2, 1.5, 0.7)
    with pytest.raises(DomainError):
        Params(0.8, 3.0)
    with pytest.raises(DomainError):
        Params(2.0, 4.0)  # the chord and fan planes both degenerate there
    with pytest.raises(DomainError):
        Params(1.0, 0.5)
    with pytest.raises(DomainError):
        Params(1.0, 3.0, 0.0)
    with pytest.raises(DomainError):
        Params(1.0, 3.0, -1.0)


def test_regime_sign_table():
    assert Params(1.0, 3.0).regime is Regime.MAX
    assert Params(2.5, 4.0).regime is Regime.MAX
    assert Params(4.0, 3.0).regime is Regime.MIN
    assert Params(1.2, 1.5).regime is Regime.MIN
    assert Params(1.0, 2.0).regime is Regime.DEGENERATE  # r = 2
    assert Params(3.0, 3.0).regime is Regime.DEGENERATE  # r = p


def test_strip_membership():
    assert omega2_contains(1.0, 0.3, 0.5)
    assert omega2_contains(1.0, 0.3, 0.09)  # bottom parabola
    assert omega2_contains(1.0, 0.3, 1.09)  # top parabola
    assert not omega2_contains(1.0, 0.3, 0.08)
    assert not omega2_contains(1.0, 0.3, 1.11)
    # tolerance buffer admits roundoff-level excursions
    assert omega2_contains(1.0, 0.0, -1e-14)


def test_tangent_params_hand_values():
    up, um = tangent_params(1.0, 0.0, 1.0)
    assert up == pytest.approx(-1.0, abs=1e-15)
    assert um == pytest.approx(1.0, abs=1e-15)
    # on the bottom parabola the discriminant is full and both chord
    # parameters collapse onto x1 itself
    up, um = tangent_params(1.0, 0.5, 0.25)
    assert up == pytest.approx(0.5, abs=1e-12)
    assert um == pytest.approx(0.5, abs=1e-12)


def test_tangent_params_bracket_the_centre():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x1 = rng.uniform(-3, 3)
        x2 = x1 * x1 + rng.uniform(0, 1)
        up, um = tangent_params(1.0, x1, x2)
        assert up <= x1 <= um
        assert um - up == pytest.approx(2.0 - 2.0 * math.sqrt(1.0 - (x2 - x1 * x1)), rel=1e-9, abs=1e-12)


def test_envelope_closed_forms_below_unit_level():
    # for x2 <= eps^2 the k-side envelope is the plain power cup
    assert a_k(1.0, 1.0, 0.3, 0.8) == pytest.approx(math.sqrt(0.8), rel=1e-13)
    assert a_k(2.5, 1.0, 0.2, 0.9) == pytest.approx(0.9 ** 1.25, rel=1e-13)
    # negative tangent parameter routes a_m through the central ray
    assert a_m(1.0, 1.0, 0.3, 0.8) == pytest.approx(0.4, rel=1e-13)
    assert a_m(2.5, 1.0, 0.2, 0.9) == pytest.approx(
        gamma_fn(3.5) * 0.9 / 2.0, rel=1e-12
    )


def test_envelope_frozen_chord_values():
    (x1, x2, ak_ref, am_ref) = ENV_D
    assert a_k(1.2, 0.7, x1, x2) == pytest.approx(ak_ref, rel=1e-12)
    assert a_m(1.2, 0.7, x1, x2) == pytest.approx(am_ref, rel=1e-12)


def test_envelopes_are_even_in_x1():
    for p in (1.0, 2.5):
        assert a_m(p, 1.0, 1.1, 1.8) == a_m(p, 1.0, -1.1, 1.8)
        assert a_k(p, 1.0, 1.1, 1.8) == a_k(p, 1.0, -1.1, 1.8)


def test_bellman2d_orientation():
    # p < 2: k-surface on top; p > 2: m-surface on top
    lo = bellman2d(Params(1.0, 3.0), 0.5, 1.0, "lower")
    hi = bellman2d(Params(1.0, 3.0), 0.5, 1.0, "upper")
    assert lo == a_m(1.0, 1.0, 0.5, 1.0) and hi == a_k(1.0, 1.0, 0.5, 1.0)
    assert lo < hi
    lo = bellman2d(Params(2.5, 4.0), 0.5, 1.0, "lower")
    hi = bellman2d(Params(2.5, 4.0), 0.5, 1.0, "upper")
    assert lo == a_k(2.5, 1.0, 0.5, 1.0) and hi == a_m(2.5, 1.0, 0.5, 1.0)
    assert lo < hi
    with pytest.raises(DomainError):
        bellman2d(Params(1.0, 3.0), 0.5, 1.0, "top")


def test_skeleton_pinches_the_envelopes():
    # on the bottom parabola the two envelopes collapse onto |t|^p
    for p in (1.0, 2.5, 4.0):
        for t in (-1.7, -0.4, 0.9, 2.2):
            want = abs(t) ** p
            assert a_m(p, 1.0, t, t * t) == pytest.approx(want, rel=1e-10, abs=1e-12)
            assert a_k(p, 1.0, t, t * t) == pytest.approx(want, rel=1e-10, abs=1e-12)



@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_points_a_rounding_error_below_the_parabola_sit_on_it():
    # x2 within MEMBERSHIP_TOL below x1^2 is lifted onto the parabola before
    # any power of x2 is taken, so (0, -1e-13, 0) is the skeleton point 0
    pa = Params(1.0, 3.0)
    x = (0.0, -1e-13, 0.0)
    assert classify(pa, x) is Region.SKELETON
    assert value(pa, x) == 0.0
    assert bellman2d(pa, 0.0, -1e-13, "upper") == 0.0
    assert bellman2d(pa, 0.0, -1e-13, "lower") == 0.0

def test_transition_level_formula():
    pa = Params(1.0, 3.0)
    assert transition_level(pa, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert transition_level(pa, 0.8) == pytest.approx(
        1.0 + (0.8 - 1.0) * float(m_fn(1.0, 1.0, 1.0)) / 4.0, rel=1e-14
    )
    pb = Params(4.0, 3.0)
    x2 = 0.85
    want = 1.0 + (x2 - 1.0) * float(m_fn(4.0, 1.0, 1.0)) / 4.0
    assert transition_level(pb, x2) == pytest.approx(want, rel=1e-14)


def test_omega3_membership():
    pa = Params(1.0, 3.0)
    assert omega3_contains(pa, (0.0, 1.0, 0.5))
    assert omega3_contains(pa, (0.3, 0.8, 0.7))
    assert not omega3_contains(pa, (0.0, 1.2, 0.5))  # above the strip
    assert not omega3_contains(pa, (0.0, 1.0, 3.0))  # above the top envelope
    assert not omega3_contains(pa, (0.0, 1.0, -0.1))


def test_classify_regions():
    pa = Params(1.0, 3.0)
    assert classify(pa, (2.0, 4.0, 2.0)) is Region.SKELETON
    assert classify(pa, (0.0, 1.0, 0.5)) is Region.XI_ZERO
    assert classify(pa, (0.3, 0.8, 0.7)) is Region.XI_ZERO
    assert classify(pa, (1.4, 2.9, 1.58)) is Region.XI_PLUS
    assert classify(pa, (-1.4, 2.9, 1.58)) is Region.XI_MINUS
    assert classify(pa, (2.6, 7.0, 2.615)) is Region.XI_PLUS
    assert classify(pa, (0.0, 1.2, 0.5)) is Region.OUTSIDE
    # p > 2 flips which side of the interface belongs to the fan
    pc = Params(4.0, 3.0)
    assert classify(pc, (0.25, 0.85, 2.0)) is Region.XI_ZERO
    assert classify(pc, (1.3, 2.5, 12.0)) is Region.XI_PLUS
    assert classify(pc, (-1.3, 2.5, 12.0)) is Region.XI_MINUS


def test_classify_interface_tie_goes_to_the_fan():
    # the transition level must cut the fiber interior for the tie to mean
    # anything: at (0.5, 1.1) it sits between the envelopes
    pa = Params(1.0, 3.0)
    x2 = 1.1
    x3 = transition_level(pa, x2)
    assert bellman2d(pa, 0.5, x2, "lower") < x3 < bellman2d(pa, 0.5, x2, "upper")
    assert classify(pa, (0.5, x2, x3)) is Region.XI_ZERO


def test_classify_is_even_in_x1_up_to_side():
    pa = Params(2.5, 4.0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x1 = rng.uniform(0.05, 2.5)
        x2 = x1 * x1 + rng.uniform(1e-3, 1.0 - 1e-3)
        lo = bellman2d(pa, x1, x2, "lower")
        hi = bellman2d(pa, x1, x2, "upper")
        x3 = lo + rng.uniform(0.05, 0.95) * (hi - lo)
        left = classify(pa, (-x1, x2, x3))
        right = classify(pa, (x1, x2, x3))
        if right is Region.XI_PLUS:
            assert left is Region.XI_MINUS
        else:
            assert left is right


def classify_reference(pa, x, tol=1e-12):
    """The region rules point by point, from the scalar membership and envelopes."""
    x1, x2, x3 = x
    eps = pa.eps
    if not omega3_contains(pa, x, tol):
        return Region.OUTSIDE
    if x2 - x1 * x1 <= tol:
        return Region.SKELETON
    if abs(x1) <= 2.0 * eps + tol and x2 >= 4.0 * eps * abs(x1) - 3.0 * eps * eps - tol:
        if (pa.p - 2.0) * (x3 - transition_level(pa, x2)) >= -tol:
            return Region.XI_ZERO
    return Region.XI_PLUS if x1 >= 0.0 else Region.XI_MINUS


def test_classify_batch_matches_the_pointwise_rules():
    rng = np.random.default_rng(19)
    for pa in (Params(1.0, 3.0), Params(4.0, 3.0, 0.6), Params(1.999, 10.0, 3.0)):
        eps = pa.eps
        n = 300
        x1 = eps * rng.uniform(-3.0, 3.0, n)
        # strip fractions past both rims, a few skeleton points, x3 past both envelopes
        f2 = np.where(rng.uniform(size=n) < 0.1, 0.0, rng.uniform(-0.1, 1.1, n))
        x2 = x1 * x1 + eps * eps * f2
        inside = (f2 >= 0.0) & (f2 <= 1.0)
        lo = np.array([bellman2d(pa, a, b, "lower") if ok else 0.0 for a, b, ok in zip(x1, x2, inside)])
        hi = np.array([bellman2d(pa, a, b, "upper") if ok else 1.0 for a, b, ok in zip(x1, x2, inside)])
        x3 = np.where(f2 == 0.0, np.abs(x1) ** pa.p, lo + (hi - lo) * rng.uniform(-0.1, 1.1, n))
        X = np.column_stack([x1, x2, x3])
        got = classify_batch(pa, X)
        want = [classify_reference(pa, tuple(x)) for x in X]
        assert got.tolist() == want
        assert {Region.OUTSIDE, Region.SKELETON, Region.XI_ZERO, Region.XI_PLUS, Region.XI_MINUS} <= set(want)
        assert [classify(pa, x) for x in X[:50]] == want[:50]
