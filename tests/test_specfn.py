"""Unit tests for the moment transforms and their quadrature cross-routes."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bmobell
from bmobell import (
    ConvergenceError,
    DomainError,
    SingularityError,
    gamma_fn,
    k_fn,
    m_fn,
    quad_k,
    quad_m,
)

from _frozen import MK_TABLE

EPS_SET = (0.5, 1.0, 2.0)
P_SET = (1.0, 1.5, 2.5, 3.0)


def u_grid(eps, lo=0.0):
    return np.linspace(lo, lo + 6.0 * eps, 25)


# ---------------------------------------------------------------- closed forms


def test_m_order1_is_constant_one():
    for eps in EPS_SET:
        vals = m_fn(1.0, eps, u_grid(eps))
        np.testing.assert_allclose(vals, 1.0, rtol=1e-12)


def test_m_order2_is_affine():
    for eps in EPS_SET:
        u = u_grid(eps)
        np.testing.assert_allclose(m_fn(2.0, eps, u), 2.0 * (u + eps), rtol=1e-12)


def test_k_order2_is_affine():
    for eps in EPS_SET:
        u = u_grid(eps, lo=eps)
        np.testing.assert_allclose(k_fn(2.0, eps, u), 2.0 * (u - eps), rtol=1e-12)


def test_k_exponential_closed_form():
    # k at power 1 integrates to 1 - exp((eps-u)/eps)
    for eps in EPS_SET:
        u = u_grid(eps, lo=eps)
        want = 1.0 - np.exp((eps - u) / eps)
        np.testing.assert_allclose(k_fn(1.0, eps, u), want, rtol=1e-12, atol=1e-15)


def test_k_vanishes_at_left_endpoint():
    for eps in EPS_SET:
        for p in P_SET:
            assert abs(float(k_fn(p, eps, eps))) <= 1e-13


def test_k_slope_at_left_endpoint():
    for eps in EPS_SET:
        for p in P_SET:
            want = p * eps ** (p - 2.0)
            got = float(k_fn(p, eps, eps, order=1))
            assert abs(got - want) <= 1e-11 * abs(want)


def test_m_at_origin_is_gamma_factorial():
    for eps in EPS_SET:
        for p in P_SET:
            want = eps ** (p - 1.0) * gamma_fn(p + 1.0)
            got = float(m_fn(p, eps, 0.0))
            assert abs(got - want) <= 1e-11 * abs(want)


def test_gamma_fn_matches_math_gamma():
    for a in (1.0, 2.5, 3.0, 4.5, 7.0):
        assert gamma_fn(a) == pytest.approx(math.gamma(a), rel=1e-14)


# ------------------------------------------------------------- frozen oracles


def test_transforms_match_frozen_reference_table():
    worst = 0.0
    for (kind, p, eps, u, order), want in MK_TABLE.items():
        fn = m_fn if kind == "m" else k_fn
        got = float(fn(p, eps, u, order))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 1e-11


def test_quad_routes_match_frozen_reference_table():
    # the adaptive cross-route must hit the same table independently
    worst = 0.0
    for (kind, p, eps, u, order), want in MK_TABLE.items():
        fn = quad_m if kind == "m" else quad_k
        got = float(fn(p, eps, np.array([u]), order)[0])
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 1e-9


def test_quad_routes_match_the_transforms_across_eps():
    # every order of both routes is its own quadrature, so this compares
    # each derivative of m_fn and k_fn with an independent route; u/eps
    # stops at 20, short of where the order-2 recurrences of the closed
    # forms lose about 3e-12 (at eps = 0.3, u/eps near 30)
    x = np.concatenate([[0.0, 1e-9, 1e-3], np.linspace(0.05, 20.0, 7)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1.0, 1.5, 2.5, 4.0, 10.0):
            for eps in (0.3, 1.0, 3.0):
                for order in (0, 1, 2):
                    u = eps * (x[1:] if order and p < 2 else x)
                    got, want = quad_m(p, eps, u, order), m_fn(p, eps, u, order)
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
                    got, want = quad_k(p, eps, eps + eps * x, order), k_fn(p, eps, eps + eps * x, order)
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("route, u", [(quad_m, 0.0), (quad_m, 1.3), (quad_k, 2.4)])
def test_unconverged_quadrature_raises(monkeypatch, route, u):
    # a target far below double precision cannot be met: quad would warn
    # and hand back its best guess, which a cross-check must not use
    monkeypatch.setattr(bmobell.specfn, "_QUAD_TOL", 1e-30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError):
            route(2.5, 1.0, u, 1)


def test_large_argument_branch_is_seamless():
    # m switches strategy around u/eps = 30; k hands spans (u - eps)/eps
    # below 0.5 from the Kummer closed form to one Gauss panel
    cases = ((m_fn, quad_m, 29.0, 31.0), (k_fn, quad_k, 1.49, 1.51))
    for fn, quad_fn, lo, hi in cases:
        for p in (1.5, 2.5, 4.0):
            u = np.linspace(lo, hi, 161)
            vals = fn(p, 1.0, u)
            d2 = np.diff(vals, 2)
            assert np.all(np.abs(d2) < 1e-6 * np.abs(vals[1:-1]).max())
            probe = np.array([0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi])
            ref = quad_fn(p, 1.0, probe, 0)
            got = fn(p, 1.0, probe)
            np.testing.assert_allclose(got, ref, rtol=1e-9)


# ------------------------------------------------------------------ behaviour


def test_scalar_and_array_shapes_agree():
    u = np.array([0.4, 1.1, 2.0])
    arr = m_fn(2.5, 1.0, u)
    assert arr.shape == (3,)
    for i, ui in enumerate(u):
        assert float(m_fn(2.5, 1.0, float(ui))) == arr[i]
    scal = k_fn(2.5, 1.0, 1.3)
    assert np.ndim(scal) == 0


def test_transforms_increase_along_u():
    for p in (1.5, 2.5, 4.0):
        u = np.linspace(0.1, 8.0, 60)
        assert np.all(np.diff(m_fn(p, 1.0, u)) > 0)
        uk = np.linspace(1.0, 9.0, 60)
        assert np.all(np.diff(k_fn(p, 1.0, uk)) > 0)


def test_domain_guards():
    with pytest.raises(DomainError):
        m_fn(0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        m_fn(1.5, 1.0, -0.1)
    with pytest.raises(DomainError):
        k_fn(1.5, 1.0, 0.5)  # below the left endpoint eps = 1
    with pytest.raises(DomainError):
        m_fn(1.5, -1.0, 1.0)
    with pytest.raises(DomainError):
        m_fn(1.5, 1.0, 1.0, order=3)


@pytest.mark.parametrize("fn", [m_fn, k_fn, quad_m, quad_k])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_raises(fn, bad):
    # a NaN or infinite exponent, scale or argument would come back as a
    # silent nan or inf; u is a scalar and an array with one bad entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in ((bad, 1.0, 2.0), (2.5, bad, 2.0), (2.5, 1.0, bad), (2.5, 1.0, np.array([2.0, bad]))):
            for order in (0, 1, 2):
                with pytest.raises(DomainError):
                    fn(*args, order)


def test_gamma_overflow_is_a_domain_error():
    # math.gamma raised OverflowError past about 171.6, through m_fn too
    assert gamma_fn(171.0) == math.gamma(171.0)
    for a in (172.0, 201.0, math.inf):
        with pytest.raises(DomainError):
            gamma_fn(a)
    with pytest.raises(DomainError):
        m_fn(200.0, 1.0, 0.5)


def test_singularity_guard_at_origin():
    for order in (1, 2):
        with pytest.raises(SingularityError):
            m_fn(1.5, 1.0, 0.0, order=order)
    # p >= 2 has no singular factor, orders stay finite
    assert np.isfinite(float(m_fn(2.5, 1.0, 0.0, order=2)))


def test_reference_comparison_has_teeth():
    # a 1e-6 shove of the argument must blow the table tolerance by a wide
    # margin, otherwise the frozen comparisons above prove nothing
    fails = 0
    for (kind, p, eps, u, order), want in MK_TABLE.items():
        if order != 0 or u <= 0.0:
            continue
        fn = m_fn if kind == "m" else k_fn
        got = float(fn(p, eps, u + 1e-6, order))
        if abs(got - want) / max(1.0, abs(want)) > 1e-9:
            fails += 1
    assert fails > 0.9 * sum(
        1 for (kind, p, eps, u, order) in MK_TABLE if order == 0 and u > 0.0
    )


def test_import_leaves_adaptive_quadrature_unloaded():
    # scipy.integrate costs about 26 MB and 0.4 s per process; only the
    # cross-routes quad_m and quad_k need it, so importing the package and
    # its CLI must not load it
    src = str(Path(bmobell.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, bmobell, bmobell.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("p", [1.5, 1.9])
def test_quad_m_refuses_its_singular_derivative_at_zero(p):
    # m' carries u^(p-2) at u = 0 for p < 2
    text = f"derivative of order 1 of m is singular at u = 0 for p = {p} < 2"
    with pytest.raises(SingularityError, match=re.escape(text)):
        quad_m(p, 1.0, np.array([0.0, 0.5]), 1)
