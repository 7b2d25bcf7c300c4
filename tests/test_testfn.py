"""Piecewise test functions: exact moments, oscillation norm, rearrangements."""

import math
import re
import warnings

import numpy as np
import pytest

from bmobell import testfn
from bmobell import (
    ConstPiece,
    DomainError,
    LadderPiece,
    LogPiece,
    PiecewiseFn,
    bmo_norm,
    build_ladder,
    distribution,
    evaluate,
    from_csv,
    gamma_fn,
    k_fn,
    m_fn,
    mean,
    moments,
    optimizer_phi0,
    optimizer_uminus,
    optimizer_uplus,
    prefix_integrals,
    random_step_fn,
    random_step_values,
    second_moment,
    to_csv,
    transfer,
    transference_metrics,
)

from _frozen import MOMENT_MIXED_33, MOMENT_UMINUS_22_17, MOMENT_UPLUS_07_25


def two_step(a=1.3):
    return PiecewiseFn([ConstPiece(0.0, 0.5, -a), ConstPiece(0.5, 1.0, a)])


def mixed_fn():
    return PiecewiseFn(
        [
            ConstPiece(-0.5, 0.2, 0.8),
            LogPiece(0.2, 1.1, 0.3, -0.6, 1.0, 0.1),
            ConstPiece(1.1, 1.4, -1.2),
        ]
    )


FIELDS = ("_kind", "_pa", "_pb", "_c0", "_c1", "_sig", "_tau", "_nb")


def field_bytes(f):
    """The eight field arrays of f, as bytes for a bit-for-bit comparison."""
    return [getattr(f, k).tobytes() for k in FIELDS]


def field_arrays(f):
    return [np.array(getattr(f, k)) for k in FIELDS]


# -------------------------------------------------------------- construction


def test_pieces_must_tile_an_interval():
    with pytest.raises(DomainError):
        PiecewiseFn([])
    with pytest.raises(DomainError):
        PiecewiseFn([ConstPiece(0, 1, 1.0), ConstPiece(1.5, 2, 1.0)])  # gap
    with pytest.raises(DomainError):
        PiecewiseFn([ConstPiece(0, 1, 1.0), ConstPiece(0.5, 2, 1.0)])  # overlap
    with pytest.raises(DomainError):
        PiecewiseFn([ConstPiece(1.0, 1.0, 0.5)])  # empty piece


def test_both_constructors_share_one_validator():
    good = [ConstPiece(0.0, 0.5, 1.0), LogPiece(0.5, 1.0, 0.2, -0.7, 1.0, 0.3)]
    assert field_bytes(PiecewiseFn.from_arrays(*field_arrays(PiecewiseFn(good)))) == field_bytes(
        PiecewiseFn(good)
    )
    # row 1 of each case is broken: a gap, a reversed piece, a bad sigma, tau
    # inside, and a non-finite end, c0, c1 or tau
    inf, nan = math.inf, math.nan
    cases = {
        "gap": (ConstPiece(0.6, 1.0, 1.0), "_pa", 0.6),
        "reversed": (ConstPiece(0.5, 0.4, 1.0), "_pb", 0.4),
        "sigma": (LogPiece(0.5, 1.0, 0.2, -0.7, 0.5, 0.3), "_sig", 0.5),
        "tau": (LogPiece(0.5, 1.0, 0.2, -0.7, 1.0, 0.7), "_tau", 0.7),
        "end": (LogPiece(0.5, inf, 0.2, -0.7, 1.0, 0.3), "_pb", inf),
        "c0": (LogPiece(0.5, 1.0, inf, -0.7, 1.0, 0.3), "_c0", inf),
        "c1": (LogPiece(0.5, 1.0, 0.2, nan, 1.0, 0.3), "_c1", nan),
        "tau -inf": (LogPiece(0.5, 1.0, 0.2, -0.7, 1.0, -inf), "_tau", -inf),
    }
    for bad, key, value in cases.values():
        with pytest.raises(DomainError):
            PiecewiseFn([good[0], bad])
        cols = field_arrays(PiecewiseFn(good))
        cols[FIELDS.index(key)][1] = value
        with pytest.raises(DomainError):
            PiecewiseFn.from_arrays(*cols)
    # a falling log piece keeps tau on its right
    cols = field_arrays(PiecewiseFn(good))
    cols[FIELDS.index("_sig")][1] = -1.0
    with pytest.raises(DomainError):
        PiecewiseFn.from_arrays(*cols)
    with pytest.raises(DomainError):
        PiecewiseFn.from_arrays(*[c[:0] for c in field_arrays(PiecewiseFn(good))])


def test_log_piece_argument_must_stay_positive():
    # sigma*(t - tau) changes sign inside (0, 2) here; the piece is checked
    # when it forms a function
    piece = LogPiece(0.0, 2.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        PiecewiseFn([piece])


def test_evaluate_pointwise():
    f = mixed_fn()
    t = np.array([-0.3, 0.5, 1.2])
    got = evaluate(f, t)
    want = np.array([0.8, 0.3 - 0.6 * math.log(0.4), -1.2])
    np.testing.assert_allclose(got, want, rtol=1e-14)
    with pytest.raises(DomainError):
        evaluate(f, np.array([-0.6]))
    with pytest.raises(DomainError):
        evaluate(optimizer_phi0(), math.nan)
    with pytest.raises(DomainError):
        evaluate(f, np.array([0.5, math.nan]))


@pytest.mark.parametrize("c0", [-1.3, 0.0, 2.7])
@pytest.mark.parametrize("sigma", [1.0, -1.0])
def test_a_flat_log_piece_reads_as_its_constant(c0, sigma):
    # c1 = 0 makes a piece constant on every path, also at tau itself,
    # where c1 ln 0 has no value
    tau = 1.0 if sigma > 0 else 2.0
    head = [ConstPiece(0.0, 1.0, 0.5)]
    f = PiecewiseFn(head + [LogPiece(1.0, 2.0, c0, 0.0, sigma, tau)])
    g = PiecewiseFn(head + [ConstPiece(1.0, 2.0, c0)])
    t = np.array([0.0, 0.7, 1.0, 1.25, 1.5, 2.0])
    assert evaluate(f, tau) == evaluate(g, tau) == c0
    np.testing.assert_array_equal(evaluate(f, t), evaluate(g, t))
    for got, want in zip(prefix_integrals(f, t), prefix_integrals(g, t)):
        np.testing.assert_array_equal(got, want)
    assert (mean(f), second_moment(f)) == (mean(g), second_moment(g))
    assert [moments(f, q) for q in (1.0, 2.5, 3.0)] == [moments(g, q) for q in (1.0, 2.5, 3.0)]
    cs = (-2.0, c0 - 1e-9, c0, 0.5, c0 + 1e-9, 3.0)
    assert [distribution(f, c) for c in cs] == [distribution(g, c) for c in cs]
    assert bmo_norm(f, 6) == bmo_norm(g, 6)


# ------------------------------------------------------------------- moments


def test_moments_of_the_central_extremal():
    f = optimizer_phi0()
    assert mean(f) == pytest.approx(0.0, abs=1e-14)
    assert second_moment(f) == pytest.approx(1.0, rel=1e-13)
    for q in (1.0, 2.5, 3.0, 4.0):
        assert moments(f, q) == pytest.approx(gamma_fn(q + 1.0) / 2.0, rel=1e-12)


def test_moments_match_frozen_quadrature():
    f = optimizer_uplus(1.0, 0.7)
    assert moments(f, 2.5) == pytest.approx(MOMENT_UPLUS_07_25, rel=1e-12)
    g = optimizer_uminus(1.0, 2.2)
    assert moments(g, 1.7) == pytest.approx(MOMENT_UMINUS_22_17, rel=1e-12)
    assert moments(mixed_fn(), 3.3) == pytest.approx(MOMENT_MIXED_33, rel=1e-12)


def test_rim_extremal_moment_identities():
    # the two log extremals land on the closed third coordinates
    eps = 1.0
    for u in (0.4, 1.0, 2.3):
        f = optimizer_uplus(eps, u)
        assert mean(f) == pytest.approx(u + eps, rel=1e-13)
        assert second_moment(f) == pytest.approx((u + eps) ** 2 + eps**2, rel=1e-13)
        want = u**1.5 + eps * float(m_fn(1.5, eps, u))
        assert moments(f, 1.5) == pytest.approx(want, rel=1e-12)
    for u in (1.0, 1.8, 3.1):
        g = optimizer_uminus(eps, u)
        assert mean(g) == pytest.approx(u - eps, rel=1e-12, abs=1e-13)
        assert second_moment(g) == pytest.approx((u - eps) ** 2 + eps**2, rel=1e-12)
        want = u**1.5 - eps * float(k_fn(1.5, eps, u))
        assert moments(g, 1.5) == pytest.approx(want, rel=1e-12)


def moment_every_row(f, q):
    """moments(f, q) integrating every log and ladder piece, the route before distinct rows."""
    kind, length, const = f._kind, f._pb - f._pa, f._c1 == 0.0
    total = float(np.sum(np.abs(f._c0[const]) ** q * length[const]))
    logs = np.flatnonzero((kind == 1) & ~const)
    if logs.size:
        wlo, whi = testfn._w_bounds(f, f._pa[logs], f._pb[logs], logs)
        with np.errstate(divide="ignore", invalid="ignore"):
            z1 = -np.log(whi)
            dz = np.where(wlo > 0, np.log1p((whi - wlo) / np.maximum(wlo, 1e-300)), np.inf)
        total += float(np.sum(testfn._abs_affine_exp(q, z1, dz, f._c1[logs], f._c0[logs])))
    lad = np.flatnonzero(kind == 2)
    if lad.size:
        zero = np.zeros(lad.size)
        tails = testfn._abs_affine_exp(q, zero, zero + np.inf, zero - 1.0, f._c0[lad])
        total += float(np.sum(length[lad] * tails))
    return total / f.length


MOMENT_EXPONENTS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.3)


def test_moments_match_every_row_bit_for_bit():
    # each distinct row is integrated once and spread back to its pieces;
    # the sum over pieces keeps its order, so every moment keeps its bits
    makers = [lambda n=n, h=h, d=d: build_ladder(n, h, d) for n, h, d in LADDER_TABLE + ((4, 0.1, 6),)]
    makers += [optimizer_phi0, lambda: optimizer_uplus(1.0, 0.5), lambda: optimizer_uminus(1.0, 2.2),
               mixed_fn, lambda: transfer(mixed_fn(), (2.0, 2.5))]
    for make in makers:
        f = make()
        for q in MOMENT_EXPONENTS:
            assert moments(f, q).hex() == moment_every_row(f, q).hex()


def test_moments_integrate_each_distinct_row_once(monkeypatch):
    # build_ladder(4, 0.1, 5): 2,728 log pieces over 23 distinct rows, and
    # 1,024 ladder pieces with one beta
    calls = []
    integrate = testfn._abs_affine_exp

    def counted(q, z1, *rest):
        calls.append((q, z1.size))
        return integrate(q, z1, *rest)

    monkeypatch.setattr(testfn, "_abs_affine_exp", counted)
    f = build_ladder(4, 0.1, 5)
    for q in MOMENT_EXPONENTS:
        moments(f, q)
    assert [q for q, _ in calls] == [q for q in MOMENT_EXPONENTS for _ in range(2)]
    assert all(logs <= 23 and lad == 1 for (_, logs), (_, lad) in zip(calls[::2], calls[1::2]))


def test_moments_refuse_exponents_out_of_range():
    # an infinite or nan exponent read nan after warnings, and one whose
    # Gamma(q + 1) overflows a double raised OverflowError
    for f in (build_ladder(4, 0.1, 3), optimizer_uplus(1.0, 0.5)):
        for q in (math.inf, math.nan, 200.0):
            with pytest.raises(DomainError):
                moments(f, q)
    with pytest.raises(DomainError):
        moments(PiecewiseFn([LogPiece(0.0, 1.0, 0.0, 0.01, 1.0, 0.0)]), 200.0)
    with pytest.raises(DomainError):
        transference_metrics(build_ladder(4, 0.1, 3), 1.0, 1000.0, 0.05)
    # Gamma(171) is still a double: the ladder reads its exact law there
    f = build_ladder(4, 0.1, 3)
    assert moments(f, 170.0) * f.length == pytest.approx(gamma_fn(171.0) / 2.0, rel=1e-12)


def test_moments_near_the_exponent_limit_stay_finite():
    # Gamma(q + 1) times a ladder block's e^beta overflowed a piece, and
    # phi0's two pieces overflowed their sum, though both moments are finite
    # the ladder's law is Exp(1) on measure 1/2 of its length 9, phi0's
    # that of |Exp(1)| on its whole length
    for f, part in ((build_ladder(4, 0.1, 3), 18.0), (optimizer_phi0(), 2.0)):
        for q in (170.3, 170.5, 170.6):
            assert moments(f, q) == pytest.approx(math.gamma(q + 1.0) / part, rel=1e-13)


def test_optimizer_argument_guards():
    with pytest.raises(DomainError):
        optimizer_uplus(1.0, -0.1)
    with pytest.raises(DomainError):
        optimizer_uminus(1.0, 0.9)  # below the oscillation scale
    # the log ramp would end at e^((u - eps)/eps), past the largest double
    for u in (1e6, math.inf):
        with pytest.raises(DomainError):
            optimizer_uminus(1.0, u)


# -------------------------------------------------------------- distribution


def test_distribution_exact_cases():
    f = two_step(1.3)
    assert distribution(f, 0.0) == pytest.approx(0.5)
    assert distribution(f, 1.3) == 0.0
    assert distribution(f, -2.0) == pytest.approx(1.0)
    g = optimizer_phi0()
    # right log ramp exceeds c on a tail of length exp(-c)
    for c in (0.5, 1.0, 2.0):
        assert distribution(g, c) == pytest.approx(math.exp(-c), rel=1e-12)


def test_distribution_refuses_a_nan_level():
    # c = nan read nan; the infinite levels keep their exact answers
    for f in (two_step(), mixed_fn(), optimizer_phi0(), build_ladder(4, 0.1, 3)):
        with pytest.raises(DomainError):
            distribution(f, math.nan)
        assert (distribution(f, math.inf), distribution(f, -math.inf)) == (0.0, f.length)


def test_distribution_layer_cake():
    # integrating the superlevel measure recovers the first moment
    f = mixed_fn()
    cs = np.linspace(0.0, 5.0, 20001)
    pos = np.trapezoid([distribution(f, c) for c in cs], cs)
    neg = np.trapezoid([distribution(PiecewiseFn(
        [ConstPiece(-0.5, 0.2, -0.8),
         LogPiece(0.2, 1.1, -0.3, 0.6, 1.0, 0.1),
         ConstPiece(1.1, 1.4, 1.2)]), c) for c in cs], cs)
    # trapezoid error concentrates at the two plateau jumps of the measure
    assert (pos + neg) / f.length == pytest.approx(moments(f, 1.0), rel=2e-4)


# ---------------------------------------------------------- oscillation norm


def test_bmo_of_constants_is_zero():
    # cancellation of the two prefix sums leaves sqrt-of-roundoff noise
    f = PiecewiseFn([ConstPiece(0, 2, 0.7)])
    assert bmo_norm(f, 6) <= 1e-7


def test_bmo_of_a_symmetric_step():
    f = two_step(1.3)
    # the widest window is the worst one: variance a^2 exactly
    assert bmo_norm(f, 1) == pytest.approx(1.3, rel=1e-12)
    assert bmo_norm(f, 6) == pytest.approx(1.3, rel=1e-12)


def test_bmo_is_nondecreasing_in_levels():
    f = optimizer_phi0()
    vals = [bmo_norm(f, lv) for lv in (1, 2, 4, 6, 8)]
    assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1.0 + 1e-9


def test_log_extremals_sit_on_the_oscillation_bound():
    for f in (optimizer_uplus(1.0, 0.8), optimizer_uminus(1.0, 2.0)):
        b = bmo_norm(f, 8)
        assert b <= 1.0 + 1e-9
        assert b >= 0.97


# the (n, h, depth) rows of build_ladder's docstring table
LADDER_TABLE = ((4, 0.05, 5), (4, 0.1, 5), (4, 0.2, 5), (4, 0.3, 5), (4, 0.5, 5), (3, 0.5, 6), (8, 0.3, 3))


def test_bmo_levels_guard():
    for levels in (0, 17, 6.0, 6.5, "6"):
        with pytest.raises(DomainError):
            bmo_norm(two_step(), levels)
    # numpy integers are counts too
    assert bmo_norm(two_step(), np.int64(6)) == bmo_norm(two_step(), 6)


def count_scans(monkeypatch):
    """Patch testfn._pair_scan to count its calls; returns the running count."""
    calls = []
    scan = testfn._pair_scan

    def counted(*args):
        calls.append(1)
        return scan(*args)

    monkeypatch.setattr(testfn, "_pair_scan", counted)
    return calls


def test_bmo_norm_keeps_one_reading_per_levels(monkeypatch):
    calls = count_scans(monkeypatch)
    f = mixed_fn()
    got = [bmo_norm(f, lv) for lv in (6, 7, 6)]
    assert len(calls) == 2
    # each reading is the one a fresh copy scans, bit for bit
    assert got == [bmo_norm(mixed_fn(), lv) for lv in (6, 7, 6)]
    assert got[0] != got[1]
    assert len(calls) == 5
    # a kept reading does not get round the levels guard
    with pytest.raises(DomainError):
        bmo_norm(f, 0)
    with pytest.raises(DomainError):
        bmo_norm(f, 6.0)


def test_transference_metrics_scans_a_function_once(monkeypatch):
    calls = count_scans(monkeypatch)
    psi = build_ladder(4, 0.1, 5)
    pairs = ((1.0, 3.0), (1.0, 2.5), (2.5, 4.0), (1.5, 3.0))
    got = [transference_metrics(psi, p, r, 0.05) for p, r in pairs]
    assert len(calls) == 1
    assert len({w["bmo"] for w in got}) == 1
    # a fresh ladder per pair scans per pair and reads the same
    fresh = [transference_metrics(build_ladder(4, 0.1, 5), p, r, 0.05) for p, r in pairs]
    assert len(calls) == 5
    assert fresh == got


def test_transference_metrics_integrates_an_exponent_once(monkeypatch):
    # a depth-5 ladder has log and ladder pieces: two integral calls per exponent
    calls = []
    integrate = testfn._abs_affine_exp

    def counted(*args):
        calls.append(args[0])
        return integrate(*args)

    monkeypatch.setattr(testfn, "_abs_affine_exp", counted)
    psi = build_ladder(4, 0.1, 5)
    pairs = ((1.0, 3.0), (1.0, 2.5), (2.5, 4.0), (1.5, 3.0))
    got = [transference_metrics(psi, p, r, 0.05) for p, r in pairs]
    assert sorted(set(calls)) == [1.0, 1.5, 2.5, 3.0, 4.0]
    assert len(calls) == 2 * 5
    # a fresh ladder per pair integrates both exponents of every pair
    fresh = [transference_metrics(build_ladder(4, 0.1, 5), p, r, 0.05) for p, r in pairs]
    assert len(calls) == 2 * 5 + 2 * 8
    assert fresh == got
    assert [moments(psi, q) for q in (4.0, 1.0)] == [
        moments(build_ladder(4, 0.1, 5), q) for q in (4.0, 1.0)
    ]
    assert len(calls) == 2 * 5 + 2 * 8 + 2 * 2
    with pytest.raises(DomainError):
        moments(psi, 0.5)


def test_transfer_gets_its_own_reading(monkeypatch):
    calls = count_scans(monkeypatch)
    f = mixed_fn()
    bmo_norm(f, 5)
    g = transfer(f, (2.0, 2.5))
    assert bmo_norm(g, 5) == bmo_norm(transfer(mixed_fn(), (2.0, 2.5)), 5)
    assert len(calls) == 3


# ------------------------------------------------------------ rearrangements


def test_transfer_preserves_moments_and_oscillation():
    f = mixed_fn()
    g = transfer(f, (2.0, 2.5))
    assert g.domain == (2.0, 2.5)
    for q in (1.0, 2.2):
        assert moments(g, q) == pytest.approx(moments(f, q), rel=1e-12)
    assert mean(g) == pytest.approx(mean(f), rel=1e-12)
    assert bmo_norm(g, 5) == pytest.approx(bmo_norm(f, 5), rel=1e-10)


def transfer_reference(f, J):
    """transfer piece by piece: every end remapped, the two outer ends pinned to J."""
    j1, j2 = J
    s = (j2 - j1) / f.length

    def remap(t):
        return j1 + (t - f.a) * s

    out = []
    last = len(f.pieces) - 1
    for i, pc in enumerate(f.pieces):
        a = j1 if i == 0 else remap(pc.a)
        b = j2 if i == last else remap(pc.b)
        if isinstance(pc, ConstPiece):
            out.append(ConstPiece(a, b, pc.v))
        elif isinstance(pc, LadderPiece):
            out.append(LadderPiece(a, b, pc.beta, pc.n, pc.h))
        else:
            out.append(LogPiece(a, b, pc.c0 - pc.c1 * math.log(s), pc.c1, pc.sigma, remap(pc.tau)))
    return PiecewiseFn(out)


def test_transfer_matches_the_per_piece_route():
    steps = testfn._step_fn([0.3, -1.1, 2.0, 0.7, -0.4])
    for f in (optimizer_phi0(), steps, build_ladder(4, 0.1, 3)):
        # remapping the ladder's right end 5.0 onto (1.4, 4.2) misses 4.2 by
        # rounding, so that end must be pinned
        for J in ((2.0, 2.5), (1.4, 4.2)):
            g = transfer(f, J)
            assert g.domain == J
            assert field_bytes(g) == field_bytes(transfer_reference(f, J))


def test_seam_glued_copies_are_not_in_bmo():
    # two copies of phi0 side by side put its +infinity tail against the
    # -infinity tail of the next copy at t = 2, where the function looks
    # like sign(t - 2) ln|t - 2|; the grid reading is a lower bound of the
    # seminorm and keeps growing under refinement, so the failure is
    # conclusive at any level count
    seam = PiecewiseFn(
        [
            LogPiece(-2.0, -1.0, 0.0, 1.0, 1.0, -2.0),
            ConstPiece(-1.0, 1.0, 0.0),
            LogPiece(1.0, 2.0, 0.0, -1.0, -1.0, 2.0),
            LogPiece(2.0, 3.0, 0.0, 1.0, 1.0, 2.0),
            ConstPiece(3.0, 5.0, 0.0),
            LogPiece(5.0, 6.0, 0.0, -1.0, -1.0, 6.0),
        ]
    )
    readings = [bmo_norm(seam, levels) for levels in (4, 8, 12)]
    assert readings[0] < readings[1] < readings[2]
    assert readings[0] > 1.05
    assert bmo_norm(optimizer_phi0(), 12) <= 1.0 + 1e-9


# --------------------------------------------------------- exponential ladder


def ladder_reference(n, h, depth):
    """build_ladder as a recursion that lays out one cell at a time."""
    pieces = [ConstPiece(-4.0, 0.25, 0.0)]

    def lay(a, b, beta, left):
        if left == 0:
            pieces.append(LadderPiece(a, b, beta, n, h))
            return
        edges = np.linspace(a, b, n + 1)
        for c0, c1 in zip(edges[:-1], edges[1:]):
            half = 0.5 * (c1 - c0)
            mid = c0 + half
            rho = -half * math.expm1(-h)
            pieces.append(LogPiece(c0, c0 + rho, beta + math.log(half), -1.0, -1.0, mid))
            lay(c0 + rho, c1 - rho, beta + h, left - 1)
            pieces.append(LogPiece(c1 - rho, c1, beta + math.log(half), -1.0, 1.0, mid))

    lay(0.25, 0.75, 0.0, depth)
    pieces.append(ConstPiece(0.75, 5.0, 0.0))
    return PiecewiseFn(pieces)


# the rows of build_ladder's docstring table, depths 0 and 1, and steps moved
# by up to 2%; at the last step np.log and math.log differ on 56 half-cells
LADDER_CASES = LADDER_TABLE + (
    (4, 0.1, 0), (4, 0.1, 1), (4, 0.1 * 1.02, 5), (3, 0.5 * 0.98, 4), (4, 0.09924732580804195, 5),
)


def test_build_ladder_matches_the_recursion():
    for n, h, depth in LADDER_CASES:
        psi = build_ladder(n, h, depth)
        want = ladder_reference(n, h, depth)
        assert field_bytes(psi) == field_bytes(want)
        assert psi.domain == want.domain == (-4.0, 5.0)
        assert len(psi) == len(want) == 2 + 2 * sum(n**k for k in range(1, depth + 1)) + n**depth


def test_pieces_reproduce_the_arrays():
    psi = build_ladder(3, 0.2, 2)
    # the hot path reads the arrays; the piece objects are made on request
    transference_metrics(psi, 1.0, 3.0, 0.05)
    evaluate(psi, np.linspace(-4.0, 5.0, 9))
    mean(psi), second_moment(psi), repr(psi), len(psi)
    assert psi._pieces is None
    assert psi.pieces is psi.pieces
    assert field_bytes(PiecewiseFn(psi.pieces)) == field_bytes(psi)
    assert field_bytes(PiecewiseFn(ladder_reference(3, 0.2, 2).pieces)) == field_bytes(psi)
    assert psi.pieces == ladder_reference(3, 0.2, 2).pieces


def test_ladder_guards():
    # one cell is a bare log cusp, and a zero step makes no ladder; the
    # pieces are checked when they form a function
    for piece in (LadderPiece(0.0, 1.0, 0.0, 1, 0.1), LadderPiece(0.0, 1.0, 0.0, 4, 0.0)):
        with pytest.raises(DomainError):
            PiecewiseFn([piece])
    for depth in (-1, 3.0, 2.5):
        with pytest.raises(DomainError):
            build_ladder(4, 0.1, depth)
    for n, h in ((1, 0.1), (2.5, 0.1), (4.0, 0.1), (4, 0.0), (4, -0.1), (4, math.nan)):
        with pytest.raises(DomainError):
            build_ladder(n, h, 3)
    # numpy integers are counts too, and lay out the same ladder
    assert field_bytes(build_ladder(np.int64(4), 0.1, np.int64(3))) == field_bytes(build_ladder(4, 0.1, 3))
    # a zero step empties every ramp, but the step is what gets named
    with pytest.raises(DomainError, match="step"):
        build_ladder(4, 0.0, 5)


def test_ladder_moments_are_exact():
    # the law is Exp(1) on measure 1/2 at every depth, the law of |phi0|
    for depth in (0, 3):
        psi = build_ladder(4, 0.1, depth)
        assert mean(psi) * psi.length == pytest.approx(0.5, rel=1e-12)
        assert second_moment(psi) * psi.length == pytest.approx(1.0, rel=1e-12)
        for q in (1.0, 2.5, 3.0, 4.0):
            want = gamma_fn(q + 1.0) / 2.0
            assert moments(psi, q) * psi.length == pytest.approx(want, rel=1e-10)
    moved = transfer(build_ladder(3, 0.2, 1), (0.0, 2.0))
    assert moments(moved, 2.5) * 9.0 == pytest.approx(gamma_fn(3.5) / 2.0, rel=1e-10)


def test_ladder_distribution_is_exponential():
    for depth in (0, 3):
        psi = build_ladder(4, 0.1, depth)
        for c in (0.0, 0.05, 0.7, 3.0):
            assert distribution(psi, c) == pytest.approx(math.exp(-c) / 2.0, rel=1e-12)


def test_ladder_integrals_match_one_level_deeper():
    # partial integrals inside a ladder piece recurse through its cells; the
    # same ladder laid out one level further must give the same numbers
    t = np.linspace(-4.0, 5.0, 2**10 + 1)
    for depth in (0, 1, 2):
        got = prefix_integrals(build_ladder(4, 0.1, depth), t)
        want = prefix_integrals(build_ladder(4, 0.1, depth + 1), t)
        for g, w in zip(got, want):
            np.testing.assert_allclose(np.diff(g), np.diff(w), rtol=0.0, atol=1e-12)


def test_ladder_values_match_the_laid_out_levels():
    # values below 3h sit on ramps of the first three levels, which depth 3
    # lays out as log pieces; the ladder piece of depth 0 must agree there
    t = np.random.default_rng(5).uniform(0.25, 0.75, 400)
    deep = evaluate(build_ladder(4, 0.1, 3), t)
    flat = evaluate(build_ladder(4, 0.1, 0), t)
    low = deep < 0.3 - 1e-9
    assert low.sum() > 100
    np.testing.assert_allclose(flat[low], deep[low], rtol=0.0, atol=1e-12)
    ramp_top = 0.25 + 0.0625 * -math.expm1(-0.1)
    assert evaluate(build_ladder(4, 0.1, 0), ramp_top) == pytest.approx(0.1, rel=1e-12)


def test_ladder_seminorm_converges_in_depth():
    # ladder pieces add only their ends to the node set, so a cap that hid
    # structure would read low here; one more laid-out level and a 16x finer
    # grid must move the reading by at most 5e-3
    coarse = bmo_norm(build_ladder(4, 0.1, 5), 6)
    fine = bmo_norm(build_ladder(4, 0.1, 6), 10)
    assert abs(fine - coarse) <= 5e-3
    assert max(coarse, fine) <= 1.05


def test_ladder_has_no_csv_row():
    with pytest.raises(DomainError):
        to_csv(build_ladder(4, 0.1, 1))


# ------------------------------------------------------- step functions, csv


def test_random_step_fn_is_deterministic():
    f = random_step_fn(42, 32, 1.0)
    g = random_step_fn(42, 32, 1.0)
    assert to_csv(f) == to_csv(g)
    h = random_step_fn(43, 32, 1.0)
    assert to_csv(f) != to_csv(h)


def test_random_step_fn_respects_the_oscillation_budget():
    for seed in (0, 7, 19):
        f = random_step_fn(seed, 64, 0.8)
        assert len(f.pieces) == 64
        assert bmo_norm(f, 7) <= 0.8 + 1e-9


def test_random_step_values_guards():
    assert random_step_values([], 8, 1.0).shape == (0, 8)
    for cells in (1, 8.0):
        with pytest.raises(DomainError):
            random_step_values([1], cells, 1.0)
    # seeds are counts >= 0, as Philox takes them
    for seed in (-1, 1.5, "1"):
        with pytest.raises(DomainError):
            random_step_values([2, seed], 8, 1.0)
    # numpy integers are counts too, and draw the same values
    want = random_step_values([1, 2], 8, 1.0)
    assert random_step_values(np.array([1, 2], dtype=np.uint64), np.int64(8), 1.0).tolist() == want.tolist()
    for eps in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            random_step_values([1], 8, eps)


def test_csv_round_trip_is_bitwise():
    for f in (mixed_fn(), random_step_fn(3, 16, 1.0), optimizer_phi0()):
        text = to_csv(f)
        g = from_csv(text)
        assert to_csv(g) == text
        t = np.linspace(f.a + 1e-9, f.b - 1e-9, 101)
        np.testing.assert_array_equal(evaluate(f, t), evaluate(g, t))


def test_from_csv_rejects_malformed_input():
    with pytest.raises(DomainError):
        from_csv("not,a,header\n")
    with pytest.raises(DomainError):
        from_csv("kind,a,b,c0,c1,sigma,tau\nconst,0,1\n")
    with pytest.raises(DomainError):
        from_csv("kind,a,b,c0,c1,sigma,tau\nspline,0,1,0,0,1,0\n")
    with pytest.raises(DomainError):
        from_csv("kind,a,b,c0,c1,sigma,tau\nconst,0,x,1,0,1,0\n")
    for row in ("const,0,inf,1,0,1,0", "const,0,1,inf,0,1,0", "log,0.5,1,0,1,1,-inf"):
        with pytest.raises(DomainError):
            from_csv("kind,a,b,c0,c1,sigma,tau\n" + row + "\n")


def test_csv_constant_rows_ignore_the_log_fields():
    f = from_csv("kind,a,b,c0,c1,sigma,tau\nconst,0,1,0.5,7,-inf,nan\n")
    assert [f._c1[0], f._sig[0], f._tau[0]] == [0.0, 1.0, 0.0]
    assert to_csv(f) == "kind,a,b,c0,c1,sigma,tau\nconst,0,1,0.5,0,1,0\n"


TESTFN_REFUSALS = [
    (lambda: PiecewiseFn([object()]), "unsupported piece <object object at "),
    (lambda: PiecewiseFn.from_arrays([0, 0], [0, 1], [1, 2], [0, 0], [0, 0], [1, 1], [0, 0], [0]),
     "piece fields must be one-dimensional arrays of one length"),
    (lambda: prefix_integrals(optimizer_phi0(), [0.5, 0.0]), "prefix points must form a sorted one-dimensional array"),
    (lambda: prefix_integrals(optimizer_phi0(), [0.0, 3.0]), "prefix points outside the domain [-2.0, 2.0]"),
    (lambda: transfer(optimizer_phi0(), (1.0, 1.0)), "target interval [1.0, 1.0] is degenerate or not finite"),
    (lambda: optimizer_uplus(0.0, 1.0), "eps must be positive, got 0.0"),
    (lambda: optimizer_uminus(-1.0, 1.0), "eps must be positive, got -1.0"),
    # non-finite input is named, not passed on as nan, a warning or another piece's fault
    (lambda: prefix_integrals(optimizer_phi0(), [0.0, math.nan]), "prefix points must be finite"),
    (lambda: transfer(optimizer_phi0(), (0.0, math.inf)), "target interval [0.0, inf] is degenerate or not finite"),
    # finite ends whose scale overflows or underflows
    (lambda: transfer(optimizer_phi0(), (-1e308, 1e308)), "target interval [-1e+308, 1e+308] is degenerate or not"),
    (lambda: transfer(optimizer_phi0(), (0.0, 5e-324)), "target interval [0.0, 5e-324] is degenerate or not finite"),
    (lambda: build_ladder(4, math.inf, 2),
     "ladder needs an integer branching >= 2 and a finite step > 0, got 4.0 and inf"),
    (lambda: build_ladder(4, 0, 3), "ladder needs an integer branching >= 2 and a finite step > 0, got 4.0 and 0.0"),
    # a step that rounds a level's ramps or block to nothing is named, not math.log(0)
    (lambda: build_ladder(4, 37.0, 2), "ladder step h = 37.0 empties a ramp or block of level 1"),
    (lambda: build_ladder(4, 30.0, 2), "ladder step h = 30.0 empties a ramp or block of level 2"),
]


@pytest.mark.parametrize("call,text", TESTFN_REFUSALS)
def test_testfn_refuses_bad_input_by_name(call, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(text)):
            call()
