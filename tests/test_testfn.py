"""Piecewise test functions: exact moments, oscillation norm, rearrangements."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def pair_scan_reference(t, s1, s2, wmin):
    """The pair scan as a plain double loop over one column."""
    best = 0.0
    for i in range(len(t) - 1):
        for j in range(i + 1, len(t)):
            w = t[j] - t[i]
            if w < wmin:
                continue
            mu = (s1[j] - s1[i]) / w
            v = (s2[j] - s2[i]) / w - mu * mu
            if v > best:
                best = v
    return best


def pair_scan_rows(t, s1, s2, wmin):
    """The pair scan before its block bound: one row loop over every pair.

    Row i reads every window [t_i, t_j] in one pass, with mu = (s1_j -
    s1_i)/w and v = (s2_j - s2_i)/w - mu^2, into buffers made once per
    call; only a row whose first window is shorter than wmin looks for the
    suffix of windows long enough.
    """
    n = t.size
    cols = s1.shape[1:]
    tw = t.reshape((n,) + (1,) * len(cols))
    wbuf = np.empty((n - 1,) + (1,) * len(cols))
    mbuf = np.empty((n - 1,) + cols)
    vbuf = np.empty((n - 1,) + cols)
    best = np.zeros(cols)
    for i, short in enumerate((np.diff(t) < wmin).tolist()):
        lo = i + 1
        if short:
            lo += int(np.searchsorted(t[lo:] - t[i], wmin))
            if lo == n:
                continue
        m = n - lo
        w = np.subtract(tw[lo:], t[i], out=wbuf[:m])
        mu = np.subtract(s1[lo:], s1[i], out=mbuf[:m])
        np.divide(mu, w, out=mu)
        v = np.subtract(s2[lo:], s2[i], out=vbuf[:m])
        np.divide(v, w, out=v)
        np.multiply(mu, mu, out=mu)
        np.subtract(v, mu, out=v)
        np.fmax(best, v.max(axis=0), out=best)
    return float(best) if not cols else best


def test_pair_scan_matches_the_double_loop():
    # breakpoints closer than the minimal window send rows down the suffix
    # path, and the pair next to the right end leaves a row with no window
    rng = np.random.default_rng(5)
    cuts = [0.0, 0.3, 0.5, 0.5 + 3e-10, 0.7, 1.0 - 4e-10, 1.0]
    fns = [
        PiecewiseFn([ConstPiece(a, b, v) for a, b, v in zip(cuts, cuts[1:], rng.normal(size=6))])
        for _ in range(3)
    ] + [PiecewiseFn([ConstPiece(0.0, 0.4, 1.0), LogPiece(0.4, 1.0, 0.2, -0.7, 1.0, 0.3)])]
    wmin = testfn._MIN_WINDOW
    t = np.unique(np.concatenate([np.linspace(0.0, 1.0, 33), cuts, [0.4]]))
    s1, s2 = np.array([prefix_integrals(f, t) for f in fns]).transpose(1, 2, 0)
    want = [pair_scan_reference(t, s1[:, k], s2[:, k], wmin) for k in range(len(fns))]
    assert min(want) > 0.0
    assert testfn._pair_scan(t, s1, s2).tolist() == want
    for k in range(len(fns)):
        # one function is one (n, 1) column
        assert testfn._pair_scan(t, s1[:, k : k + 1], s2[:, k : k + 1]).tolist() == [want[k]]
    # the minimal window is _MIN_WINDOW of the nodes' span: stretched onto
    # [0, 8] and offset by 5e4, the two short windows, 2.4e-9 and 3.2e-9
    # wide, read rounding noise of 542 and 128, the largest true variance 0.29
    far = PiecewiseFn([ConstPiece(8 * a, 8 * b, 5e4 + v) for a, b, v in zip(cuts, cuts[1:], rng.normal(size=6))])
    s1, s2 = (s[:, None] for s in prefix_integrals(far, 8 * t))
    want = pair_scan_reference(8 * t, s1[:, 0], s2[:, 0], 8 * wmin)
    assert pair_scan_reference(8 * t, s1[:, 0], s2[:, 0], wmin) > want
    assert testfn._pair_scan(8 * t, s1, s2).tolist() == [want]


def test_pair_scan_of_phi0_matches_the_double_loop():
    f = optimizer_phi0()
    for levels in (3, 5):
        t = np.unique(np.concatenate([np.linspace(f.a, f.b, 2 ** levels + 1), f.breakpoints()]))
        s1, s2 = prefix_integrals(f, t)
        want = pair_scan_reference(t, s1, s2, testfn._MIN_WINDOW * f.length)
        assert bmo_norm(f, levels) == math.sqrt(want)


def scan_column(draw, t):
    """One column of prefix integrals at the nodes t of [0, 1]: a random step
    function, log pieces next to their singularity, or an exponential ladder,
    near-extremal everywhere, at a random scale and on a random offset."""
    kind = draw(st.sampled_from(["steps", "log", "ladder"]))
    if kind == "steps":
        cells = draw(st.integers(2, 80))
        vals = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=cells)
        f = testfn._step_fn(vals)
    elif kind == "ladder":
        # build_ladder's support [1/4, 3/4) of (-4, 5), moved onto [0, 1)
        n = draw(st.sampled_from([2, 3, 4, 8]))
        f = transfer(build_ladder(n, draw(st.floats(0.05, 0.5)), draw(st.integers(0, 3))),
                     (-8.5, 9.5))
    else:
        # c1 ln t on [0, 1/2) and 0.3 - c1 ln(1 - t) on [1/2, 1): singular at 0 and 1
        c1 = draw(st.floats(0.2, 2.0))
        f = PiecewiseFn([LogPiece(0.0, 0.5, 0.0, c1, 1.0, 0.0),
                         LogPiece(0.5, 1.0, 0.3, -c1, -1.0, 1.0)])
    s1, s2 = prefix_integrals(f, t)
    scale = 10.0 ** draw(st.integers(-6, 6))
    # an offset of 1e8 leaves the variances to cancellation in the prefix sums
    offset = draw(st.sampled_from([0.0, 0.0, 1e8]))
    s2 = s2 * scale * scale + 2.0 * offset * scale * s1 + offset * offset * t
    return s1 * scale + offset * t, s2


@st.composite
def scan_inputs(draw):
    """Sorted nodes on [0, 1] and (n, F) prefix integrals: n from 2 up to about
    600, some nodes closer together than the minimal window."""
    n = draw(st.sampled_from([2, 3, 9, 17, 18, 40, 129, 257, 513, 600]))
    t = np.linspace(0.0, 1.0, n)
    close = draw(st.lists(st.integers(1, n - 1), max_size=3)) if n > 2 else []
    # a node 3e-10 past node k, which is inside the minimal window of 1e-9
    t = np.unique(np.concatenate([t, t[close] - 3e-10]))
    cols = [scan_column(draw, t) for _ in range(draw(st.integers(1, 5)))]
    return t, np.column_stack([c[0] for c in cols]), np.column_stack([c[1] for c in cols])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scan=scan_inputs())
def test_pair_scan_matches_the_row_loop_bit_for_bit(scan):
    t, s1, s2 = scan
    wmin = testfn._MIN_WINDOW
    want = pair_scan_rows(t, s1, s2, wmin)
    got = testfn._pair_scan(t, s1, s2)
    assert got.tobytes() == want.tobytes()
    for k in range(s1.shape[1]):
        one = testfn._pair_scan(t, s1[:, k : k + 1], s2[:, k : k + 1])
        assert one.shape == (1,)
        assert one[0].hex() == pair_scan_rows(t, s1[:, k].copy(), s2[:, k].copy(), wmin).hex()


def test_pair_scan_keeps_its_rounding_slack():
    # the first two and the last two blocks lie in clusters a few ulps wide,
    # of 2b + 1 nodes each, so every window between them has the variance of
    # the outer window up to rounding, and the two steps put that window
    # near the largest variance; an offset makes the rounding larger than
    # the geometric margin of the tests, and a bound or exact test without
    # its slack prunes and misreads
    k = 2 * testfn._BLOCK + 1
    t = np.concatenate([0.125 + np.arange(k) * 2.0**-55, np.linspace(0.3, 0.7, 8),
                        0.875 - np.arange(k)[::-1] * 2.0**-53])
    assert np.all(np.diff(t) > 0.0)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for offset in (1e2, 1e3, 1e4, 1e5, 1e6):
            vals = offset + rng.normal(size=(6, 2)) * 0.1 + [-1.0, 1.0]
            fns = [testfn._step_fn(v) for v in vals]
            s1, s2 = np.array([prefix_integrals(f, t) for f in fns]).transpose(1, 2, 0)
            got = testfn._pair_scan(t, s1, s2)
            # the nodes span 0.75, so the scan's minimal window is 0.75 _MIN_WINDOW
            assert got.tobytes() == pair_scan_rows(t, s1, s2, testfn._MIN_WINDOW * 0.75).tobytes()


def scan_nodes(f, levels):
    """The nodes and prefix integrals bmo_norm scans f at."""
    t = np.unique(np.concatenate([np.linspace(f.a, f.b, 2 ** levels + 1), f.breakpoints()]))
    return (t, *prefix_integrals(f, t))


def count_pairs(monkeypatch):
    """Patch testfn._window_var to count the variances it forms; returns the running count.

    A pair read in every one of F columns counts F times, and a pair read
    in one column once, so the count is the pairs read times the columns
    they are read in.
    """
    read = []
    window_var = testfn._window_var

    def counted(*args):
        w, v = window_var(*args)
        read.append(v.size)
        return w, v

    monkeypatch.setattr(testfn, "_window_var", counted)
    return read


def test_block_bound_leaves_few_rows_on_short_maximisers(monkeypatch):
    # the oracle's 64-cell draws on the 2^9 grid: their best windows are
    # short, so the scan reads only a small share of the pairs of its 48
    # columns, band, seeds and block reads counted alike
    edges = np.linspace(0.0, 1.0, 65)
    t = np.unique(np.concatenate([np.linspace(0.0, 1.0, 513), edges]))
    fns = [testfn._step_fn(v) for v in random_step_values(range(48), 64, 1.0)]
    s1, s2 = np.array([prefix_integrals(f, t) for f in fns]).transpose(1, 2, 0)
    n = t.size
    read = count_pairs(monkeypatch)
    got = testfn._pair_scan(t, s1, s2)
    assert got.tolist() == pair_scan_rows(t, s1, s2, testfn._MIN_WINDOW).tolist()
    assert sum(read) < 0.05 * len(fns) * n * (n - 1) / 2


def test_block_tests_leave_few_pairs_on_a_ladder(monkeypatch):
    # the ladder is near-extremal everywhere, so an outer-window bound
    # excludes almost no block pair; the exact test excludes most of them
    f = build_ladder(4, 0.1, 5)
    t, s1, s2 = scan_nodes(f, 6)
    n = t.size
    read = count_pairs(monkeypatch)
    got = testfn._pair_scan(t, s1[:, None], s2[:, None])
    assert got.shape == (1,)
    assert got[0].hex() == pair_scan_rows(t, s1, s2, testfn._MIN_WINDOW * f.length).hex()
    assert sum(read) < 0.15 * n * (n - 1) / 2


def test_pair_scan_gathers_the_band_of_draws_and_sweeps_that_of_a_ladder(monkeypatch):
    # the span bounds of the 48 draws leave few (span, column) units, read
    # by gather; a near-extremal ladder's leave nearly all, and its band is
    # swept one diagonal at a time, the first an (n - 1, F) array
    shapes = []
    window_var = testfn._window_var

    def recorded(*args):
        w, v = window_var(*args)
        shapes.append(v.shape)
        return w, v

    monkeypatch.setattr(testfn, "_window_var", recorded)
    edges = np.linspace(0.0, 1.0, 65)
    t = np.unique(np.concatenate([np.linspace(0.0, 1.0, 513), edges]))
    fns = [testfn._step_fn(v) for v in random_step_values(range(48), 64, 1.0)]
    s1, s2 = np.array([prefix_integrals(f, t) for f in fns]).transpose(1, 2, 0)
    shapes.clear()
    assert testfn._pair_scan(t, s1, s2).tobytes() == pair_scan_rows(t, s1, s2, testfn._MIN_WINDOW).tobytes()
    assert (t.size - 1, 48) not in shapes
    f = build_ladder(4, 0.1, 5)
    t, s1, s2 = scan_nodes(f, 6)
    shapes.clear()
    got = testfn._pair_scan(t, s1[:, None], s2[:, None])
    assert got[0].hex() == pair_scan_rows(t, s1, s2, testfn._MIN_WINDOW * f.length).hex()
    assert (t.size - 1, 1) in shapes


def span_columns(t):
    """(n, F) prefix integrals at the nodes t of [0, 1]: two-valued (+-1) and
    normal steps on 7 and 64 cells, phi0 and a ladder moved onto [0, 1)."""
    rng = np.random.default_rng(3)
    fns = [testfn._step_fn(rng.choice([-1.0, 1.0], size=cells)) for cells in (7, 64)]
    fns += [testfn._step_fn(rng.normal(size=cells)) for cells in (7, 64)]
    fns += [transfer(optimizer_phi0(), (0.0, 1.0)), transfer(build_ladder(4, 0.1, 3), (-8.5, 9.5))]
    return np.array([prefix_integrals(f, t) for f in fns]).transpose(1, 2, 0)


def test_span_bounds_cover_every_window_of_their_span():
    # span k holds the nodes kb to kb + 2b; its bound must reach every
    # variance _window_var forms inside it, rounding included, which an
    # offset makes large next to the spread of the values
    b = testfn._BLOCK
    t = np.unique(np.concatenate([np.linspace(0.0, 1.0, 257), np.linspace(0.0, 1.0, 8)]))
    n = t.size
    s1, s2 = span_columns(t)
    for offset in (0.0, 1e2, 1e4, 1e6, 1e7):
        m1 = s1 + offset * t[:, None]
        m2 = s2 + 2.0 * offset * s1 + offset * offset * t[:, None]
        bound = testfn._span_bounds(t, m1, m2)
        assert bound.shape == (-(-(n - 1) // b), s1.shape[1])
        for k in range(bound.shape[0]):
            i, j = np.triu_indices(min(2 * b, n - 1 - k * b) + 1, 1)
            i, j = i + k * b, j + k * b
            _, v = testfn._window_var(t[j, None], t[i, None], m1[j], m1[i], m2[j], m2[i])
            assert (v <= bound[k]).all()


def test_pair_scan_memory_stays_small():
    # peak traced memory of a 16,041-node scan and of 256 draws in scans of
    # _TILE // 512 columns; the scan's band, groups, test chunks and reads
    # are bounded by _TILE or by n, and its tables by n F, so neither peak
    # grows with the number of block pairs
    f = build_ladder(4, 0.1, 6)
    peaks = []
    for call in (lambda: bmo_norm(f, 10), lambda: random_step_values(range(256), 64, 1.0)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 4e6
    assert peaks[1] < 6e6


# the (n, h, depth) rows of build_ladder's docstring table
LADDER_TABLE = ((4, 0.05, 5), (4, 0.1, 5), (4, 0.2, 5), (4, 0.3, 5), (4, 0.5, 5), (3, 0.5, 6), (8, 0.3, 3))


@pytest.mark.parametrize("tile", [testfn._TILE, 1024])
def test_pair_scan_reads_the_table_ladders_and_phi0_bit_for_bit(monkeypatch, tile):
    # build_ladder's table at levels 6 and phi0 at levels 12, as bmo_norm
    # scans them, in the scan's own batches and in batches of 1,024 values:
    # 14 to 67 row groups of block tests per ladder, chunks of 64 exact
    # tests and reads of 3 block pairs; all but the (8, 0.3, 3) ladder end
    # in a short block
    monkeypatch.setattr(testfn, "_TILE", tile)
    short = []
    for f, levels in [(build_ladder(*row), 6) for row in LADDER_TABLE] + [(optimizer_phi0(), 12)]:
        t, s1, s2 = scan_nodes(f, levels)
        short.append((t.size - 1) % testfn._BLOCK != 0)
        got = testfn._pair_scan(t, s1[:, None], s2[:, None])
        assert got.shape == (1,)
        assert got[0].hex() == pair_scan_rows(t, s1, s2, testfn._MIN_WINDOW * f.length).hex()
    assert short == [True] * 6 + [False, False]


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


def test_random_step_values_match_single_draws(monkeypatch):
    # 100 seeds are a full scan of 64 draws and a part at 64 cells; at 48
    # cells, which does not divide the 2^9 grid, the 545 nodes take 30 draws
    # per scan at _TILE = 2^14, three full scans and a part
    for cells, eps, tile in ((64, 1.0, testfn._TILE), (48, 0.37, 2 ** 14)):
        monkeypatch.setattr(testfn, "_TILE", tile)
        seeds = list(range(1000, 1100))
        batch = random_step_values(seeds, cells, eps)
        assert batch.shape == (len(seeds), cells)
        for s, vals in zip(seeds, batch):
            assert vals.tolist() == [pc.v for pc in random_step_fn(s, cells, eps).pieces]


def test_random_step_values_match_the_per_draw_route(monkeypatch):
    # the route the prefix sums replaced: one step function per draw
    # through prefix_integrals, then the row-loop scan and the rescale
    def per_draw(seed, cells, eps):
        rng = np.random.Generator(np.random.Philox(seed))
        raw = rng.normal(0.0, 1.0, cells)
        while not np.ptp(raw) > 0:
            raw = rng.normal(0.0, 1.0, cells)
        edges = np.linspace(0.0, 1.0, cells + 1)
        grid = np.linspace(0.0, 1.0, 2 ** testfn._GEN_LEVELS + 1)
        nodes = np.unique(np.concatenate([grid, edges]))
        s1, s2 = prefix_integrals(testfn._step_fn(raw), nodes)
        best = pair_scan_rows(nodes, s1, s2, testfn._MIN_WINDOW)
        return (raw * (eps / math.sqrt(max(best, 0.0)))).tolist()

    seeds = list(range(40))
    for cells in (2, 3, 7, 48, 64):
        got = random_step_values(seeds, cells, 0.9)
        assert got.tolist() == [per_draw(s, cells, 0.9) for s in seeds]
    # 70 draws at 30 per scan: two full scans and a partial one
    monkeypatch.setattr(testfn, "_TILE", 2 ** 14)
    seeds = list(range(500, 570))
    got = random_step_values(seeds, 48, 1.0)
    assert got.tolist() == [per_draw(s, 48, 1.0) for s in seeds]


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
