"""Piecewise test functions: exact moments, oscillation norm, rearrangements."""

import math

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
    assert testfn._pair_scan(t, s1, s2, wmin).tolist() == want
    for k in range(len(fns)):
        assert testfn._pair_scan(t, s1[:, k : k + 1], s2[:, k : k + 1], wmin)[0] == want[k]
        # one function's 1-D prefix integrals give its reading as a float
        one = testfn._pair_scan(t, s1[:, k].copy(), s2[:, k].copy(), wmin)
        assert type(one) is float and one == want[k]
    # wider than every window: nothing qualifies and the scan reads 0
    assert testfn._pair_scan(t, s1, s2, 2.0).tolist() == [0.0] * len(fns)
    assert testfn._pair_scan(t, s1[:, 0].copy(), s2[:, 0].copy(), 2.0) == 0.0


def test_pair_scan_of_phi0_matches_the_double_loop():
    f = optimizer_phi0()
    for levels in (3, 5):
        t = np.unique(np.concatenate([np.linspace(f.a, f.b, 2 ** levels + 1), f.breakpoints()]))
        s1, s2 = prefix_integrals(f, t)
        want = pair_scan_reference(t, s1, s2, testfn._MIN_WINDOW * f.length)
        assert bmo_norm(f, levels) == math.sqrt(want)


def scan_column(draw, t):
    """One column of prefix integrals at the nodes t of [0, 1]: a random step
    function, or log pieces next to their singularity, at a random scale and
    on a random offset."""
    kind = draw(st.sampled_from(["steps", "log"]))
    if kind == "steps":
        cells = draw(st.integers(2, 80))
        vals = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=cells)
        f = testfn._step_fn(vals)
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
    got = testfn._pair_scan(t, s1, s2, wmin)
    assert got.tobytes() == want.tobytes()
    for k in range(s1.shape[1]):
        one = testfn._pair_scan(t, s1[:, k].copy(), s2[:, k].copy(), wmin)
        assert type(one) is float
        assert one.hex() == pair_scan_rows(t, s1[:, k].copy(), s2[:, k].copy(), wmin).hex()


def test_pair_scan_keeps_its_rounding_slack():
    # the first and the last block lie in clusters a few ulps wide, so every
    # window between them has the variance of the outer window up to
    # rounding, and an offset makes that rounding larger than the geometric
    # margin of the bound; a bound without its slack prunes and misreads
    t = np.concatenate([0.125 + np.arange(9) * 2.0**-55, np.linspace(0.3, 0.7, 8),
                        0.875 - np.arange(9)[::-1] * 2.0**-53])
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for offset in (1e2, 1e5, 1e6):
            vals = offset + rng.normal(size=(6, 2)) * 0.1 + [-1.0, 1.0]
            fns = [testfn._step_fn(v) for v in vals]
            s1, s2 = np.array([prefix_integrals(f, t) for f in fns]).transpose(1, 2, 0)
            got = testfn._pair_scan(t, s1, s2, testfn._MIN_WINDOW)
            assert got.tobytes() == pair_scan_rows(t, s1, s2, testfn._MIN_WINDOW).tobytes()


def test_block_bound_leaves_few_rows_on_short_maximisers(monkeypatch):
    # the oracle's 64-cell draws on the 2^9 grid: their best windows are
    # short, so the rows read only a small share of the pairs
    edges = np.linspace(0.0, 1.0, 65)
    t = np.unique(np.concatenate([np.linspace(0.0, 1.0, 513), edges]))
    fns = [testfn._step_fn(v) for v in random_step_values(range(48), 64, 1.0)]
    s1, s2 = np.array([prefix_integrals(f, t) for f in fns]).transpose(1, 2, 0)
    n = t.size
    b = max(8, -(-(n - 1) // testfn._BLOCKS))
    read = []
    ends = testfn._row_ends

    def counted(*args):
        for lo, stop in ends(*args):
            read.extend(max(0, stop - (i + 2 * b + 1)) for i in range(lo, min(lo + b, n - 1)))
            yield lo, stop

    monkeypatch.setattr(testfn, "_row_ends", counted)
    got = testfn._pair_scan(t, s1, s2, testfn._MIN_WINDOW)
    assert got.tolist() == pair_scan_rows(t, s1, s2, testfn._MIN_WINDOW).tolist()
    assert sum(read) < 0.25 * n * (n - 1) / 2


def test_bmo_levels_guard():
    with pytest.raises(DomainError):
        bmo_norm(two_step(), 0)
    with pytest.raises(DomainError):
        bmo_norm(two_step(), 17)


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
LADDER_CASES = (
    (4, 0.05, 5), (4, 0.1, 5), (4, 0.2, 5), (4, 0.3, 5), (4, 0.5, 5), (3, 0.5, 6), (8, 0.3, 3),
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
    with pytest.raises(DomainError):
        build_ladder(4, 0.1, -1)
    for n, h in ((1, 0.1), (2.5, 0.1), (4, 0.0), (4, -0.1), (4, math.nan)):
        with pytest.raises(DomainError):
            build_ladder(n, h, 3)
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
    # 100 seeds are one partial chunk at 64 cells; at 48 cells, which does
    # not divide the 2^9 grid, chunks of 32 give three full blocks and a part
    for cells, eps, chunk in ((64, 1.0, testfn._SCAN_CHUNK), (48, 0.37, 32)):
        monkeypatch.setattr(testfn, "_SCAN_CHUNK", chunk)
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
    # 70 draws in chunks of 32: two full blocks and a partial one
    monkeypatch.setattr(testfn, "_SCAN_CHUNK", 32)
    seeds = list(range(500, 570))
    got = random_step_values(seeds, 48, 1.0)
    assert got.tolist() == [per_draw(s, 48, 1.0) for s in seeds]


def test_random_step_values_guards():
    assert random_step_values([], 8, 1.0).shape == (0, 8)
    with pytest.raises(DomainError):
        random_step_values([1], 1, 1.0)
    with pytest.raises(DomainError):
        random_step_values([1], 8, 0.0)


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
