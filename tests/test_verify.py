"""Verification layer: every checker passes on honest inputs and, just as
importantly, fails loudly when fed a corrupted route."""

import json
import math
import re

import numpy as np
import pytest

import bmobell.verify as verify
from bmobell import (
    DomainError,
    Params,
    VerifyReport,
    build_ladder,
    check_attainment,
    check_c1_glue,
    check_concavity,
    check_identities,
    check_inequality_oracle,
    check_skeleton,
    check_transference,
    edge_ratio,
    extract_constant,
    gamma_fn,
    mean,
    moments,
    random_step_fn,
    run_suite,
    second_moment,
    sharp_constant,
    transference_metrics,
    value_batch,
)
from bmobell.domain import envelope_batch

PAIRS = (Params(1.0, 3.0), Params(2.5, 4.0), Params(4.0, 3.0), Params(1.2, 1.5))


# ------------------------------------------------------------------- reports


def test_report_json_key_order_is_stable():
    rep = VerifyReport(
        suite="identities",
        params={"p": 1.0, "r": 3.0, "eps": 1.0},
        cases=3,
        worst_residual=1e-12,
        witness={"u": 1.0},
        passed=True,
    )
    obj = json.loads(rep.to_json())
    assert list(obj) == ["suite", "params", "cases", "worst_residual", "witness", "passed"]
    # float round trip through the serialization is lossless
    assert obj["worst_residual"] == 1e-12


# ------------------------------------------------------------------ checkers


def test_identity_suite_passes():
    for pa in PAIRS:
        rep = check_identities(pa, pa.eps + np.linspace(0.0, 10.0, 21))
        assert rep.passed, rep.to_json()
        assert rep.worst_residual <= 1e-10


def test_identity_suite_catches_a_corrupted_transform(monkeypatch):
    import bmobell.specfn as specfn

    honest = specfn.m_fn

    def crooked(p, eps, u, order=0):
        return honest(p, eps, u, order) * (1.0 + 3e-6)

    monkeypatch.setattr(verify, "m_fn", crooked)
    rep = check_identities(Params(1.5, 3.0), np.array([1.0, 2.0, 4.0]))
    assert not rep.passed
    assert rep.worst_residual > 1e-7


def test_identity_grid_guard():
    with pytest.raises(DomainError):
        check_identities(Params(1.0, 3.0), np.array([0.5]))  # below eps


def test_skeleton_suite_passes():
    grid = np.linspace(-5.0, 5.0, 41)
    for pa in PAIRS:
        rep = check_skeleton(pa, grid)
        assert rep.passed
        assert rep.cases == 41


def test_concavity_suite_passes_in_both_regimes():
    for pa in PAIRS:
        rep = check_concavity(pa, 200, seed=7)
        assert rep.passed, rep.to_json()


def test_concavity_rejects_degenerate_exponents():
    with pytest.raises(DomainError):
        check_concavity(Params(1.0, 2.0), 10, seed=0)


def test_oracle_concavity_and_c1_take_integer_counts():
    # a float count is refused, not truncated, and a numpy integer is a count
    pa = Params(1.0, 3.0)
    for n in (0, -1, 2.7, 2.0):
        for check in (lambda: check_inequality_oracle(pa, n, 8, 7), lambda: check_concavity(pa, n, 7),
                      lambda: check_c1_glue(pa, n)):
            with pytest.raises(DomainError):
                check()
    for seed in (-1, 7.0):
        for check in (lambda: check_inequality_oracle(pa, 2, 8, seed), lambda: check_concavity(pa, 2, seed)):
            with pytest.raises(DomainError):
                check()
    assert check_inequality_oracle(pa, np.int64(2), 8, np.uint64(7)) == check_inequality_oracle(pa, 2, 8, 7)
    assert check_concavity(pa, np.int64(5), np.int64(7)) == check_concavity(pa, 5, 7)
    assert check_c1_glue(pa, np.int64(3)) == check_c1_glue(pa, 3)


def test_c1_glue_suite_passes():
    for pa in PAIRS:
        rep = check_c1_glue(pa, 25)
        assert rep.passed, rep.to_json()
        assert rep.cases == 51
        assert rep.witness["splice_ratio_residual"] <= 1e-8


def test_oracle_suite_passes_both_regimes():
    for pa in (Params(1.0, 3.0), Params(4.0, 3.0)):
        rep = check_inequality_oracle(pa, 300, cells=32, seed=7)
        assert rep.passed
        assert rep.cases == 300
        # worst residual strictly negative: the bound has real slack
        assert rep.worst_residual < 0.0


@pytest.mark.parametrize("cells", [32, 48])
def test_oracle_moments_are_the_step_functions_moments(cells):
    # 48 equal cells have unequal float widths; the moments are still those
    # of the piecewise integrals, bit for bit
    rep = check_inequality_oracle(Params(1.0, 3.0), 50, cells=cells, seed=7)
    f = random_step_fn(rep.witness["seed"], cells, 1.0)
    assert rep.witness["x"] == [mean(f), second_moment(f), moments(f, 1.0)]
    assert rep.witness["moment_r"] == moments(f, 3.0)


def test_oracle_suite_catches_a_halved_evaluator(monkeypatch):
    # random step functions stay well inside the bound, so the oracle is a
    # gross-correctness net; the fine probe below goes through attainment
    honest = verify.value_batch

    def halved(params, pts):
        return 0.5 * honest(params, pts)

    monkeypatch.setattr(verify, "value_batch", halved)
    rep = check_inequality_oracle(Params(1.0, 3.0), 300, cells=32, seed=7)
    assert not rep.passed
    assert rep.worst_residual > 0.0


def test_attainment_suite_catches_a_shaved_evaluator(monkeypatch):
    # the rim extremals sit exactly on the bound, so even a 1e-5 shave
    # must push the value residual over its 1e-6 ceiling
    honest = verify.value_batch

    def shaved(params, pts):
        return (1.0 - 1e-5) * honest(params, pts)

    monkeypatch.setattr(verify, "value_batch", shaved)
    rep = check_attainment(Params(1.0, 3.0), (1.0, 1.5))
    assert not rep.passed
    assert rep.worst_residual > 1e-6


def test_attainment_needs_a_chord_value():
    for grid in ([], (), np.array([])):
        with pytest.raises(DomainError):
            check_attainment(Params(1.0, 3.0), grid)


def test_attainment_suite_passes():
    for pa in PAIRS:
        eps = pa.eps
        rep = check_attainment(pa, (eps, 1.5 * eps, 3.0 * eps))
        assert rep.passed, rep.to_json()
        assert rep.worst_residual <= 1e-8


# ------------------------------------------------------------ sharp constant


def test_sharp_constant_reference_values():
    assert sharp_constant(1.0, 3.0) ** 3 == pytest.approx(6.0, rel=1e-14)
    assert sharp_constant(2.0, 4.0) == pytest.approx(12.0 ** 0.25, rel=1e-14)
    assert sharp_constant(1.0, 2.0) == pytest.approx(2.0 ** 0.5, rel=1e-14)


def test_sharp_constant_domain():
    with pytest.raises(DomainError):
        sharp_constant(0.5, 3.0)
    with pytest.raises(DomainError):
        sharp_constant(1.0, 1.5)  # r below 2
    with pytest.raises(DomainError):
        sharp_constant(3.0, 3.0)  # r must exceed p


def test_edge_ratio_starts_at_the_gamma_ratio_and_decreases():
    pa = Params(1.0, 3.0)
    u = np.linspace(0.0, 1.0, 201)
    g = edge_ratio(pa, u)
    assert g[0] == pytest.approx(gamma_fn(4.0) / gamma_fn(2.0), rel=1e-12)
    assert np.all(np.diff(g) < 0.0)
    with pytest.raises(DomainError):
        edge_ratio(Params(1.0, 3.0, 0.5), u)


def test_extract_constant_small_grid():
    c, arg = extract_constant(Params(1.0, 3.0), 120)
    assert c ** 3 == pytest.approx(6.0, rel=5e-3)
    assert arg[0] == 0.0
    assert arg[1] == pytest.approx(1.0, abs=1.5 / 120)
    assert arg[2] == pytest.approx(0.5, abs=0.02)


def test_extract_constant_improves_with_density():
    c60, _ = extract_constant(Params(1.0, 3.0), 60)
    c200, _ = extract_constant(Params(1.0, 3.0), 200)
    best = 6.0 ** (1.0 / 3.0)
    assert abs(c200 - best) <= abs(c60 - best) + 1e-12
    # the scan never beats the true constant
    assert c200 <= best * (1.0 + 1e-9)


@pytest.mark.parametrize("pa", [Params(1.0, 3.0), Params(2.5, 4.0)])
@pytest.mark.parametrize("n", [64, 120])
def test_extract_constant_matches_the_row_loop(pa, n):
    # reference: the whole slice in one value_batch call, and a Python loop
    # over its rows with the relative 1e-12 tie band within and across rows
    x2s = np.linspace(0.0, 1.0, n + 1)[1:]
    lo, hi = envelope_batch(pa, np.zeros_like(x2s), x2s)
    x3 = np.linspace(lo, hi, n, axis=1)
    X = np.column_stack([np.zeros(x3.size), np.repeat(x2s, n), x3.ravel()])
    ratios = (value_batch(pa, X) / X[:, 2]).reshape(x3.shape)
    best, arg = -math.inf, None
    for row, ratio, line in zip(x2s, ratios, x3):
        m = float(ratio.max())
        j = int(np.flatnonzero(ratio >= m - 1e-12 * abs(m))[-1])
        if m > best + 1e-12 * abs(m):
            best, arg = m, (0.0, float(row), float(line[j]))
        elif m >= best - 1e-12 * abs(best):
            best, arg = max(best, m), (0.0, float(row), float(line[j]))
    assert extract_constant(pa, n) == (best ** (1.0 / pa.r), arg)


def test_extract_constant_guards():
    with pytest.raises(DomainError):
        extract_constant(Params(4.0, 3.0), 50)  # convex regime
    with pytest.raises(DomainError):
        extract_constant(Params(1.0, 3.0, 2.0), 50)  # non-unit scale
    for n in (0, -1, 2.7, 4.0):  # an empty slice, and densities that are no integers
        with pytest.raises(DomainError):
            extract_constant(Params(1.0, 3.0), n)
    assert extract_constant(Params(1.0, 3.0), np.int64(4)) == extract_constant(Params(1.0, 3.0), 4)


# -------------------------------------------------------------- transference


def test_transference_metrics_rejects_the_zero_function():
    from bmobell import ConstPiece, PiecewiseFn

    zero = PiecewiseFn([ConstPiece(-1.0, 1.0, 0.0)])
    with pytest.raises(DomainError):
        transference_metrics(zero, 1.0, 3.0, 0.05)


def test_ladder_meets_the_ratio_bar_for_every_pair():
    # the moments are exact, so the line ratio is the sharp constant scaled
    # by the seminorm reading alone: C(p, r) * bmo^-(1 - p/r)
    psi = build_ladder(4, 0.1, 5)
    for p, r in ((1.0, 3.0), (1.0, 2.5), (2.5, 4.0), (1.5, 3.0)):
        w = transference_metrics(psi, p, r, 0.05)
        assert w["support_stray"] == 0.0
        assert w["integral_p"] == pytest.approx(gamma_fn(p + 1.0) / 2.0, rel=1e-10)
        assert w["integral_r"] == pytest.approx(gamma_fn(r + 1.0) / 2.0, rel=1e-10)
        want = sharp_constant(p, r) * w["bmo"] ** (p / r - 1.0)
        assert w["ratio"] == pytest.approx(want, rel=1e-10)
        assert w["ratio"] >= 0.95 * sharp_constant(p, r)


def test_transference_support_counts_pieces_reaching_outside():
    from bmobell import ConstPiece, LogPiece, PiecewiseFn

    # pieces straddling 0 or 1 count whole, as do nonzero pieces wholly outside;
    # zero pieces outside never do
    cases = (
        ([ConstPiece(-1.0, 0.5, 1.0), ConstPiece(0.5, 1.0, 2.0)], 1.0),
        ([ConstPiece(0.0, 0.5, 1.0), ConstPiece(0.5, 1.5, -2.0)], 2.0),
        ([ConstPiece(-1.0, 0.0, 0.0), ConstPiece(0.0, 1.0, 3.0), ConstPiece(1.0, 2.0, 0.0)], 0.0),
        ([LogPiece(0.0, 1.5, 0.0, -1.0, 1.0, 0.0)], math.inf),
        ([ConstPiece(-2.0, -1.0, 0.5), ConstPiece(-1.0, 0.0, 0.0), ConstPiece(0.0, 1.0, 1.0)], 0.5),
        # a log piece with c1 = 0 is the constant c0, here flat zero
        ([ConstPiece(0.0, 1.0, 1.0), LogPiece(1.0, 2.0, 0.0, 0.0, 1.0, 0.5)], 0.0),
    )
    for pieces, stray in cases:
        w = transference_metrics(PiecewiseFn(pieces), 1.0, 3.0, 0.05)
        assert w["support_stray"] == stray


@pytest.mark.parametrize("p, r", [(1.0, 3.0), (1.0, 2.5), (2.5, 4.0), (1.5, 3.0)])
def test_transference_check_passes_on_the_ladder(p, r):
    rep = check_transference(Params(p, r))
    assert rep.suite == "transference"
    assert rep.passed and rep.worst_residual <= 0.0
    assert rep.cases == 5
    w = rep.witness
    assert list(w) == [
        "support_stray", "integral_p", "integral_r", "bmo", "ratio", "worst_check", "ladder",
    ]
    assert w["ladder"] == [4, 0.1, 5]
    assert w["bmo"] <= 1.05
    assert w["ratio"] >= 0.95 * sharp_constant(p, r)
    assert run_suite("transference", Params(p, r))[0] == rep


def test_transference_support_is_a_gate(monkeypatch):
    from bmobell import ConstPiece, PiecewiseFn

    # on the ladder the stray mass is 0, so the residual is the largest
    # margin below a bar; any stray mass fails the run and is the residual
    rep = check_transference(Params(1.0, 3.0))
    w = rep.witness
    margins = {
        "moment_p": abs(w["integral_p"] - 0.5) / 0.5 - 0.02,
        "moment_r": abs(w["integral_r"] - 3.0) / 3.0 - 0.02,
        "bmo": w["bmo"] - 1.05,
        "ratio": 0.95 * sharp_constant(1.0, 3.0) - w["ratio"],
    }
    assert rep.passed and rep.worst_residual < 0.0
    assert w["worst_check"] != "support"
    assert rep.worst_residual == max(margins.values())
    assert margins[w["worst_check"]] == rep.worst_residual

    honest = verify.testfn.build_ladder

    def doctored(n, h, depth):
        pieces = list(honest(n, h, depth).pieces)
        first = pieces[0]
        assert first.b <= 0.25 and first.v == 0.0
        # the raised piece reaches into the unit interval, up to 1/4
        pieces[0] = ConstPiece(first.a, first.b, 0.25)
        return PiecewiseFn(pieces)

    monkeypatch.setattr(verify.testfn, "build_ladder", doctored)
    bad = check_transference(Params(1.0, 3.0))
    assert not bad.passed
    assert bad.witness["worst_check"] == "support"
    assert bad.worst_residual == bad.witness["support_stray"] == 0.25
    assert bad.cases == 5


# ---------------------------------------------------------------- run_suite


def test_run_suite_all_covers_the_evaluator_checks():
    reps = run_suite("all", Params(1.0, 3.0), samples=60, cells=16)
    names = [r.suite for r in reps]
    assert names == [
        "identities",
        "skeleton",
        "concavity",
        "c1_glue",
        "inequality_oracle",
        "attainment",
    ]
    assert all(r.passed for r in reps)


def test_run_suite_degenerate_skips_curvature_checks():
    reps = run_suite("all", Params(1.0, 2.0), samples=40, cells=16)
    names = [r.suite for r in reps]
    assert "concavity" not in names
    assert "inequality_oracle" not in names
    assert all(r.passed for r in reps)


def test_run_suite_unknown_name():
    with pytest.raises(DomainError):
        run_suite("everything", Params(1.0, 3.0))


VERIFY_REFUSALS = [
    (lambda: check_inequality_oracle(Params(1.0, 2.0), 10, 8, 0), "oracle needs a non-degenerate exponent pair"),
    # the edge is parametrized by u in [0, 1]; past 1 the ratio turns negative
    (lambda: edge_ratio(Params(1.0, 3.0), [0.5, 1.5]), "edge ratio needs chord values u in [0, 1]"),
    (lambda: edge_ratio(Params(1.0, 3.0), [-0.1]), "edge ratio needs chord values u in [0, 1]"),
    (lambda: edge_ratio(Params(1.0, 3.0), [math.nan]), "edge ratio needs chord values u in [0, 1]"),
    # a non-finite grid is named, not left to m_fn or the extremals to refuse
    (lambda: check_identities(Params(1.0, 3.0), [1.5, math.nan]), "u_grid must lie inside [1.0, 11.0]"),
    (lambda: check_identities(Params(1.0, 3.0), [math.inf]), "u_grid must lie inside [1.0, 11.0]"),
    (lambda: check_attainment(Params(1.0, 3.0), [0.5, math.nan]),
     "attainment check needs at least one chord value in u_grid, all finite"),
    (lambda: check_attainment(Params(1.0, 3.0), [math.inf]),
     "attainment check needs at least one chord value in u_grid, all finite"),
    (lambda: check_attainment(Params(1.0, 3.0), []), "attainment check needs at least one chord value in u_grid, all finite"),
]


@pytest.mark.parametrize("call,text", VERIFY_REFUSALS)
def test_verify_refuses_bad_input_by_name(call, text):
    with pytest.raises(DomainError, match=re.escape(text)):
        call()
