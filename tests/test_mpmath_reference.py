"""30-digit mpmath references for k and the log-piece moments.

The references integrate the defining formulas directly with mpmath.quad
and share no code with the package: only the double inputs and the piece
coefficients cross over, so both sides evaluate the same function.
"""

import mpmath as mp
import numpy as np
import pytest

from bmobell import LogPiece, PiecewiseFn, k_fn, moments, optimizer_uminus

# relative spans (u - eps)/eps: both sides of the 0.5 cut where short
# spans leave the closed form, the cancelling limit u -> eps, and the far
# field where the backward kernel has forgotten its left end
SPANS = (1e-9, 1e-6, 0.49, 0.51, 5.0, 59.0)


def _split(lo, hi, cuts):
    return [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]


@mp.workdps(30)
def ref_k(p, eps, u):
    """(p/eps) integral_eps^u exp((t-u)/eps) t^(p-1) dt, with s = (u - t)/eps."""
    p, eps, u = mp.mpf(p), mp.mpf(eps), mp.mpf(u)
    d = (u - eps) / eps
    f = lambda s: mp.exp(-s) * (u - eps * s) ** (p - 1)  # noqa: E731
    return p * mp.quad(f, _split(mp.mpf(0), d, (1, 5, 20, 40)))


@mp.workdps(30)
def ref_log_moment(piece, q):
    """integral over the piece of |c0 + c1 ln w|^q dt, w = sigma (t - tau) = e^s."""
    c0, c1, q = mp.mpf(piece.c0), mp.mpf(piece.c1), mp.mpf(q)
    w = sorted(mp.mpf(piece.sigma) * (mp.mpf(t) - mp.mpf(piece.tau)) for t in (piece.a, piece.b))
    lo = mp.log(w[0]) if w[0] > 0 else mp.ninf
    hi = mp.log(w[1])
    f = lambda s: mp.exp(s) * abs(c0 + c1 * s) ** q  # noqa: E731
    # split at the zero, where |.|^q has its kink, and every 8 units below
    # the top, since exp(s) spans orders of magnitude over a long range
    knots = [-c0 / c1] + [hi - 8 * k for k in range(1, 10)]
    return mp.quad(f, _split(lo, hi, knots))


@mp.workdps(30)
def ref_moments(f, q):
    """|I|^-1 integral_I |f|^q, summed piece by piece."""
    total = mp.mpf(0)
    for pc in f.pieces:
        if isinstance(pc, LogPiece):
            total += ref_log_moment(pc, q)
        else:
            total += abs(mp.mpf(pc.v)) ** q * (mp.mpf(pc.b) - mp.mpf(pc.a))
    return total / (mp.mpf(f.b) - mp.mpf(f.a))


def rel(got, want):
    return float(abs((mp.mpf(got) - want) / want))


def test_k_matches_the_30_digit_integral():
    worst = 0.0
    for p in (1.0, 1.5, 1.999, 2.001, 4.0, 10.0):
        for eps in (0.3, 1.0, 3.0):
            u = np.array([eps * (1.0 + d) for d in SPANS])
            got = k_fn(p, eps, u)
            for ui, gi in zip(u, got):
                worst = max(worst, rel(gi, ref_k(p, eps, ui)))
    assert worst <= 3e-15, worst


LOG_PIECES = (
    # zero crossing inside the piece
    LogPiece(0.0, 1.0, 0.5, 1.0, 1.0, 0.0),
    LogPiece(0.1, 10.0, 0.0, 1.0, 1.0, 0.0),
    LogPiece(1.0, 1.5, -0.2, 1.0, 1.0, 0.0),
    LogPiece(-2.0, -0.5, 0.3, -1.0, -1.0, 0.0),
    # growing span shorter than the cut, no zero inside
    LogPiece(1.0, 1.3, 2.0, 1.0, 1.0, 0.0),
    LogPiece(3.0, 3.2, 1.0, 0.5, 1.0, 0.0),
    LogPiece(-1.4, -1.0, 4.0, 2.0, -1.0, 0.0),
)


@pytest.mark.parametrize("q", [1.0, 2.5, 4.0])
def test_log_piece_moments_match_the_30_digit_integral(q):
    fns = [PiecewiseFn([pc]) for pc in LOG_PIECES]
    fns += [optimizer_uminus(eps, eps * (1.0 + d)) for eps in (0.3, 3.0) for d in SPANS]
    worst = max(rel(moments(f, q), ref_moments(f, q)) for f in fns)
    assert worst <= 3e-15, worst
