"""Piecewise-analytic test functions with exact moment integrals.

Three piece kinds cover everything needed here: constants, affine images
of the logarithm t -> c0 + c1*ln(sigma*(t - tau)), and the self-similar
exponential ladder (see LadderPiece).  Means and second moments reduce to
closed antiderivatives; absolute q-th moments reduce, after the
substitution z = -ln w, to exponential-weight integrals of |affine|^q
which are evaluated by incomplete-gamma differences on the side where the
weight decays and by specfn.rise_integral on the other side.  A ladder piece
has the law beta + Exp(1), so its whole-piece integrals are closed forms
too, and its partial integrals and values come from one walk through its
cells.  Pieces are plain records, checked when they form a PiecewiseFn.

The oscillation seminorm is computed on a dyadic grid refined by every
piece breakpoint: prefix integrals at grid nodes are exact, so the scan
over node pairs is exact on its candidate set and bounds the true
seminorm from below.  The scan reads the pairs in blocks and skips those
that a bound from the window around them, with a slack for rounding,
proves cannot beat the maximum, so its reading is the maximum over every
pair, bit for bit.  That saves most of the work where the maximising
windows are short next to the domain, as for random step functions and
phi0, and next to none on the near-extremal ladders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from .errors import DomainError
from .specfn import gamma_fn, rise_integral

# candidate-set refinement used when a generated step function is rescaled
# to unit grid seminorm; one level beyond 8 resolves window endpoints well
# inside the cells of a 64-cell draw
_GEN_LEVELS = 9

# draws per pair scan in random_step_values.  Under the block bound the rows
# read the union over the columns of the blocks that reach, so wider scans
# prune less; measured on 2 vCPUs for 1,024 draws of 64 cells (median of 5):
# 0.54 s at 32 columns, 0.40 s at 64, 0.32 s at 128 and at 256, 0.33 s at
# 512 and 0.37 s at 1,024, with peak scan memory 0.89, 1.6, 3.0, 5.9, 11.7
# and 23.3 MB.  128, 192 and 256 came within 4% of each other over 2,048
# draws, quartiles overlapping, so 256 stays
_SCAN_CHUNK = 256

# the pair scan cuts its nodes into about this many blocks for its block bound
_BLOCKS = 64

# windows shorter than this fraction of the domain are dropped from the
# pair scan: prefix-sum cancellation makes their variance meaningless
_MIN_WINDOW = 1e-9


@dataclass(frozen=True)
class ConstPiece:
    """Constant value v on the half-open interval [a, b)."""

    a: float
    b: float
    v: float


@dataclass(frozen=True)
class LogPiece:
    """t -> c0 + c1*ln(sigma*(t - tau)) on [a, b); sigma*(t - tau) > 0 inside."""

    a: float
    b: float
    c0: float
    c1: float
    sigma: float
    tau: float


@dataclass(frozen=True)
class LadderPiece:
    """beta plus the unit exponential ladder with branching n and step h, on [a, b).

    The unit ladder on [0, 1) is cut into n equal cells.  A cell of length
    c with center m carries the rising ramp -ln(1 - (t - left)/(c/2)) and
    the falling ramp -ln((t - m)/(c/2)), each of length (1 - e^-h) c/2 and
    together of law Exp(1) conditioned below h, around a centred block of
    length e^-h c that holds h plus a copy of the whole unit ladder.  The
    memoryless property of Exp(1) makes the law of the piece exactly
    beta + Exp(1), and the function is continuous up to the null set of
    nested cell centers, where it is infinite.  n >= 2 and a finite h > 0
    are checked when the piece forms a PiecewiseFn.
    """

    a: float
    b: float
    beta: float
    n: int
    h: float


class PiecewiseFn:
    """Immutable partition of [a, b) into pieces, held as one array per field.

    Row i of the eight arrays is piece i: _kind (0 constant, 1 log, 2
    ladder), its ends _pa and _pb, and _c0, _c1, _sig, _tau, _nb.  A
    constant keeps its value in _c0; a log piece keeps c0, c1, sigma and
    tau; a ladder piece keeps beta in _c0, the step h in _c1 and the
    branching in _nb.  Unused fields read c1 = 0, sigma = 1, tau = 0 and
    n = 0.  A piece is constant exactly when its c1 is 0 (a ladder's step is
    positive), so a log piece with c1 = 0 reads as c0 on every path.  Pieces
    are checked when they form a function, by _set, which both
    PiecewiseFn(pieces) and from_arrays go through; the piece objects are
    built from the arrays on first access to pieces.

    Readings that depend only on the function, such as bmo_norm per levels
    and moments per exponent, are kept in _memo, keyed by what was read, and
    live as long as the function does.
    """

    __slots__ = (
        "a", "b", "_kind", "_pa", "_pb", "_c0", "_c1", "_sig", "_tau", "_nb", "_pieces", "_memo",
    )

    def __init__(self, pieces):
        pieces = tuple(pieces)
        rows = []
        for pc in pieces:
            if isinstance(pc, ConstPiece):
                rows.append((0, pc.a, pc.b, pc.v, 0.0, 1.0, 0.0, 0))
            elif isinstance(pc, LogPiece):
                rows.append((1, pc.a, pc.b, pc.c0, pc.c1, pc.sigma, pc.tau, 0))
            elif isinstance(pc, LadderPiece):
                rows.append((2, pc.a, pc.b, pc.beta, pc.h, 1.0, 0.0, pc.n))
            else:
                raise DomainError(f"unsupported piece {pc!r}")
        self._set(*np.array(rows, dtype=float).reshape(-1, 8).T)
        self._pieces = pieces

    @classmethod
    def from_arrays(cls, kind, pa, pb, c0, c1, sig, tau, nb) -> "PiecewiseFn":
        """The function whose piece i is row i of the eight field arrays."""
        f = cls.__new__(cls)
        f._set(kind, pa, pb, c0, c1, sig, tau, nb)
        f._pieces = None
        return f

    def _set(self, kind, pa, pb, c0, c1, sig, tau, nb):
        """Check the eight field arrays and take copies of them, read-only.

        This is the one check on piece fields.  A field its kind does not use
        is set to its default.  The ladder check runs before the checks on
        the ends, so a bad step is named rather than the empty ramp it makes.
        """
        cols = [np.array(v, dtype=float) for v in (kind, pa, pb, c0, c1, sig, tau, nb)]
        if cols[0].ndim != 1 or any(v.shape != cols[0].shape for v in cols):
            raise DomainError("piece fields must be one-dimensional arrays of one length")
        kind, pa, pb, c0, c1, sig, tau, nb = cols
        if not kind.size:
            raise DomainError("a piecewise function needs at least one piece")
        log, lad = kind == 1.0, kind == 2.0
        c1[kind == 0.0], sig[~log], tau[~log], nb[~lad] = 0.0, 1.0, 0.0, 0.0
        checks = (
            (~np.isin(kind, (0.0, 1.0, 2.0)), lambda i: f"unsupported piece kind {kind[i]}"),
            (lad & ~((nb >= 2.0) & (nb == np.floor(nb)) & (c1 > 0.0) & np.isfinite(c1)),
             lambda i: f"ladder needs an integer branching >= 2 and a finite step > 0, "
                       f"got {nb[i]} and {c1[i]}"),
            # one field at a time: a stacked copy of the fields would add to peak memory
            (~np.logical_and.reduce([np.isfinite(v) for v in (pa, pb, c0, c1, tau, nb)]),
             lambda i: f"piece {i} has a non-finite end, c0, c1, tau or branching"),
            (~(pb > pa), lambda i: f"piece [{pa[i]}, {pb[i]}) is empty or reversed"),
            (np.append(pb[:-1] != pa[1:], False),
             lambda i: f"pieces must abut exactly: {pb[i]} != {pa[i + 1]}"),
            (log & (sig != 1.0) & (sig != -1.0), lambda i: f"sigma must be +-1, got {sig[i]}"),
            # positivity on the open interval pins tau outside of it
            (log & np.where(sig > 0, ~(tau <= pa), ~(tau >= pb)),
             lambda i: f"tau = {tau[i]} must sit {'left' if sig[i] > 0 else 'right'} "
                       f"of [{pa[i]}, {pb[i]})"),
        )
        for bad, message in checks:
            if bad.any():
                raise DomainError(message(int(np.argmax(bad))))
        kind = kind.astype(np.uint8)
        for v in (kind, pa, pb, c0, c1, sig, tau, nb):
            v.flags.writeable = False
        self._kind = kind
        self._pa, self._pb = pa, pb
        self._c0, self._c1 = c0, c1
        self._sig, self._tau = sig, tau
        self._nb = nb
        self.a = float(pa[0])
        self.b = float(pb[-1])
        self._memo = {}

    @property
    def pieces(self) -> tuple:
        if self._pieces is None:
            rows = zip(*(v.tolist() for v in (self._kind, self._pa, self._pb, self._c0,
                                              self._c1, self._sig, self._tau, self._nb)))
            self._pieces = tuple(
                ConstPiece(a, b, c0) if k == 0
                else LogPiece(a, b, c0, c1, sig, tau) if k == 1
                else LadderPiece(a, b, c0, int(nb), c1)
                for k, a, b, c0, c1, sig, tau, nb in rows
            )
        return self._pieces

    @property
    def domain(self):
        return (self.a, self.b)

    @property
    def length(self) -> float:
        return self.b - self.a

    def breakpoints(self) -> np.ndarray:
        return np.append(self._pa, self.b)

    def __len__(self):
        return self._pa.size

    def __repr__(self):
        return f"PiecewiseFn({len(self)} pieces on [{self.a}, {self.b}))"


def _kept(f: PiecewiseFn, key, read):
    """f's reading for key: read() on the first request, kept on f after it."""
    if key not in f._memo:
        f._memo[key] = read()
    return f._memo[key]


def evaluate(f: PiecewiseFn, t):
    """Pointwise values; the right domain endpoint is taken from the last piece."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < f.a) or np.any(arr > f.b):
        raise DomainError(f"argument outside the domain [{f.a}, {f.b}]")
    idx = np.clip(np.searchsorted(f._pa, arr, side="right") - 1, 0, len(f) - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = f._c0[idx] + f._c1[idx] * np.log(f._sig[idx] * (arr - f._tau[idx]))
    out = np.where(f._c1[idx] == 0.0, f._c0[idx], logs)
    lad = np.flatnonzero(f._kind[idx] == 2)
    if lad.size:
        li = idx[lad]
        u = (arr[lad] - f._pa[li]) / (f._pb[li] - f._pa[li])
        out[lad] = _ladder_walk(u, f._c0[li], f._nb[li], f._c1[li])[0]
    return float(out[0]) if scalar else out


def _xlnx(w: np.ndarray) -> np.ndarray:
    out = np.zeros_like(w)
    pos = w > 0
    out[pos] = w[pos] * np.log(w[pos])
    return out


def _xln2x(w: np.ndarray) -> np.ndarray:
    out = np.zeros_like(w)
    pos = w > 0
    lw = np.log(w[pos])
    out[pos] = w[pos] * lw * lw
    return out


def _w_bounds(f: PiecewiseFn, lo_t: np.ndarray, hi_t: np.ndarray, idx: np.ndarray):
    """Sorted log-argument bounds for subintervals [lo_t, hi_t] of pieces idx."""
    w0 = f._sig[idx] * (lo_t - f._tau[idx])
    w1 = f._sig[idx] * (hi_t - f._tau[idx])
    return np.minimum(w0, w1), np.maximum(w0, w1)


def _segment_integrals(f: PiecewiseFn, lo_t: np.ndarray, hi_t: np.ndarray, idx: np.ndarray):
    """Exact (integral f, integral f^2) over subintervals of single pieces."""
    length = hi_t - lo_t
    c0, c1 = f._c0[idx], f._c1[idx]
    i1 = c0 * length
    i2 = c0 * c0 * length
    logp = (f._kind[idx] == 1) & (c1 != 0.0)
    if np.any(logp):
        wlo, whi = _w_bounds(f, lo_t[logp], hi_t[logp], idx[logp])
        a0, a1 = c0[logp], c1[logp]
        dl = (whi - wlo)
        dxl = (_xlnx(whi) - whi) - (_xlnx(wlo) - wlo)
        dx2 = (_xln2x(whi) - 2.0 * _xlnx(whi) + 2.0 * whi) - (
            _xln2x(wlo) - 2.0 * _xlnx(wlo) + 2.0 * wlo
        )
        i1[logp] = a0 * dl + a1 * dxl
        i2[logp] = a0 * a0 * dl + 2.0 * a0 * a1 * dxl + a1 * a1 * dx2
    lad = np.flatnonzero(f._kind[idx] == 2)
    if lad.size:
        li = idx[lad]
        pa, ell = f._pa[li], f._pb[li] - f._pa[li]
        beta, n, h = f._c0[li], f._nb[li], f._c1[li]
        _, g1a, g2a = _ladder_walk((lo_t[lad] - pa) / ell, beta, n, h)
        _, g1b, g2b = _ladder_walk((hi_t[lad] - pa) / ell, beta, n, h)
        i1[lad] = ell * (g1b - g1a)
        i2[lad] = ell * (g2b - g2a)
    return i1, i2


def _ramp_integrals(x):
    """(integral_0^x -ln(1 - 2v) dv, integral_0^x ln(1 - 2v)^2 dv) for x in [0, 1/2)."""
    w = 1.0 - 2.0 * x
    return 0.5 * (1.0 - w + _xlnx(w)), 0.5 * (2.0 - 2.0 * w + 2.0 * _xlnx(w) - _xln2x(w))


# relative block length below which a ladder is not resolved any further:
# a double cannot place a point inside such a block, and a partial integral
# over it is charged, and a value in it read, at the block mean
_LADDER_RES = 2.0 ** -52


def _ladder_walk(u, beta, n, h):
    """(g(u), integral_0^u g, integral_0^u g^2) for g = beta + the unit ladder, elementwise.

    Whole cells contribute the moments of beta + Exp(1); the cell holding u
    adds its ramps in closed form and recurses into its block, which sits
    one step h higher, and g(u) is read on the ramp where the walk stops.
    Once the block is shorter than _LADDER_RES of the piece, the remainder
    is charged at the block mean, and g(u) reads that mean.
    """
    u, beta, n, h = (np.array(v, dtype=float) for v in (u, beta, n, h))
    u = np.clip(u, 0.0, 1.0)
    g, s1, s2 = beta.copy(), np.zeros_like(u), np.zeros_like(u)
    whole = u == 1.0
    s1[whole] = beta[whole] + 1.0
    s2[whole] = beta[whole] * (beta[whole] + 2.0) + 2.0
    scale = np.ones_like(u)
    live = np.flatnonzero((u > 0.0) & ~whole)
    while live.size:
        uu, b, nn, hh, sc = u[live], beta[live], n[live], h[live], scale[live]
        k = np.minimum(np.floor(uu * nn), nn - 1.0)
        s = uu * nn - k
        m1, m2 = b + 1.0, b * (b + 2.0) + 2.0
        t1, t2 = (k / nn) * m1, (k / nn) * m2
        ramp = 0.5 * -np.expm1(-hh)
        keep = np.exp(-hh)
        x = np.minimum(s, ramp)
        r1, r2 = _ramp_integrals(x)
        t1 += (b * x + r1) / nn
        t2 += (b * b * x + 2.0 * b * r1 + r2) / nn
        fall = s >= 1.0 - ramp
        g[live] = b - np.log1p(-2.0 * x)
        g[live[fall]] = b[fall] - np.log(2.0 * s[fall] - 1.0)
        if np.any(fall):
            bf, hf, kf = b[fall], hh[fall], keep[fall]
            top = bf + hf
            f1, f2 = _ramp_integrals(ramp[fall])
            g1, g2 = _ramp_integrals(1.0 - s[fall])
            d = s[fall] - (1.0 - ramp[fall])
            t1[fall] += (kf * (top + 1.0) + bf * d + f1 - g1) / nn[fall]
            t2[fall] += (
                kf * (top * (top + 2.0) + 2.0) + bf * bf * d + 2.0 * bf * (f1 - g1) + f2 - g2
            ) / nn[fall]
        s1[live] += sc * t1
        s2[live] += sc * t2
        inner = (s > ramp) & ~fall
        live = live[inner]
        u[live] = (s[inner] - ramp[inner]) / keep[inner]
        beta[live] += h[live]
        scale[live] *= keep[inner] / nn[inner]
        deep = scale[live] < _LADDER_RES
        if np.any(deep):
            dl = live[deep]
            m = beta[dl]
            g[dl] = m + 1.0
            s1[dl] += scale[dl] * u[dl] * (m + 1.0)
            s2[dl] += scale[dl] * u[dl] * (m * (m + 2.0) + 2.0)
            live = live[~deep]
    return g, s1, s2


def mean(f: PiecewiseFn) -> float:
    i1, _ = _segment_integrals(f, f._pa, f._pb, np.arange(len(f)))
    return float(np.sum(i1) / f.length)


def second_moment(f: PiecewiseFn) -> float:
    _, i2 = _segment_integrals(f, f._pa, f._pb, np.arange(len(f)))
    return float(np.sum(i2) / f.length)


def _abs_affine_exp(q: float, z1, dz, B, C) -> np.ndarray:
    """integral_{z1}^{z1 + dz} exp(-z) |C - B z|^q dz over 1-D arrays, B != 0; dz may be inf."""
    zs = C / B
    absB = np.abs(B)
    gq = gamma_fn(q + 1.0)
    # decaying side, z >= zs: |C - Bz| = |B| (z - zs)
    y1 = np.maximum(z1 - zs, 0.0)
    y2 = np.maximum(z1 + dz - zs, 0.0)
    p2 = np.where(np.isinf(y2), 1.0, gammainc(q + 1.0, np.where(np.isinf(y2), 0.0, y2)))
    q2 = np.where(np.isinf(y2), 0.0, gammaincc(q + 1.0, np.where(np.isinf(y2), 0.0, y2)))
    tail_small = y1 < q + 1.0
    delta = np.where(tail_small, p2 - gammainc(q + 1.0, y1), gammaincc(q + 1.0, y1) - q2)
    out = absB ** q * np.exp(-zs) * gq * np.maximum(delta, 0.0)
    # growing side, z <= zs: |C - Bz| = |B| (zs - z), and y = zs - z turns
    # it into a rising integral from zs - z1 - span over the span
    span = np.minimum(dz, zs - z1)
    ii = np.flatnonzero(span > 0.0)
    if ii.size:
        rise = rise_integral(q, zs[ii] - z1[ii] - span[ii], span[ii])
        out[ii] += absB[ii] ** q * np.exp(-z1[ii]) * rise
    return out


def moments(f: PiecewiseFn, q: float) -> float:
    """Normalized absolute moment |I|^-1 integral_I |f|^q, kept on f per exponent."""
    if not q >= 1:
        raise DomainError(f"moment exponent must be >= 1, got {q}")
    return _kept(f, ("moments", q), lambda: _moment(f, q))


def _moment(f: PiecewiseFn, q: float) -> float:
    kind, length, const = f._kind, f._pb - f._pa, f._c1 == 0.0
    total = float(np.sum(np.abs(f._c0[const]) ** q * length[const]))
    logs = np.flatnonzero((kind == 1) & ~const)
    if logs.size:
        wlo, whi = _w_bounds(f, f._pa[logs], f._pb[logs], logs)
        # one logarithm for the width ln(whi / wlo) keeps what -ln(wlo) - z1 would cancel
        with np.errstate(divide="ignore", invalid="ignore"):
            z1 = -np.log(whi)
            dz = np.where(wlo > 0, np.log1p((whi - wlo) / np.maximum(wlo, 1e-300)), np.inf)
        total += float(np.sum(_abs_affine_exp(q, z1, dz, f._c1[logs], f._c0[logs])))
    lad = np.flatnonzero(kind == 2)
    if lad.size:
        # law beta + Exp(1): integral_0^inf e^-z |beta + z|^q dz per unit length
        zero = np.zeros(lad.size)
        tails = _abs_affine_exp(q, zero, zero + np.inf, zero - 1.0, f._c0[lad])
        total += float(np.sum(length[lad] * tails))
    return total / f.length


def distribution(f: PiecewiseFn, c: float) -> float:
    """Measure of the superlevel set {t in I : f(t) > c}, exactly per piece."""
    c = float(c)
    length = f._pb - f._pa
    const = f._c1 == 0.0
    total = float(np.sum(length[const] * (f._c0[const] > c)))
    logs = np.flatnonzero((f._kind == 1) & ~const)
    if logs.size:
        c0, c1, sig, tau = f._c0[logs], f._c1[logs], f._sig[logs], f._tau[logs]
        pa, pb = f._pa[logs], f._pb[logs]
        with np.errstate(over="ignore"):
            t_c = tau + sig * np.exp((c - c0) / c1)
        t_c = np.clip(t_c, pa, pb)
        increasing = c1 * sig > 0
        total += float(np.sum(np.where(increasing, pb - t_c, t_c - pa)))
    lad = f._kind == 2
    if np.any(lad):
        total += float(np.sum(length[lad] * np.exp(np.minimum(f._c0[lad] - c, 0.0))))
    return total


def stray_outside(f: PiecewiseFn, lo: float, hi: float) -> float:
    """Largest |f| on the pieces reaching below lo or above hi, 0 if none does.

    A piece with c1 != 0, log or ladder, counts as unbounded.
    """
    out = (f._pa < lo) | (f._pb > hi)
    size = np.where(f._c1 == 0.0, np.abs(f._c0), np.inf)
    return float(np.max(size, where=out, initial=0.0))


def _window_var(tj, ti, s1j, s1i, s2j, s2i, w, mu, v):
    """Window variances into v: w = tj - ti, mu = (s1j - s1i)/w, v = (s2j - s2i)/w - mu^2.

    The one order of operations behind every variance the pair scan reads,
    so a pair gets the same bits whichever step of the scan reads it.
    """
    np.subtract(tj, ti, out=w)
    np.subtract(s1j, s1i, out=mu)
    np.divide(mu, w, out=mu)
    np.subtract(s2j, s2i, out=v)
    np.divide(v, w, out=v)
    np.multiply(mu, mu, out=mu)
    return np.subtract(v, mu, out=v)


def _pair_scan(t, s1, s2, wmin):
    """Largest window variance, at least 0, over node pairs t_i < t_j.

    t holds n sorted nodes and s1, s2 the prefix integrals at them: 1-D for
    one function, which gives a float, or (n, F) for F functions, one per
    column, which gives one reading per column.  Windows shorter than wmin
    are skipped.  Every variance the scan reads, in the band, the block
    seeds and the rows alike, comes from _window_var, and a pair is left
    unread only where a bound proves that it cannot beat the maximum, so
    on finite prefix integrals, away from underflow, the reading is the
    maximum over all pairs, bit for bit.

    The nodes are cut into about _BLOCKS blocks of b = max(8,
    ceil((n-1)/_BLOCKS)) nodes, neighbours sharing an end node, and the
    scan takes three steps:

    * band: the pairs at most 2b nodes apart, one diagonal at a time, which
      hold every pair within a block or between neighbouring blocks;
    * block bound: for a row block I and a block J >= I + 2, the window
      from the first node of I to the last of J bounds the variance of
      every window from I to J (_row_ends), and its own variance seeds the
      maximum;
    * rows: row i reads j from i + 2b + 1 up to the last block J whose
      bound still reaches the running maximum of some column, taken once
      per b row blocks.  A row whose first window is shorter than wmin
      starts no earlier than the suffix of windows long enough.

    The gain rests on the maximising windows being short next to the
    domain.  On the oracle's 64-cell draws over the 2^9 grid the rows read
    about 13% of the pairs at 48 columns and 18% at 256, and on phi0 at
    levels 12 about 13%; the ladders are near-extremal everywhere, so
    their rows read about 93%, and there the bound costs at most 1.5% of
    a scan.  The band reads about 6% of the pairs.
    """
    n = t.size
    cols = s1.shape[1:]
    best = np.zeros(cols)
    b = max(8, -(-(n - 1) // _BLOCKS))
    tw = t.reshape((n,) + (1,) * len(cols))
    wbuf = np.empty((n - 1,) + (1,) * len(cols))
    mbuf = np.empty((n - 1,) + cols)
    vbuf = np.empty((n - 1,) + cols)
    short = (np.diff(t) < wmin).tolist()
    any_short = any(short)
    for d in range(1, min(2 * b, n - 1) + 1):
        m = n - d
        v = _window_var(tw[d:], tw[:m], s1[d:], s1[:m], s2[d:], s2[:m],
                        wbuf[:m], mbuf[:m], vbuf[:m])
        if any_short:
            np.fmax(best, v.max(axis=0, where=wbuf[:m] >= wmin, initial=-np.inf), out=best)
        else:
            np.fmax(best, np.maximum.reduce(v), out=best)
    # _row_ends sees every input as (n, F) and works in the row buffers
    views = (s1.reshape(n, -1), s2.reshape(n, -1), best.reshape(-1),
             wbuf.reshape(n - 1, 1), mbuf.reshape(n - 1, -1), vbuf.reshape(n - 1, -1))
    # the largest variance of each row of a row block, folded into best after it
    tops = np.empty((b,) + cols)
    for lo_i, stop in _row_ends(t, wmin, b, *views):
        k = 0
        for i in range(lo_i, min(lo_i + b, n - 1)):
            lo = i + 2 * b + 1
            if short[i]:
                # w rises with j, so the windows long enough are a suffix of the row
                lo = max(lo, i + 1 + int(np.searchsorted(t[i + 1 :] - t[i], wmin)))
            if lo < stop:
                m = stop - lo
                v = _window_var(tw[lo:stop], t[i], s1[lo:stop], s1[i], s2[lo:stop], s2[i],
                                wbuf[:m], mbuf[:m], vbuf[:m])
                tops[k] = np.maximum.reduce(v)
                k += 1
        if k:
            np.fmax(best, np.fmax.reduce(tops[:k]), out=best)
    return best if cols else float(best)


def _row_ends(t, wmin, b, s1, s2, best, *bufs):
    """(first node, stop) per row block: its rows read up to, not including, node stop.

    The bounds are worked out for b row blocks at a time, in the row
    buffers, which they fit since b (K - 2) < n - 1 for K blocks, so the
    scan's memory grows mainly by the K*F values of s1 and s2 at the last
    nodes of the blocks, F the column count.  A group's stops are decided
    against the maximum after every earlier row and the seeds of the
    group.

    The bound.  Take a row block I = [a, c] and a block J = [e, g] with
    J >= I + 2, and read s1, s2 and t as exact reals.  Write Q(x, y; m) =
    (s2_y - s2_x) - 2m (s1_y - s1_x) + m^2 (t_y - t_x); its least value over
    m is (t_y - t_x) V(x, y), V the window variance, and Q is additive over
    adjacent windows.  For i in I and j in J, with m the mean of [a, g],

        (t_j - t_i) V(i, j) <= Q(i, j; m) = Q(a, g; m) - Q(a, i; m) - Q(j, g; m)
                            <= (t_g - t_a) V(a, g) + P_I + R_J,

    where P_I is the largest -min_m Q(a, i; m) = D1^2/L - D2 over the windows
    [a, i] inside I, D1, D2 and L the differences of s1, s2 and t, and R_J
    that over the windows [j, g] inside J: the amount by which the prefix
    integrals break Cauchy-Schwarz.  For the integrals of a function these
    are 0; on the computed prefix sums they measure, without any model of
    how the sums were formed, all the error that accumulated in them.
    With t_j - t_i >= L_in = t_e - t_c and L_out = t_g - t_a this gives

        V(i, j) <= (L_out max(V(a, g), 0) + P_I + R_J) / L_in.

    Rounding.  Each of the six operations of _window_var rounds once, so
    away from underflow a computed variance is within 9u (|D2|/w + (D1/w)^2)
    of V, u = 2^-53.  For every pair from I to J, and for [a, g] itself,
    that is below r = 5 eps (R2/L_in + (R1/L_in)^2), eps = 2u and R1, R2 the
    largest ranges of s1, s2 over the nodes in any column.  So every
    variance computed from I to J is at most

        bound = (L_out max(V_out + r, 0) + P_I + R_J) / L_in + r,

    V_out the computed variance of [a, g].  P_I and R_J, taken as their
    largest value over the columns, have (1 + 4 eps) on D1^2/L for its four
    roundings, then (1 + 2 eps) on their largest value and 4 eps R2 for the
    roundings of D1^2/L - D2; the bound has (1 + 8 eps) for the roundings
    of its nonnegative terms, about ten.  Row block I ends at the last J
    where some column's bound is not below its maximum; a NaN bound counts
    as reaching.
    """
    n, cols = s1.shape
    nb = -(-(n - 1) // b)
    if nb <= 2:
        return
    eps = np.finfo(float).eps
    first = np.arange(nb) * b
    last = np.minimum(first + b, n - 1)
    r1, r2 = np.ptp(s1, axis=0).max(), np.ptp(s2, axis=0).max()
    w, d, p = bufs

    def spans(s, anchor, left, out):
        """s over the windows [anchor, k + 1] (left) or [k, anchor], k = 0 .. n-2, into out."""
        np.take(s, anchor, axis=0, out=out, mode="clip")
        return np.subtract(s[1:], out, out=out) if left else np.subtract(out, s[:-1], out=out)

    # P_I over the windows [a, k + 1] ending in block I, R_J over [k, g] starting in J
    slack = []
    for anchor, left in ((np.repeat(first, b)[: n - 1], True),
                         (np.repeat(last, b)[: n - 1], False)):
        spans(t[:, None], anchor, left, w)
        np.divide(spans(s1, anchor, left, d), w, out=p)
        np.multiply(p, d, out=p)
        np.multiply(p, 1.0 + 4.0 * eps, out=p)
        np.subtract(p, spans(s2, anchor, left, d), out=p)
        top = np.maximum.reduceat(np.maximum.reduce(p, axis=1), first)
        slack.append(np.maximum(top, 0.0) * (1.0 + 2.0 * eps) + 4.0 * eps * r2)
    ta, tg = t[first], t[last]
    # the first nodes of the blocks are every b-th node
    s1a, s2a, s1g, s2g = s1[: first[-1] + 1 : b], s2[: first[-1] + 1 : b], s1[last], s2[last]
    # b row blocks at a time, which fit in the row buffers
    for i0 in range(0, nb - 2, b):
        rows, js = slice(i0, min(i0 + b, nb - 2)), slice(i0 + 2, nb)
        shape = (rows.stop - rows.start, nb - js.start, cols)
        ww, mu, v = (x.reshape(-1)[: math.prod(s)].reshape(s)
                     for x, s in zip(bufs, (shape[:2] + (1,), shape, shape)))
        # bound = scale max(V_out + r, 0) + lift for the pair of blocks (I, J)
        l_out = tg[js] - ta[rows, None]
        live = np.arange(js.start, nb) >= np.arange(rows.start, rows.stop)[:, None] + 2
        inv = (1.0 + 8.0 * eps) / np.where(live, ta[js] - tg[rows, None], 1.0)
        r = 5.0 * eps * (r2 * inv + (r1 * inv) ** 2)
        scale = l_out * inv
        lift = (slack[0][rows, None] + slack[1][js]) * inv + r
        # a block pair (I, J) with J < I + 2 reads junk, and one whose outer
        # window is shorter than wmin holds no window that counts: both are
        # set to -inf, which seeds nothing and leaves the bound at lift; the
        # rows of I start past the end of such a J or read no pair of it
        with np.errstate(all="ignore"):
            _window_var(tg[None, js, None], ta[rows, None, None], s1g[None, js], s1a[rows, None],
                        s2g[None, js], s2a[rows, None], ww, mu, v)
            v[~(live & (l_out >= wmin))] = -np.inf
            np.fmax(best, np.maximum.reduce(v.reshape(-1, cols)), out=best)
            v += r[..., None]
            np.maximum(v, 0.0, out=v)
            v *= scale[..., None]
            v += lift[..., None]
        # per row block, the last block J whose bound reaches the maximum of some column
        reach = ~(v < best).all(axis=2)
        end = last[js][shape[1] - 1 - np.argmax(reach[:, ::-1], axis=1)] + 1
        stops = np.where(reach.any(axis=1), end, 0)
        yield from zip(range(rows.start * b, rows.stop * b, b), stops.tolist())


def prefix_integrals(f: PiecewiseFn, t):
    """Exact (integral_a^t f, integral_a^t f^2) at sorted points t of the domain."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.ndim != 1 or t.size == 0 or np.any(np.diff(t) < 0.0):
        raise DomainError("prefix points must form a sorted one-dimensional array")
    if t[0] < f.a or t[-1] > f.b:
        raise DomainError(f"prefix points outside the domain [{f.a}, {f.b}]")
    nodes = np.unique(np.concatenate([t, f.breakpoints()]))
    gl, gh = nodes[:-1], nodes[1:]
    idx = np.clip(np.searchsorted(f._pa, gl, side="right") - 1, 0, len(f) - 1)
    i1, i2 = _segment_integrals(f, gl, gh, idx)
    s1 = np.concatenate([[0.0], np.cumsum(i1)])
    s2 = np.concatenate([[0.0], np.cumsum(i2)])
    at = np.searchsorted(nodes, t)
    return s1[at], s2[at]


def bmo_norm(f: PiecewiseFn, levels: int) -> float:
    """Oscillation seminorm over all node-aligned windows of the refined grid.

    Nodes are the 2^levels dyadic splits of the domain plus every piece
    breakpoint, so prefix integrals at nodes are exact and the result is a
    lower bound of the true seminorm, nondecreasing in levels.  A ladder
    piece adds only its two ends, so windows inside it are seen through the
    dyadic nodes alone; lay out enough ladder levels as log pieces.  The
    scan is the pair-scan kernel on one function's 1-D prefix integrals.
    The reading is kept on f per levels, so later calls return it unscanned.
    """
    if not isinstance(levels, int) or not 1 <= levels <= 16:
        raise DomainError(f"levels must be an integer in [1, 16], got {levels}")
    return _kept(f, ("bmo", levels), lambda: _scan(f, levels))


def _scan(f: PiecewiseFn, levels: int) -> float:
    nodes = np.unique(np.concatenate([np.linspace(f.a, f.b, 2 ** levels + 1), f.breakpoints()]))
    s1, s2 = prefix_integrals(f, nodes)
    # a NaN would drop windows from the scan and from its block bounds unseen
    if not (np.isfinite(s1).all() and np.isfinite(s2).all()):
        raise DomainError("the prefix integrals of f are not finite at the scan nodes")
    return math.sqrt(max(_pair_scan(nodes, s1, s2, _MIN_WINDOW * f.length), 0.0))


def transfer(f: PiecewiseFn, J) -> PiecewiseFn:
    """Affine reparametrization onto the interval J; distribution is preserved.

    Piece ends and log centres move by t -> j1 + (t - a) s with s = |J| / |I|,
    the two outer ends pinned to J; a log piece absorbs the scale as
    c0 - c1 ln s.
    """
    j1, j2 = (float(v) for v in J)
    if not j2 > j1:
        raise DomainError(f"target interval [{j1}, {j2}] is degenerate")
    s = (j2 - j1) / f.length
    pa = j1 + (f._pa - f.a) * s
    pb = j1 + (f._pb - f.a) * s
    pa[0], pb[-1] = j1, j2
    log = f._kind == 1
    c0 = np.where(log, f._c0 - f._c1 * math.log(s), f._c0)
    tau = np.where(log, j1 + (f._tau - f.a) * s, f._tau)
    return PiecewiseFn.from_arrays(f._kind, pa, pb, c0, f._c1, f._sig, tau, f._nb)


def optimizer_uplus(eps: float, u: float) -> PiecewiseFn:
    """Logarithmic extremal u - eps*ln t on (0, 1]; mean u + eps."""
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if not u >= 0:
        raise DomainError(f"u must be nonnegative, got {u}")
    return PiecewiseFn([LogPiece(0.0, 1.0, float(u), -float(eps), 1.0, 0.0)])


def optimizer_uminus(eps: float, u: float) -> PiecewiseFn:
    """Two flat steps +-eps followed by a logarithmic ramp; mean u - eps."""
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if not u >= eps:
        raise DomainError(f"u = {u} must be >= eps = {eps}")
    try:
        top = math.exp((u - eps) / eps)
    except OverflowError:
        top = math.inf  # an end PiecewiseFn rejects
    pieces = [ConstPiece(0.0, 0.5, -float(eps)), ConstPiece(0.5, 1.0, float(eps))]
    if top > 1.0:
        pieces.append(LogPiece(1.0, top, float(eps), float(eps), 1.0, 0.0))
    return PiecewiseFn(pieces)


def optimizer_phi0() -> PiecewiseFn:
    """Odd three-piece extremal on (-2, 2): log ramps around a flat center."""
    return PiecewiseFn(
        [
            LogPiece(-2.0, -1.0, 0.0, 1.0, 1.0, -2.0),
            ConstPiece(-1.0, 1.0, 0.0),
            LogPiece(1.0, 2.0, 0.0, -1.0, -1.0, 2.0),
        ]
    )


def build_ladder(n: int, h: float, depth: int) -> PiecewiseFn:
    """Homogenized exponential ladder on [1/4, 3/4), zero on the rest of (-4, 5).

    The support holds the unit ladder of LadderPiece: n equal cells, each a
    rising log ramp, a centred block holding h plus a copy of the whole
    ladder, and a falling log ramp, repeated without end.  The first depth
    levels are laid out as log pieces and every block below them is one
    LadderPiece, which carries the rest of the infinite ladder exactly, so
    the function measured is the ladder itself, not a truncation of it.

    Law.  Exactly Exp(1) on measure 1/2 and zero elsewhere, the law of
    |phi0|: by the memorylessness of Exp(1) each cell has the law of the
    whole support, and each block that of its cell raised by h.  Every
    absolute moment integral is Gamma(q+1)/2 by construction, and n and h
    do not depend on the exponents being tested.

    Error sources.  The ladder has no point logarithmic singularity (its
    infinite values sit on the null set of nested cell centers), yet its
    oscillation seminorm exceeds 1 through two errors, both vanishing as
    h -> 0 and n -> infinity:

    * the step h: a window over a block and part of its ramps mixes two
      laws whose means differ by about 1 + h/2;
    * the branching n: means drift across levels at rate h / (h + ln n),
      a weak form of the excess of the two-sided ln|t| cusp.

    Measured seminorm: bmo_norm at levels 6 and depth D, bmo_norm at
    levels 10 and depth D + 1, and a fine scan at depth D over a 2^12 grid
    plus three nodes inside every piece.

        n   h     D   levels 6   D + 1, levels 10   fine
        4   0.05  5   1.00133    1.00158            1.00163
        4   0.1   5   1.00441    1.00556            1.00567
        4   0.2   5   1.01304    1.01765            1.01757
        4   0.3   5   1.02559    1.03234            1.03233
        4   0.5   5   1.04761    1.06273            1.06273
        3   0.5   6   1.06143    1.07254            1.07269
        8   0.3   3   1.01529    1.02275            1.02275

    For n = 4, h = 0.1 the levels-6 reading is 1.00206, 1.00285, 1.00387,
    1.00429, 1.00441 and 1.00444 at depths 1 to 6.  The levels-6 grid has
    three dyadic nodes inside the support, and the worst windows start or
    end inside a ramp, where only a finer grid places nodes, so it
    under-reads h = 0.3 by 6.8e-3 and h = 0.1 by 1.2e-3.

    Layout.  The levels are laid out one at a time as arrays: the cell
    edges of every block of a level come from one linspace over the
    blocks, the same values a cell-by-cell recursion gets, each ramp's
    constant takes math.log of its half-cell, and the pieces are sorted by
    their left ends at the end, so the result is bit for bit the
    recursion's and no piece object is made.
    """
    if not (isinstance(depth, int) and depth >= 0):
        raise DomainError(f"depth must be a nonnegative integer, got {depth}")
    # np.linspace takes an integer cell count; with at least one cell every
    # level keeps a block, and PiecewiseFn checks n and h on the ladder pieces
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"ladder branching must be an integer >= 2, got {n}")
    # the blocks of a level, their cells, and for each cell a rising and a
    # falling ramp around the next level's block
    a, b, beta = np.array([0.25]), np.array([0.75]), 0.0
    fields = []  # (kind, pa, pb, c0, c1, sig, tau, nb) per group of pieces
    for _ in range(depth):
        edges = np.linspace(a, b, n + 1, axis=1)
        lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        half = 0.5 * (hi - lo)
        mid = lo + half
        rho = -half * math.expm1(-h)
        # math.log, not np.log, which differs from it in the last bit on some doubles
        c0 = beta + np.array(list(map(math.log, half.tolist())))
        one, zero = np.ones(lo.size), np.zeros(lo.size)
        fields.append((one, lo, lo + rho, c0, -one, -one, mid, zero))  # rising ramps
        fields.append((one, hi - rho, hi, c0, -one, one, mid, zero))  # falling ramps
        a, b, beta = lo + rho, hi - rho, beta + h
    one, zero = np.ones(a.size), np.zeros(a.size)
    fields.append((2 * one, a, b, beta * one, h * one, one, zero, n * one))  # ladder blocks
    # zero on [-4, 1/4) and on [3/4, 5)
    fields.append(([0, 0], [-4.0, 0.75], [0.25, 5.0], [0, 0], [0, 0], [1, 1], [0, 0], [0, 0]))
    cols = [np.concatenate(col) for col in zip(*fields)]
    order = np.argsort(cols[1], kind="stable")
    return PiecewiseFn.from_arrays(*(col[order] for col in cols))


def _step_fn(vals) -> PiecewiseFn:
    """Step function on [0, 1) with one equal cell per value."""
    edges = np.linspace(0.0, 1.0, len(vals) + 1)
    return PiecewiseFn([ConstPiece(edges[i], edges[i + 1], v) for i, v in enumerate(vals)])


def random_step_values(seeds, cells: int, eps: float) -> np.ndarray:
    """Cell values of random_step_fn for each seed, as one (len(seeds), cells) array.

    The draws share one node grid, the 2^_GEN_LEVELS dyadic splits plus the
    cell edges, so _SCAN_CHUNK of them stack as the columns of one scan.
    Their prefix integrals are running sums of value times width over the
    grid segments, in the order prefix_integrals adds a step function's.
    """
    if not (isinstance(cells, int) and cells >= 2):
        raise DomainError(f"cells must be an integer >= 2, got {cells}")
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    edges = np.linspace(0.0, 1.0, cells + 1)
    nodes = np.unique(np.concatenate([np.linspace(0.0, 1.0, 2 ** _GEN_LEVELS + 1), edges]))
    cell = np.clip(np.searchsorted(edges[:-1], nodes[:-1], side="right") - 1, 0, cells - 1)
    width = np.diff(nodes)[:, None]
    out = np.empty((len(seeds), cells))
    for vals, seed in zip(out, seeds):
        rng = np.random.Generator(np.random.Philox(seed))
        vals[:] = rng.normal(0.0, 1.0, cells)
        while not np.ptp(vals) > 0:
            vals[:] = rng.normal(0.0, 1.0, cells)
    for c in range(0, len(out), _SCAN_CHUNK):
        block = out[c : c + _SCAN_CHUNK]
        v = block.T[cell]
        s1, s2 = np.zeros((2, nodes.size, len(block)))
        np.cumsum(v * width, axis=0, out=s1[1:])
        np.cumsum(v * v * width, axis=0, out=s2[1:])
        best = _pair_scan(nodes, s1, s2, _MIN_WINDOW)
        block *= (eps / np.sqrt(np.maximum(best, 0.0)))[:, None]
    return out


def random_step_fn(seed: int, cells: int, eps: float) -> PiecewiseFn:
    """Random step function on [0, 1) rescaled to grid seminorm exactly eps.

    Cell values come from Philox(seed); the seminorm is the pair-scan
    kernel on the node grid shared by every draw with this cell count.
    """
    return _step_fn(random_step_values([seed], cells, eps)[0])


_CSV_HEADER = "kind,a,b,c0,c1,sigma,tau"

# the name of piece kind i in a CSV row; a ladder piece (kind 2) has no row
_CSV_KINDS = ("const", "log")


def to_csv(f: PiecewiseFn) -> str:
    """Serialize as kind,a,b,c0,c1,sigma,tau rows; constants carry v in c0.

    Ladder pieces have no row in this format and raise DomainError.
    """
    if np.any(f._kind == 2):
        raise DomainError(f"ladder pieces have no {_CSV_HEADER} row")
    rows = zip(*(v.tolist() for v in (f._kind, f._pa, f._pb, f._c0, f._c1, f._sig, f._tau)))
    lines = [_CSV_KINDS[k] + "," + ",".join(format(v, ".17g") for v in row) for k, *row in rows]
    return "\n".join([_CSV_HEADER, *lines]) + "\n"


def from_csv(text: str) -> PiecewiseFn:
    """The function of to_csv's rows; a constant row's c1, sigma and tau are ignored."""
    rows = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not rows or rows[0] != _CSV_HEADER:
        raise DomainError(f"missing piece header {_CSV_HEADER}")
    fields = []
    for ln in rows[1:]:
        kind, *nums = ln.split(",")
        if len(nums) != 6:
            raise DomainError(f"malformed piece row: {ln!r}")
        if kind not in _CSV_KINDS:
            raise DomainError(f"unknown piece kind {kind!r}")
        try:
            fields.append([_CSV_KINDS.index(kind), *map(float, nums), 0.0])
        except ValueError:
            raise DomainError(f"non-numeric field in piece row: {ln!r}") from None
    return PiecewiseFn.from_arrays(*np.array(fields, dtype=float).reshape(-1, 8).T)
