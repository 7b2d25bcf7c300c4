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
seminorm from below.  The scan reads the pairs in blocks of 16 nodes.  It
skips the block pairs that an exact separable test, with allowances for
rounding, proves cannot beat the maximum, and the windows inside two
neighbouring blocks where a bound from the segments' means and variances
does, so its reading is the maximum over every pair, bit for bit.  It
reads about 2% of the pairs on random step functions and 1% on phi0, and
a tenth on the near-extremal ladders, where the maximising windows are
everywhere.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from .errors import DomainError
from .specfn import gamma_fn, rise_integral

# candidate-set refinement used when a generated step function is rescaled
# to unit grid seminorm; one level beyond 8 resolves window endpoints well
# inside the cells of a 64-cell draw
_GEN_LEVELS = 9

# nodes per block of the pair scan.  Against 16, in medians of 21
# alternating in-process calls on 2 vCPUs, blocks of 20 took 1.00x the time
# of the line workload's nine scans, 1.04x on 48 columns of draws and 1.11x
# on 256; blocks of 24 took 0.97x, 1.14x and 1.24x.  Calls in one process
# share one warm heap and miss the page faults of the scan's fresh arrays,
# so a re-tune is measured in fresh processes, with tools/bench_pair.py
_BLOCK = 16

# values per batch of the pair scan: variances and bounds per group of block
# tests, table entries per chunk of exact tests, windows per gather of span
# units (b rows by 2b nodes, 64 units) or of block pairs (b by b + 1), and
# the swept band's (n - 1) F values, as random_step_values stacks
# _TILE // (n - 1) draws per scan, 64 on the 513-node grid.  At 2^14 the
# scans of build_ladder(4, 0.1, 5) at levels 6 and of the 16,041-node
# ladder took 1.06x and 1.12x the time; groups of _TILE pairs, not _TILE / 2, ran as fast
# and raised that scan's traced peak from 2.9 to 3.7 MB.  These timings are
# in-process calls too, with _BLOCK's caveat
_TILE = 2 ** 15

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

    Readings that depend only on the function, such as bmo_norm per levels,
    moments per exponent and the distinct rows moments integrates, are kept
    in _memo, keyed by what was read, and live as long as the function does.
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


def _count(name: str, value, least: int, most: float = math.inf) -> int:
    """value as an int, by operator.index, in [least, most]: numpy integers pass, floats do not."""
    try:
        if least <= (n := operator.index(value)) <= most:
            return n
    except TypeError:
        pass
    raise DomainError(f"{name} must be an integer in [{least}, {most}], got {value!r}")


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
    if not ((arr >= f.a) & (arr <= f.b)).all():
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


def _abs_affine_exp(q: float, z1, dz, B, C, shift: int = 0) -> np.ndarray:
    """2^-shift integral_{z1}^{z1 + dz} exp(-z) |C - B z|^q dz over 1-D arrays, B != 0; dz may be inf."""
    zs = C / B
    absB = np.abs(B)
    gq = math.ldexp(gamma_fn(q + 1.0), -shift)
    # decaying side, z >= zs: |C - Bz| = |B| (z - zs)
    y1 = np.maximum(z1 - zs, 0.0)
    y2 = np.maximum(z1 + dz - zs, 0.0)
    # at y2 = inf these read exactly 1 and 0
    p2, q2 = gammainc(q + 1.0, y2), gammaincc(q + 1.0, y2)
    tail_small = y1 < q + 1.0
    delta = np.where(tail_small, p2 - gammainc(q + 1.0, y1), gammaincc(q + 1.0, y1) - q2)
    out = absB ** q * np.exp(-zs) * gq * np.maximum(delta, 0.0)
    # growing side, z <= zs: |C - Bz| = |B| (zs - z), and y = zs - z turns
    # it into a rising integral from zs - z1 - span over the span
    span = np.minimum(dz, zs - z1)
    ii = np.flatnonzero(span > 0.0)
    if ii.size:
        rise = rise_integral(q, zs[ii] - z1[ii] - span[ii], span[ii])
        out[ii] += absB[ii] ** q * np.exp(-z1[ii]) * np.ldexp(rise, -shift)
    return out


def moments(f: PiecewiseFn, q: float) -> float:
    """Normalized absolute moment |I|^-1 integral_I |f|^q, kept on f per exponent.

    q must be >= 1 with Gamma(q + 1) a finite double, about q <= 170.6.
    """
    if not 1 <= q < math.inf:
        raise DomainError(f"moment exponent must be finite and >= 1, got {q}")
    gamma_fn(q + 1.0)  # DomainError where Gamma(q + 1) is not a finite double

    def read():
        with np.errstate(over="ignore"):
            m = _moment(f, q)
        # Gamma(q + 1) near the double limit can overflow a piece or the sum
        # of a finite moment, which is redone at 2^-64 scale, exact away
        # from underflow
        return m if math.isfinite(m) else float(np.ldexp(_moment(f, q, 64), 64))

    return _kept(f, ("moments", q), read)


def _distinct(rows: np.ndarray):
    """The distinct rows of a 2-D float array, told apart by their bytes, and the index back to them."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, back = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], back


def _moment_rows(f: PiecewiseFn):
    """The distinct log rows (z1, dz, c1, c0) and ladder betas of f, each with the index of every piece's row."""
    logs = np.flatnonzero((f._kind == 1) & (f._c1 != 0.0))
    wlo, whi = _w_bounds(f, f._pa[logs], f._pb[logs], logs)
    # one logarithm for the width ln(whi / wlo) keeps what -ln(wlo) - z1 would cancel
    with np.errstate(divide="ignore", invalid="ignore"):
        z1 = -np.log(whi)
        dz = np.where(wlo > 0, np.log1p((whi - wlo) / np.maximum(wlo, 1e-300)), np.inf)
    return (_distinct(np.column_stack((z1, dz, f._c1[logs], f._c0[logs]))),
            _distinct(f._c0[f._kind == 2, None]))


def _moment(f: PiecewiseFn, q: float, shift: int = 0) -> float:
    """2^-shift moments(f, q), integrating each distinct log row and ladder beta once.

    _abs_affine_exp is elementwise, so the values spread back to the pieces
    and summed in piece order read the bits of an integral per piece.
    """
    length, const = f._pb - f._pa, f._c1 == 0.0
    total = float(np.sum(np.ldexp(np.abs(f._c0[const]) ** q, -shift) * length[const]))
    (logs, log_of), (betas, beta_of) = _kept(f, "moment_rows", lambda: _moment_rows(f))
    if logs.size:
        total += float(np.sum(_abs_affine_exp(q, *logs.T, shift)[log_of]))
    if betas.size:
        # law beta + Exp(1): integral_0^inf e^-z |beta + z|^q dz per unit length
        zero = np.zeros(betas.shape[0])
        tails = _abs_affine_exp(q, zero, zero + np.inf, zero - 1.0, betas[:, 0], shift)
        total += float(np.sum(length[f._kind == 2] * tails[beta_of]))
    return total / f.length


def distribution(f: PiecewiseFn, c: float) -> float:
    """Measure of the superlevel set {t in I : f(t) > c}, exactly per piece; c = nan is refused."""
    c = float(c)
    if math.isnan(c):
        raise DomainError("distribution needs a level c that is not nan")
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


def _window_var(tj, ti, s1j, s1i, s2j, s2i):
    """Widths and variances (w, v): w = tj - ti, mu = (s1j - s1i)/w, v = (s2j - s2i)/w - mu^2.

    The one order of operations behind every variance the pair scan reads,
    so a pair gets the same bits whichever step of the scan reads it.
    """
    w = tj - ti
    mu = s1j - s1i
    mu /= w
    v = s2j - s2i
    v /= w
    mu *= mu
    v -= mu
    return w, v


def _pair_scan(t, s1, s2):
    """Largest window variance, at least 0, per column, over node pairs t_i < t_j.

    t holds n sorted nodes and s1, s2, (n, F), the prefix integrals of F
    functions at them, one per column; one function is an (n, 1) column.
    Windows shorter than wmin, _MIN_WINDOW of the nodes' span, are skipped.
    Every variance the scan reads, in the spans, the block seeds and the
    block reads alike, comes from _window_var, and a pair is left unread
    only where a bound or a test proves that it cannot beat the maximum, so
    on finite prefix integrals, away from underflow and overflow, each
    reading is the maximum over all pairs, bit for bit.

    The nodes are cut into blocks of b = _BLOCK nodes, neighbours sharing
    an end node, the last block maybe shorter.  A pair from block I to a
    block J >= I + 2 is _block_pairs' to test and read.  Every other pair
    from a row of I lies in the span of I, nodes Ib to (I + 2)b: the
    segments of blocks I and I + 1, or of the last block alone.  The scan
    takes two steps:

    * spans: _span_bounds bounds every variance inside each span, per
      column.  Each column's span of largest bound is read first and
      raises the maximum, and then every (span, column) unit whose bound
      is not below the maximum passes.  If fewer than half the units pass,
      they are read by gather, rows Ib to Ib + b - 1 against nodes Ib + 1
      to Ib + 2b, the windows that end at or before their start masked.
      Otherwise the band, the pairs at most 2b nodes apart, which holds
      every span's pairs, is swept one diagonal at a time, since a swept
      variance costs about half a gathered one.  The near-extremal ladders
      take the sweep, with 94-99% of their units passing;
    * blocks: _block_pairs tests every block pair J >= I + 2 and reads the
      pairs of those that pass.

    The span bound.  Read s1, s2 and t as exact reals, as _block_pairs
    does.  Segment k, from node k to node k + 1, has length l_k and the
    differences a_k and b_k of s1 and s2, mean mu_k = a_k / l_k and
    variance e_k = b_k / l_k - mu_k^2.  A window made of segments k, of
    length L and mean mu, has the variance

        V = (1/L) sum l_k e_k + (1/L) sum l_k (mu_k - mu)^2,

    an identity, which holds also where the prefix sums break
    Cauchy-Schwarz and some e_k < 0.  The first term is at most max e_k,
    and the second is the variance of a law on [m, M], m and M the least
    and largest mu_k of the span, so at most (M - m)^2 / 4 (Popoviciu,
    Mathematica 9, 1935).  A computed variance is within 9u (|D2|/w +
    (D1/w)^2) of V, as _block_pairs derives, and |D2|/w <= P, the largest
    |b_k| / l_k of the span, and (D1/w)^2 = mu^2 <= Q, the largest mu_k^2,
    so this allowance does not depend on the window's length; the block
    test's r divides by the gap between its blocks, which is 0 between
    neighbours.  The scan takes P over the whole column, which only
    loosens the bound and spares a per-span reduction.

    The bound is formed from the computed mu_k and b_k / l_k, three
    roundings each, two differences and a division.  A computed e_k is
    within 4u |b_k| / l_k + 8u mu_k^2 of the exact one, so max e_k is at
    most its computed value plus 4u P + 8u Q; M - m is at most the
    computed gap plus 6u sqrt(Q), which adds 6u Q to (M - m)^2 / 4.  So a
    computed variance in the span is below the bound formed from computed
    values plus 13u P + 23u Q.  The bound's own roundings, in the gap, its
    square and three sums, add at most about 5u (P + Q), since the gap's
    square over 4 is at most Q and |e_k| <= P + Q, and P and Q formed from
    computed values are within 7u of the exact ones, relative.  All of it
    is below the allowance 16 eps (P + Q) = 32u (P + Q), so

        bound = (M - m)^2 / 4 + max e_k + 16 eps (P + Q)

    formed in floating point is at least every variance _window_var reads
    inside the span.  A NaN bound, which only a zero-length segment or an
    overflow makes, is never below the maximum, so its unit is read.

    A NaN variance, which only an overflow in the prefix integrals makes,
    takes its column of the diagonal, its span read, or its block pair and
    column, out of the maximum: the reduction passes it on, and np.fmax
    drops it.

    The gain rests on the bounds and tests excluding most units and block
    pairs.  Counting the span reads, the band, the seeds and the block
    reads, and a pair read in one of F columns as 1/F of a pair, the scan
    reads about 2% of the pairs on the oracle's 64-cell draws over the 2^9
    grid, where it gathers 7% of the units, and 0.9-1.6% on phi0 and the
    two rim extremals at levels 12, where it gathers 2 units of 256 or
    fewer.  It sweeps the band and reads 9-11% on the ladders of
    build_ladder's table at levels 6 (18% on the 1,745 nodes of (8, 0.3,
    3)) and 2.7% on the 16,041-node ladder of depth 6 at levels 10, where
    the outer-window bound alone left nearly all of them.
    """
    n, f = s1.shape
    best = np.zeros(f)
    wmin = _MIN_WINDOW * (t[-1] - t[0])
    # the span reads and the block steps index s1 and s2 flat, node x of column c at x f + c
    s1, s2 = np.ascontiguousarray(s1), np.ascontiguousarray(s2)
    b = _BLOCK
    bound = _span_bounds(t, s1, s2)
    cols = np.arange(f)
    # each column's span of largest bound seeds the maximum and is not read again
    top = np.argmax(bound, axis=0)
    # a span read's windows from a row to a node at or before it divide by w <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        _read_pairs(t, s1, s2, wmin, best, top * b, top * b + 1, cols, 2 * b)
        bound[top, cols] = -np.inf
        # the (span, column) units whose bound reaches the maximum
        ks, cs = np.nonzero(~(bound < best))
        if 2 * ks.size < bound.size:
            _read_pairs(t, s1, s2, wmin, best, ks * b, ks * b + 1, cs, 2 * b)
        else:
            tw = t[:, None]
            any_short = bool((np.diff(t) < wmin).any())
            for d in range(1, min(2 * b, n - 1) + 1):
                w, v = _window_var(tw[d:], tw[:-d], s1[d:], s1[:-d], s2[d:], s2[:-d])
                if any_short:
                    np.fmax(best, v.max(axis=0, where=w >= wmin, initial=-np.inf), out=best)
                else:
                    np.fmax(best, np.maximum.reduce(v), out=best)
    if n - 1 > 2 * b:
        _block_pairs(t, s1, s2, wmin, best)
    return best


def _span_bounds(t, s1, s2):
    """Bounds, (spans, F), on the variance _window_var reads of any window inside a span.

    Span k runs from node kb to node min(kb + 2b, n - 1), b = _BLOCK: the
    segments of blocks k and k + 1, or of the last block alone.  With mu_k
    and e_k the mean and variance of segment k, M and m the largest and
    least mu_k of the span, Q the larger of M^2 and m^2, and P the largest
    |b_k| / l_k of the column, the bound is (M - m)^2 / 4 + max e_k +
    16 eps (P + Q), derived in _pair_scan.  A NaN bound, which only a
    zero-length segment or an overflow makes, is never below the maximum.
    """
    n = s1.shape[0]
    first = np.arange(-(-(n - 1) // _BLOCK)) * _BLOCK

    def spans(op, x):
        """op over the segments of each span, from op over each block's."""
        x = op.reduceat(x, first)
        x[:-1] = op(x[:-1], x[1:])
        return x

    with np.errstate(all="ignore"):
        width = np.diff(t)[:, None]
        mu = np.diff(s1, axis=0)
        mu /= width
        e = np.diff(s2, axis=0)
        e /= width
        hi, lo = spans(np.maximum, mu), spans(np.minimum, mu)
        p = np.maximum(e.max(axis=0), -e.min(axis=0))
        mu *= mu
        e -= mu
        gap = hi - lo
        return 0.25 * (gap * gap) + spans(np.maximum, e) + 16.0 * np.finfo(float).eps * (
            p + np.maximum(hi * hi, lo * lo))


def _read_pairs(t, s1, s2, wmin, best, x0, y0, c, ny):
    """Raise best[c] to the largest variance of the windows from nodes x0 + [0, b) to y0 + [0, ny).

    One entry of x0, y0 and c per read, b = _BLOCK, gathered about _TILE
    values per _window_var call; a node index past n - 1 reads node n - 1.
    A batch whose shortest window is below wmin, or ends at or before it
    starts, masks those windows with their own w.
    """
    n, f = s1.shape
    s1f, s2f = s1.reshape(-1), s2.reshape(-1)
    rows, nodes = np.arange(_BLOCK)[:, None], np.arange(ny)[:, None]
    batch = _TILE // (_BLOCK * ny)
    for k0 in range(0, c.size, batch):
        pick = slice(k0, k0 + batch)
        k, col = c[pick].size, c[pick]
        # rows x and nodes y, (b, k) and (ny, k), and their entries in s1f, s2f
        x = np.minimum(x0[pick] + rows, n - 1)
        y = np.minimum(y0[pick] + nodes, n - 1)
        xs, ys = x * f + col, y * f + col
        w, v = _window_var(t[y], t[x][:, None], s1f[ys], s1f[xs][:, None],
                           s2f[ys], s2f[xs][:, None])
        v = v.reshape(-1, k)
        if (t[y[0]] - t[x[-1]] < wmin).any():
            v = v.max(axis=0, where=w.reshape(-1, k) >= wmin, initial=-np.inf)
        else:
            v = np.maximum.reduce(v)
        np.fmax.at(best, col, v)


def _block_pairs(t, s1, s2, wmin, best):
    """Raise best, per column, to the largest variance of the pairs from block I to J >= I + 2.

    Blocks are [first, last] = [kb, min(kb + b, n - 1)], b = _BLOCK.  Once
    per scan, tables hold the differences of t, s1 and s2 from each block's
    first node to its next b nodes, as (b, blocks[, F]), the last block's
    last node standing in for the nodes it lacks.  The block pairs are then
    taken in groups of consecutive row blocks, about _TILE / 2F pairs each,
    against the maximum after every earlier group:

    * seeds: the variance of each pair's outer window, from the first node
      of I to the last of J, raises the maximum;
    * bound: the outer-window bound tests every pair and column;
    * exact test: excluded takes what the bound leaves, _TILE / b tests at
      a time, each a gather along the block axis of the tables;
    * reads: each pair and column that passes both reads its b rows against
      J's b + 1 nodes by gather, about _TILE values per _window_var call,
      as soon as its chunk of tests is done, so later chunks test against
      the raised maximum.  A batch whose shortest window is below wmin
      masks its short windows with their own w.  Node e, the first of J,
      is I + 1's last node, read again with the same bits.

    The exact test.  Take I = [a, c] and J = [e, g], read s1, s2 and t as
    exact reals, and for a mean m and a level beta write

        Q(x, y) = (s2_y - s2_x) - 2m (s1_y - s1_x) + (m^2 - beta)(t_y - t_x).

    Q is additive over adjacent windows, and its least value over m is
    (t_y - t_x)(V(x, y) - beta), V the window variance, so for i in I and
    j in J

        (t_j - t_i)(V(i, j) - beta) <= Q(i, j) = Q(a, g) - Q(a, i) - Q(j, g)
                                    <= S = Q(a, g) - min_I Q(a, i) - min_J Q(j, g),

    and S < 0 proves V(i, j) < beta for every such pair.  The scan takes m
    the mean of [a, g] and beta = best - r, where r = 5 eps (R2/L_in +
    (R1/L_in)^2), eps = 2u = 2^-52, R1 and R2 the largest ranges of s1 and
    s2 over the nodes in any column and L_in = t_e - t_c, the gap between
    the blocks.  Each of the six operations of _window_var rounds once, so
    away from underflow a computed variance is within 9u (|D2|/w + (D1/w)^2)
    of V, D1, D2 and w the differences of s1, s2 and t; for a window from I
    to J, w >= L_in, that is below 0.9 r, and S < 0 leaves every variance
    computed from I to J below best - r + 0.9 r, under best.

    The outer-window bound is the same test with the two minima bounded
    from below.  The least value of Q(a, i) over m is -(D1^2/L - D2), D1,
    D2 and L the differences over [a, i]; with P_I the largest D1^2/L - D2
    over the windows [a, i] inside I and R_J that over the windows [j, g]
    inside J (the amount by which the prefix sums break Cauchy-Schwarz, 0
    for the integrals of a function), and beta >= 0, min_I Q(a, i) >= -P_I
    - beta (t_c - t_a), likewise for J, and S < 0 follows from

        bound = (L_out max(V(a, g), 0) + P_I + R_J) / L_in < beta,

    L_out = t_g - t_a.  It needs only the outer windows, so it comes first.
    In floating point it is read with V_out, the computed variance of [a, g],
    as (L_out max(V_out + r, 0) + P_I + R_J) / L_in + r < best, which
    beta < 0 never meets: P_I and R_J, taken as their largest value over the
    columns, have (1 + 4 eps) on D1^2/L for its four roundings, then (1 + 2
    eps) on their largest value and 4 eps R2 for the roundings of D1^2/L -
    D2; the bound has (1 + 8 eps) for the roundings of its nonnegative
    terms, about ten.

    The exact test is read in floating point as S < -A.  Every Q is formed
    as (D2 - (2m) D1) + c L, c = m^2 - beta from the computed m and beta,
    D1, D2 and L each one rounded difference, a table entry for Q(a, i) and
    Q(e, j).  Against the same sum in exact arithmetic with beta = best - r
    exactly, it is within u (3 R2 + 8 |m| R1 + 6 L_out (m^2 + |beta|)),
    since every window lies inside [a, g]; S is formed as ((Q(a, g) - min_I
    Q(a, i)) - Q(e, g)) + max_J Q(e, j), with min_J Q(j, g) = Q(e, g) -
    max_J Q(e, j), so its four Q and three sums are within 21u R2 + 50u |m|
    R1 + 33u L_out (m^2 + |beta|), below

        A = 17 eps (R2 + 2 |m| R1 + L_out (m^2 + |beta|)),

    which leaves room for A's own roundings.  A block pair whose outer
    window is shorter than wmin holds no window that counts and is never
    read.  A NaN bound or test, which only an overflow makes, counts as
    reaching.
    """
    n, f = s1.shape
    b = _BLOCK
    nb = -(-(n - 1) // b)
    eps = np.finfo(float).eps
    first = np.arange(nb) * b
    last = np.minimum(first + b, n - 1)
    r1, r2 = np.ptp(s1, axis=0).max(), np.ptp(s2, axis=0).max()

    def excess(e1, e2, et):
        """max(0, largest D1^2/L - D2 per block) with its rounding allowance."""
        p = np.divide(e1, et[..., None])
        p *= e1
        p *= 1.0 + 4.0 * eps
        p -= e2
        return np.maximum(p.max(axis=(0, 2)), 0.0) * (1.0 + 2.0 * eps) + 4.0 * eps * r2

    # R_J over the windows [j, g], j = e .. g - 1
    node = np.minimum(first + np.arange(b)[:, None], last - 1)
    d1, d2 = s1[node], s2[node]
    slack_j = excess(np.subtract(s1[last], d1, out=d1), np.subtract(s2[last], d2, out=d2),
                     t[last] - t[node])
    # the tables, (b, nb) for t and (b, nb, F) for s1 and s2, and P_I over their windows [a, i]
    node = np.minimum(first + np.arange(1, b + 1)[:, None], last)
    tt = t[node] - t[first]
    np.subtract(s1[node], s1[first], out=d1)
    np.subtract(s2[node], s2[first], out=d2)
    slack_i = excess(d1, d2, tt)
    d1, d2 = d1.reshape(b, nb * f), d2.reshape(b, nb * f)
    s1f, s2f = s1.reshape(-1), s2.reshape(-1)

    def excluded(beta, c, bi, bj):
        """True where the exact test excludes column c of block pair (bi, bj), one entry per test.

        Q(a, i) over I and Q(e, j) over J are formed as (b, tests) arrays
        from the tables.
        """
        a, g = first[bi], last[bj]
        sa, sg = a * f + c, g * f + c
        l_out = t[g] - t[a]
        e1 = s1f[sg] - s1f[sa]
        m = e1 / l_out
        cq = m * m - beta
        m2 = 2.0 * m
        q = ((s2f[sg] - s2f[sa]) - m2 * e1) + cq * l_out
        out, tmp = np.empty((2, b, c.size))

        def qs(blk):
            """Q from block blk's first node to its next b nodes, (b, tests), in out;
            mode="clip", on indices in range, spares take its buffered copy for out=."""
            col = blk * f + c
            np.take(d2, col, axis=1, out=out, mode="clip")
            np.multiply(np.take(d1, col, axis=1, out=tmp, mode="clip"), m2, out=tmp)
            np.subtract(out, tmp, out=out)
            np.multiply(np.take(tt, blk, axis=1, out=tmp, mode="clip"), cq, out=tmp)
            return np.add(out, tmp, out=out)

        # Q(a, a) = 0 and Q(e, e) = 0 join the least and the largest
        q -= np.minimum(np.minimum.reduce(qs(bi)), 0.0)
        qj = qs(bj)
        q -= qj[-1]
        q += np.maximum(np.maximum.reduce(qj), 0.0)
        return q < -17.0 * eps * (r2 + 2.0 * np.abs(m) * r1 + l_out * (m * m + np.abs(beta)))

    ta, tc, tg = t[first], t[last[:-2]], t[last]
    s1a, s2a, s1g, s2g = s1[first], s2[first], s1[last], s2[last]
    group, chunk = max(1, _TILE // (2 * f)), _TILE // b
    i0 = 0
    while i0 < nb - 2:
        # row blocks i0 .. i1 - 1 against blocks js, as a rectangle of about group pairs
        js = slice(i0 + 2, nb)
        i1 = min(nb - 2, i0 + max(1, group // (nb - js.start)))
        rows = slice(i0, i1)
        l_out = tg[js] - ta[rows, None]
        live = np.arange(js.start, nb) >= np.arange(i0, i1)[:, None] + 2
        inv = (1.0 + 8.0 * eps) / np.where(live, ta[js] - tc[rows, None], 1.0)
        r = 5.0 * eps * (r2 * inv + (r1 * inv) ** 2)
        # a block pair (I, J) with J < I + 2 reads junk, and one whose outer
        # window is shorter than wmin holds no window that counts: both seed
        # nothing and are never read
        live &= l_out >= wmin
        with np.errstate(all="ignore"):
            _, v = _window_var(tg[None, js, None], ta[rows, None, None], s1g[None, js],
                               s1a[rows, None], s2g[None, js], s2a[rows, None])
            v[~live] = -np.inf
            np.fmax(best, np.maximum.reduce(v.reshape(-1, f)), out=best)
            # bound = L_out / L_in max(V_out + r, 0) + (P_I + R_J) / L_in + r
            v += r[..., None]
            np.maximum(v, 0.0, out=v)
            v *= (l_out * inv)[..., None]
            v += ((slack_i[rows, None] + slack_j[js]) * inv + r)[..., None]
        ii, jj, cc = np.nonzero(~(v < best) & live[..., None])
        for c0 in range(0, ii.size, chunk):
            i, j, c = ii[c0 : c0 + chunk], jj[c0 : c0 + chunk], cc[c0 : c0 + chunk]
            with np.errstate(all="ignore"):
                keep = ~excluded(best[c] - r[i, j], c, i + i0, j + js.start)
            # the first nodes of the blocks I and J of each pair and column to read
            ri, rj, rc = first[i[keep] + i0], first[j[keep] + js.start], c[keep]
            _read_pairs(t, s1, s2, wmin, best, ri, rj, rc, b + 1)
        i0 = i1


def prefix_integrals(f: PiecewiseFn, t):
    """Exact (integral_a^t f, integral_a^t f^2) at sorted points t of the domain."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.ndim != 1 or t.size == 0 or np.any(np.diff(t) < 0.0):
        raise DomainError("prefix points must form a sorted one-dimensional array")
    if not np.isfinite(t).all():
        raise DomainError("prefix points must be finite")
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


def _nodes(a: float, b: float, levels: int, breaks) -> np.ndarray:
    """The 2^levels dyadic splits of [a, b] and the points breaks, sorted, each once."""
    return np.unique(np.concatenate([np.linspace(a, b, 2 ** levels + 1), breaks]))


def bmo_norm(f: PiecewiseFn, levels: int) -> float:
    """Oscillation seminorm over all node-aligned windows of the refined grid.

    Nodes are the 2^levels dyadic splits of the domain plus every piece
    breakpoint, so prefix integrals at nodes are exact and the result is a
    lower bound of the true seminorm, nondecreasing in levels.  A ladder
    piece adds only its two ends, so windows inside it are seen through the
    dyadic nodes alone; lay out enough ladder levels as log pieces.  The
    scan is the pair-scan kernel on one function's prefix integrals.
    The reading is kept on f per levels, so later calls return it unscanned.
    """
    levels = _count("levels", levels, 1, 16)
    return _kept(f, ("bmo", levels), lambda: _scan(f, levels))


def _scan(f: PiecewiseFn, levels: int) -> float:
    nodes = _nodes(f.a, f.b, levels, f.breakpoints())
    s1, s2 = (s[:, None] for s in prefix_integrals(f, nodes))
    # a NaN would drop windows from the scan and from its block bounds unseen
    if not (np.isfinite(s1).all() and np.isfinite(s2).all()):
        raise DomainError("the prefix integrals of f are not finite at the scan nodes")
    return math.sqrt(_pair_scan(nodes, s1, s2)[0])


def transfer(f: PiecewiseFn, J) -> PiecewiseFn:
    """Affine reparametrization onto the interval J; distribution is preserved.

    Piece ends and log centres move by t -> j1 + (t - a) s with s = |J| / |I|,
    the two outer ends pinned to J; a log piece absorbs the scale as
    c0 - c1 ln s.
    """
    j1, j2 = (float(v) for v in J)
    s = (j2 - j1) / f.length
    if not 0.0 < s < math.inf:
        raise DomainError(f"target interval [{j1}, {j2}] is degenerate or not finite (scale {s})")
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
    depth = _count("depth", depth, 0)
    # np.linspace takes an integer cell count; with at least one cell every
    # level keeps a block, and PiecewiseFn checks n on the ladder pieces
    n = _count("ladder branching", n, 1)
    if not (h > 0 and math.isfinite(h)):
        raise DomainError(
            f"ladder needs an integer branching >= 2 and a finite step > 0, got {float(n)} and {float(h)}"
        )
    # the blocks of a level, their cells, and for each cell a rising and a
    # falling ramp around the next level's block
    a, b, beta = np.array([0.25]), np.array([0.75]), 0.0
    fields = []  # (kind, pa, pb, c0, c1, sig, tau, nb) per group of pieces
    for level in range(1, depth + 1):
        edges = np.linspace(a, b, n + 1, axis=1)
        lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        half = 0.5 * (hi - lo)
        mid = lo + half
        rho = -half * math.expm1(-h)
        a, b = lo + rho, hi - rho
        if not ((lo < a) & (a < b) & (b < hi)).all():
            raise DomainError(f"ladder step h = {h} empties a ramp or block of level {level}")
        # math.log, not np.log, which differs from it in the last bit on some doubles
        c0 = beta + np.array(list(map(math.log, half.tolist())))
        one, zero = np.ones(lo.size), np.zeros(lo.size)
        fields.append((one, lo, a, c0, -one, -one, mid, zero))  # rising ramps
        fields.append((one, b, hi, c0, -one, one, mid, zero))  # falling ramps
        beta += h
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
    cell edges, so _TILE // (nodes - 1) of them stack as the columns of one
    scan.  Their prefix integrals are running sums of value times width over
    the grid segments, in the order prefix_integrals adds a step function's.
    """
    cells = _count("cells", cells, 2)
    if not 0 < eps < math.inf:
        raise DomainError(f"eps must be finite and positive, got {eps}")
    edges = np.linspace(0.0, 1.0, cells + 1)
    nodes = _nodes(0.0, 1.0, _GEN_LEVELS, edges)
    cell = np.clip(np.searchsorted(edges[:-1], nodes[:-1], side="right") - 1, 0, cells - 1)
    width = np.diff(nodes)[:, None]
    out = np.zeros((len(seeds), cells))
    for vals, seed in zip(out, seeds):
        rng = np.random.Generator(np.random.Philox(_count("seed", seed, 0)))
        while not np.ptp(vals) > 0:
            vals[:] = rng.normal(0.0, 1.0, cells)
    chunk = max(1, _TILE // (nodes.size - 1))
    for c in range(0, len(out), chunk):
        block = out[c : c + chunk]
        v = block.T[cell]
        s1, s2 = np.zeros((2, nodes.size, len(block)))
        np.cumsum(v * width, axis=0, out=s1[1:])
        np.cumsum(v * v * width, axis=0, out=s2[1:])
        block *= (eps / np.sqrt(_pair_scan(nodes, s1, s2)))[:, None]
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
