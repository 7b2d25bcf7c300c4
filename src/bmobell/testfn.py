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

The oscillation seminorm is the pair scan of seminorm on a dyadic grid
refined by every piece breakpoint, where the prefix integrals are exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from .errors import DomainError
from .seminorm import _pair_scan, _step_scan
from .specfn import gamma_fn, rise_integral

# candidate-set refinement used when a generated step function is rescaled
# to unit grid seminorm; one level beyond 8 resolves window endpoints well
# inside the cells of a 64-cell draw
_GEN_LEVELS = 9


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


def _piece_at(starts: np.ndarray, t) -> np.ndarray:
    """Index of the piece holding each point t, from the sorted piece starts; past an end, the end piece."""
    return np.clip(np.searchsorted(starts, t, side="right") - 1, 0, starts.size - 1)


def evaluate(f: PiecewiseFn, t):
    """Pointwise values; the right domain endpoint is taken from the last piece."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not ((arr >= f.a) & (arr <= f.b)).all():
        raise DomainError(f"argument outside the domain [{f.a}, {f.b}]")
    idx = _piece_at(f._pa, arr)
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
    idx = _piece_at(f._pa, gl)
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
    cell edges, so seminorm's _step_scan scans them stacked, its prefix
    integrals summed in the order prefix_integrals adds a step function's.
    """
    cells = _count("cells", cells, 2)
    if not 0 < eps < math.inf:
        raise DomainError(f"eps must be finite and positive, got {eps}")
    edges = np.linspace(0.0, 1.0, cells + 1)
    nodes = _nodes(0.0, 1.0, _GEN_LEVELS, edges)
    out = np.zeros((len(seeds), cells))
    for vals, seed in zip(out, seeds):
        rng = np.random.Generator(np.random.Philox(_count("seed", seed, 0)))
        while not np.ptp(vals) > 0:
            vals[:] = rng.normal(0.0, 1.0, cells)
    out *= (eps / np.sqrt(_step_scan(out, nodes, _piece_at(edges[:-1], nodes[:-1]))))[:, None]
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
