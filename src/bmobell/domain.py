"""Moment domain geometry.

Coordinates are x = (x1, x2, x3) = (mean, second moment, p-th absolute
moment) of a function whose mean oscillation is bounded by eps.  The 2d
carrier is the parabolic strip x1^2 <= x2 <= x1^2 + eps^2; the reachable
x3 values form an interval between two explicit envelope surfaces built
from tangent chords of the lower parabola.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfn import gamma_fn, k_fn, m_fn

# absolute slack applied to every inequality test on moment coordinates
MEMBERSHIP_TOL = 1e-12


class Regime(enum.Enum):
    MAX = "max"
    MIN = "min"
    DEGENERATE = "degenerate"


class Region(enum.Enum):
    XI_ZERO = "XiZero"
    XI_PLUS = "XiPlus"
    XI_MINUS = "XiMinus"
    SKELETON = "Skeleton"
    OUTSIDE = "Outside"


@dataclass(frozen=True)
class Params:
    """Exponent pair and oscillation scale for one Bellman problem.

    p = 2 is rejected outright: the second moment coordinate makes that
    case trivial and every formula below divides by quantities that vanish
    there.  Both exponents enter through Gamma(q + 1), so each must keep it
    a finite double, about q <= 170.6.
    """

    p: float
    r: float
    eps: float = 1.0

    def __post_init__(self):
        if not np.isfinite([self.p, self.r, self.eps]).all():
            raise DomainError(f"p, r and eps must be finite, got ({self.p}, {self.r}, {self.eps})")
        if not self.p >= 1:
            raise DomainError(f"p must be >= 1, got {self.p}")
        if self.p == 2:
            raise DomainError("p = 2 is degenerate in the base exponent and is not supported")
        if not self.r >= 1:
            raise DomainError(f"r must be >= 1, got {self.r}")
        for q in (self.p, self.r):
            gamma_fn(q + 1.0)  # DomainError where Gamma(q + 1) overflows, past about q = 170.6
        if not self.eps > 0:
            raise DomainError(f"eps must be positive, got {self.eps}")

    @property
    def regime(self) -> Regime:
        s = (self.r - 2.0) * (self.p - self.r)
        if s < 0:
            return Regime.MAX
        if s > 0:
            return Regime.MIN
        return Regime.DEGENERATE


def omega2_contains(eps: float, x1, x2):
    """Whether (x1, x2) lies in the parabolic strip of width eps^2, elementwise over arrays."""
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    sq = x1 * x1
    return (sq - MEMBERSHIP_TOL <= x2) & (x2 <= sq + eps * eps + MEMBERSHIP_TOL)


def chord_params(eps: float, x1, x2):
    """(x2, u_plus, u_minus) over arrays of x1 and x2 in the strip, x2 clipped up to x1^2.

    The one place where a point a rounding error below the lower parabola
    is lifted onto it, and where the discriminant of the two tangent
    chords is clipped to [0, eps^2].
    """
    x2 = np.maximum(x2, x1 * x1)
    d = np.sqrt(np.clip(eps * eps - (x2 - x1 * x1), 0.0, eps * eps))
    return x2, x1 - eps + d, x1 + eps - d


def tangent_params(eps: float, x1: float, x2: float) -> tuple[float, float]:
    """Chord parameters (u_plus, u_minus) of the two extreme tangent chords
    through (x1, x2).

    u_plus tags the forward chord from (u, u^2) to (u+eps, (u+eps)^2+eps^2),
    u_minus the backward one.  Both satisfy u_plus <= x1 <= u_minus.
    """
    if not omega2_contains(eps, x1, x2):
        raise DomainError(f"point ({x1}, {x2}) outside the strip for eps = {eps}")
    _, up, um = chord_params(eps, np.array([x1]), np.array([x2]))
    return float(up[0]), float(um[0])


def _a_m(p: float, eps: float, a1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    x2, up, _ = chord_params(eps, a1, x2)
    # tangent from the outward transform where it exists, central ray otherwise
    out = m_fn(p, eps, 0.0) * x2 / (2.0 * eps)
    t = up > 0.0
    if t.any():
        ut = up[t]
        out[t] = ut ** p + m_fn(p, eps, ut) * (a1[t] - ut)
    return out


def _a_k(p: float, eps: float, a1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    x2, _, um = chord_params(eps, a1, x2)
    out = x2 ** (p / 2.0)
    t = x2 > eps * eps
    if t.any():
        ut = np.maximum(um[t], eps)
        out[t] = ut ** p + k_fn(p, eps, ut) * (a1[t] - ut)
    return out


def _one_point(envelope, p: float, eps: float, x1: float, x2: float) -> float:
    if not p >= 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if not omega2_contains(eps, x1, x2):
        raise DomainError(f"point ({x1}, {x2}) outside the strip for eps = {eps}")
    return float(envelope(p, eps, np.array([abs(x1)]), np.array([float(x2)]))[0])


def a_m(p: float, eps: float, x1: float, x2: float) -> float:
    """Envelope surface built from the outward transform m.

    Tangent chord extension u^p + m(u)(x1-u) away from the centre, matched
    across the central triangle by the ray value m(0) * x2 / (2 eps).
    Even in x1.
    """
    return _one_point(_a_m, p, eps, x1, x2)


def a_k(p: float, eps: float, x1: float, x2: float) -> float:
    """Envelope surface built from the backward transform k.

    Below the level x2 = eps^2 it is the pure power cup x2^(p/2); above,
    the backward tangent chord extension u^p + k(u)(x1-u).  Even in x1.
    """
    return _one_point(_a_k, p, eps, x1, x2)


def envelope_batch(params: Params, a1: np.ndarray, x2: np.ndarray):
    """Envelope pair (lower, upper) over arrays of |x1| and x2 in the strip.

    a_m and a_k elementwise; each transform is evaluated only on the rows
    whose tangent chord uses it.
    """
    p, eps = params.p, params.eps
    a1, x2 = np.broadcast_arrays(np.asarray(a1, dtype=float), np.asarray(x2, dtype=float))
    am, ak = _a_m(p, eps, a1, x2), _a_k(p, eps, a1, x2)
    return (ak, am) if p > 2 else (am, ak)


def bellman2d(params: Params, x1: float, x2: float, side: str) -> float:
    """Upper or lower extremal p-th moment over the strip point (x1, x2).

    For p > 2 the m-surface dominates the k-surface; for p < 2 the roles
    swap.
    """
    if side not in ("upper", "lower"):
        raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
    m_is_upper = params.p > 2
    want_m = (side == "upper") == m_is_upper
    if want_m:
        return a_m(params.p, params.eps, x1, x2)
    return a_k(params.p, params.eps, x1, x2)


def omega3_contains(params: Params, x) -> bool:
    """Whether x = (x1, x2, x3) is a reachable moment triple."""
    x1, x2, x3 = (float(v) for v in x)
    if not omega2_contains(params.eps, x1, x2):
        return False
    lo = bellman2d(params, x1, x2, "lower")
    hi = bellman2d(params, x1, x2, "upper")
    return lo - MEMBERSHIP_TOL <= x3 <= hi + MEMBERSHIP_TOL


def transition_level(params: Params, x2):
    """x3 level of the flat transition leaf at chord parameter eps; x2 may be an array."""
    p, eps = params.p, params.eps
    return eps ** p + (x2 - eps * eps) * m_fn(p, eps, eps) / (4.0 * eps)


def as_triples(pts) -> np.ndarray:
    """pts as an (n, 3) float array of moment triples."""
    X = np.asarray(pts, dtype=float)
    if X.ndim != 2 or X.shape[1] != 3:
        raise DomainError("expected an (n, 3) array of moment triples")
    return X


def leaf_regions(x1, central, skel) -> np.ndarray:
    """Region of each leaf from its family masks and the sign of x1: SKELETON over
    XI_ZERO (central) over XI_PLUS or XI_MINUS."""
    out = np.where(np.asarray(x1) >= 0.0, Region.XI_PLUS, Region.XI_MINUS)
    out[central] = Region.XI_ZERO
    out[skel] = Region.SKELETON
    return out


def classify_batch(params: Params, pts) -> np.ndarray:
    """Assign every row of an (n, 3) array to its foliation region.

    Skeleton points (x2 = x1^2) are tagged first; the central region
    XI_ZERO collects everything on its side of the transition leaf, ties
    included; the rest splits by the sign of x1.  Returns an object array
    of Region members.
    """
    return classify_envelopes(params, as_triples(pts))[0]


def classify_envelopes(params: Params, X: np.ndarray):
    """classify_batch of the (n, 3) array X, with the envelope pair it tested x3 against.

    Returns (regions, low, high): low and high are envelope_batch at the
    rows inside the strip and NaN at the others.
    """
    x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
    p, eps, tol = params.p, params.eps, MEMBERSHIP_TOL
    out = np.full(len(X), Region.OUTSIDE, dtype=object)
    low, high = np.full(len(X), np.nan), np.full(len(X), np.nan)
    i = np.flatnonzero(omega2_contains(eps, x1, x2))
    low[i], high[i] = envelope_batch(params, np.abs(x1[i]), x2[i])
    i = i[(low[i] - tol <= x3[i]) & (x3[i] <= high[i] + tol)]
    y1, y2 = x1[i], x2[i]
    a1 = np.abs(y1)
    band = (a1 <= 2.0 * eps + tol) & (y2 >= 4.0 * eps * a1 - 3.0 * eps * eps - tol)
    fan = band & ((p - 2.0) * (x3[i] - transition_level(params, y2)) >= -tol)
    out[i] = leaf_regions(y1, fan, y2 - y1 * y1 <= tol)
    return out, low, high


def classify(params: Params, x) -> Region:
    """classify_batch of the single point x."""
    return classify_batch(params, [[float(v) for v in x]])[0]
