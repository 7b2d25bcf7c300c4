"""Verification suites tying the evaluator to independent oracles.

Every suite condenses its run into a VerifyReport: the worst residual it
saw, the input that produced it, and a pass flag that is always equivalent
to worst_residual <= the suite's declared tolerance.  Reports serialize to
JSON with a fixed key order so runs can be diffed byte for byte.

Route independence is the organizing idea.  Each check pairs the primary
closed-form path with a different computation of the same quantity (direct
quadrature, brute-force test functions, explicit extremal constructions),
so a defect in either side surfaces instead of cancelling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import testfn
from .bellman import (
    hessian_leaf_batch,
    leaf_value,
    solve_u_batch,
    value,
    value_batch,
    gradient_batch,
)
from .domain import Params, Regime, envelope_batch, transition_level
from .errors import DomainError
from .specfn import gamma_fn, k_fn, m_fn, quad_k, quad_m

# declared tolerance per suite; violation-style suites use 0.0 and encode
# their slack into the residual itself
_TOL = {
    "identities": 1e-8,
    "skeleton": 1e-8,
    "concavity": 1e-6,
    "c1_glue": 1e-6,
    "inequality_oracle": 0.0,
    "attainment": 1e-6,
    "transference": 0.0,
}


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    params: dict
    cases: int
    worst_residual: float
    witness: object
    passed: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "params": self.params,
                "cases": self.cases,
                "worst_residual": self.worst_residual,
                "witness": self.witness,
                "passed": self.passed,
            }
        )


def _report(suite: str, params: dict, cases: int, worst, witness) -> VerifyReport:
    worst = float(worst)
    return VerifyReport(suite, params, cases, worst, witness, worst <= _TOL[suite])


def _pdict(params: Params) -> dict:
    return {"p": params.p, "r": params.r, "eps": params.eps}


def check_identities(params: Params, u_grid) -> VerifyReport:
    """Differential relations between the two weighted means, mixed routes.

    Four relations per exponent: the defining first-order relation of each
    mean (closed form against quadrature derivative), and the cross
    relations tying the derivative sum at consecutive orders to the
    difference one order lower.
    """
    eps = params.eps
    u = np.asarray(u_grid, dtype=float)
    if u.size == 0 or np.any(u < eps - 1e-12) or np.any(u > eps + 10.0 + 1e-12):
        raise DomainError(f"u_grid must lie inside [{eps}, {eps + 10.0}]")
    worst, witness = -math.inf, None
    cases = 0
    exponents = (params.p,) if params.p == params.r else (params.p, params.r)
    for q in exponents:
        power = q * u ** (q - 1.0)
        m0, k0 = m_fn(q, eps, u), k_fn(q, eps, u)
        m1q, k1q = quad_m(q, eps, u, 1), quad_k(q, eps, u, 1)
        m2q, k2q = quad_m(q, eps, u, 2), quad_k(q, eps, u, 2)
        m1i, k1i = m_fn(q, eps, u, 1), k_fn(q, eps, u, 1)
        rows = (
            ("m-first-order", (m0 - eps * m1q - power) / np.maximum(1.0, np.abs(power))),
            ("k-first-order", (k0 + eps * k1q - power) / np.maximum(1.0, np.abs(power))),
            (
                "sum-diff-0",
                (eps * (m1q + k1q) - (m0 - k0)) / np.maximum(1.0, np.abs(m0 - k0)),
            ),
            (
                "sum-diff-1",
                (eps * (m2q + k2q) - (m1i - k1i)) / np.maximum(1.0, np.abs(m1i - k1i)),
            ),
        )
        for label, res in rows:
            res = np.abs(res)
            cases += res.size
            i = int(np.argmax(res))
            if res[i] > worst:
                worst = float(res[i])
                witness = {"relation": label, "exponent": q, "u": float(u[i])}
    return _report("identities", _pdict(params), cases, worst, witness)


def check_skeleton(params: Params, t_grid) -> VerifyReport:
    """Boundary condition along the curve (t, t^2, |t|^p)."""
    p, r = params.p, params.r
    worst, witness = -math.inf, None
    t_grid = [float(t) for t in t_grid]
    for t in t_grid:
        want = abs(t) ** r
        got = value(params, (t, t * t, abs(t) ** p))
        res = 0.0 if got == want else abs(got - want) / max(1.0, abs(want))
        if res > worst:
            worst, witness = res, {"t": t, "value": got, "expected": want}
    return _report("skeleton", _pdict(params), len(t_grid), worst, witness)


def _interior_samples(params: Params, n: int, rng, margin: float = 1e-3):
    """Uniform draws strictly inside the moment body.

    Parametrizing by the strip and envelope fractions makes the margin
    exact, with no rejection loop to bias the tails.
    """
    eps = params.eps
    x1 = rng.uniform(-3.0 * eps, 3.0 * eps, n)
    x2 = x1 * x1 + eps * eps * rng.uniform(margin, 1.0 - margin, n)
    lo, hi = envelope_batch(params, np.abs(x1), x2)
    x3 = lo + (hi - lo) * rng.uniform(margin, 1.0 - margin, n)
    return np.column_stack([x1, x2, x3])


def check_concavity(params: Params, n_samples: int, seed: int) -> VerifyReport:
    """Sign of the curvature transversal to the leaves, sampled at random.

    The residual is the worst signed eigenvalue excursion: largest
    eigenvalue in the concave regime, negated smallest in the convex one,
    so <= tolerance always reads "curvature has the claimed sign".
    """
    if params.regime is Regime.DEGENERATE:
        raise DomainError("curvature check needs a non-degenerate exponent pair")
    rng = np.random.Generator(np.random.Philox(seed))
    pts = _interior_samples(params, int(n_samples), rng)
    eigs = np.linalg.eigvalsh(hessian_leaf_batch(params, pts))
    if params.regime is Regime.MAX:
        res = eigs[:, 2]
    else:
        res = -eigs[:, 0]
    i = int(np.argmax(res))
    witness = {"x": [float(v) for v in pts[i]], "eigenvalue": float(res[i])}
    return _report("concavity", _pdict(params), len(pts), res[i], witness)


def check_c1_glue(params: Params, n_samples: int) -> VerifyReport:
    """Gradient continuity across the transition between leaf families.

    Samples straddle the interface plane by a relative 1e-9 nudge in the
    third coordinate; the witness also carries the scalar matching ratio
    of quadrature-route derivatives at the splice point, which the
    acceptance suite reads at its own tighter tolerance.
    """
    p, r, eps = params.p, params.r, params.eps
    rng = np.random.Generator(np.random.Philox(29))
    n = int(n_samples)
    side = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    # the interface plane exists only over x2 >= max(eps^2, 4*eps*|x1| - 3*eps^2),
    # and that band pinches off against the strip top past |x1| ~ 1.68*eps
    x1 = side * eps * rng.uniform(0.05, 1.65, n)
    lo2 = np.maximum(eps * eps, 4.0 * eps * np.abs(x1) - 3.0 * eps * eps)
    width2 = x1 * x1 + eps * eps - lo2
    x2 = lo2 + width2 * rng.uniform(0.1, 0.9, n)
    x3 = np.array([transition_level(params, v) for v in x2])
    eta = 1e-9 * np.maximum(1.0, np.abs(x3))
    above = np.column_stack([x1, x2, x3 + eta])
    below = np.column_stack([x1, x2, x3 - eta])
    ga = gradient_batch(params, above, margin=1e-10)
    gb = gradient_batch(params, below, margin=1e-10)
    scale = np.maximum(1.0, np.maximum(np.abs(ga), np.abs(gb)).max(axis=1))
    jump = np.abs(ga - gb).max(axis=1) / scale
    i = int(np.argmax(jump))

    # splice-point matching of second-order to first-order derivative
    # ratios, all through the quadrature route
    e = np.asarray([eps])
    lhs_n = eps * (quad_m(r, eps, e, 2) + quad_k(r, eps, e, 2))[0]
    lhs_d = eps * (quad_m(p, eps, e, 2) + quad_k(p, eps, e, 2))[0]
    rhs_n = quad_m(r, eps, e, 1)[0] - r * eps ** (r - 2.0)
    rhs_d = quad_m(p, eps, e, 1)[0] - p * eps ** (p - 2.0)
    ratio_res = abs(lhs_n / lhs_d - rhs_n / rhs_d) / max(1.0, abs(rhs_n / rhs_d))

    witness = {
        "x": [float(v) for v in above[i]],
        "jump": float(jump[i]),
        "splice_ratio_residual": float(ratio_res),
    }
    worst = max(float(jump[i]), ratio_res)
    return _report("c1_glue", _pdict(params), 2 * n + 1, worst, witness)


def check_inequality_oracle(params: Params, n_fns: int, cells: int, seed: int) -> VerifyReport:
    """Brute-force extremality: random step functions never beat the bound.

    Each function is normalized to unit oscillation scale; its first, second
    and p-th moments locate a point whose evaluated bound must dominate
    (or, in the convex regime, stay below) the measured r-th moment.  The
    functions are drawn a scan stack at a time and only their moments kept.
    """
    if params.regime is Regime.DEGENERATE:
        raise DomainError("oracle needs a non-degenerate exponent pair")
    p, r, eps = params.p, params.r, params.eps
    seeds = np.random.SeedSequence(seed).generate_state(int(n_fns), dtype=np.uint64)
    pts = np.empty((int(n_fns), 3))
    xr = np.empty(int(n_fns))
    chunk = testfn._SCAN_CHUNK
    for c in range(0, len(seeds), chunk):
        block = testfn.random_step_fns([int(s) for s in seeds[c : c + chunk]], cells, eps)
        for i, f in enumerate(block, start=c):
            pts[i] = (testfn.mean(f), testfn.second_moment(f), testfn.moments(f, p))
            xr[i] = testfn.moments(f, r)
    # snap float-rim cases onto the body; anything farther out means the
    # generator itself is broken and the run must not be trusted
    slack = 1e-9
    var = pts[:, 1] - pts[:, 0] ** 2
    if np.any(var > eps * eps * (1.0 + slack)) or np.any(var < -slack):
        raise RuntimeError("generated moments violate the strip constraint")
    pts[:, 1] = np.minimum(pts[:, 1], pts[:, 0] ** 2 + eps * eps)
    lo, hi = envelope_batch(params, np.abs(pts[:, 0]), pts[:, 1])
    sc = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    if np.any(pts[:, 2] < lo - slack * sc) or np.any(pts[:, 2] > hi + slack * sc):
        raise RuntimeError("generated moments violate the envelope constraint")
    pts[:, 2] = np.clip(pts[:, 2], lo, hi)
    bound = value_batch(params, pts)
    if params.regime is Regime.MAX:
        viol = xr - bound * (1.0 + 1e-6) - 1e-9
    else:
        viol = bound * (1.0 - 1e-6) - 1e-9 - xr
    i = int(np.argmax(viol))
    witness = {
        "seed": int(seeds[i]),
        "x": [float(v) for v in pts[i]],
        "bound": float(bound[i]),
        "moment_r": float(xr[i]),
    }
    return _report("inequality_oracle", _pdict(params), int(n_fns), viol[i], witness)


def check_attainment(params: Params, u_grid) -> VerifyReport:
    """The explicit extremal functions hit the bound on the upper rim.

    For each chord parameter the two logarithmic extremals realize the
    evaluated value exactly, and their p-th moments reproduce the closed
    third coordinates u^p + eps*m_p(u) and u^p - eps*k_p(u).
    """
    p, r, eps = params.p, params.r, params.eps
    worst, witness = -math.inf, None
    cases = 0
    for u in (float(v) for v in u_grid):
        for tag, f, x1, x3c in (
            ("plus", testfn.optimizer_uplus(eps, u), u + eps, u ** p + eps * float(m_fn(p, eps, u))),
            ("minus", testfn.optimizer_uminus(eps, u), u - eps, u ** p - eps * float(k_fn(p, eps, u))),
        ):
            mom_p = testfn.moments(f, p)
            mom_r = testfn.moments(f, r)
            got = value(params, (x1, x1 * x1 + eps * eps, mom_p))
            res_m = abs(mom_p - x3c) / max(1.0, abs(x3c))
            res_v = abs(got - mom_r) / max(1.0, abs(mom_r))
            cases += 2
            for label, res in (("p-moment", res_m), ("value", res_v)):
                if res > worst:
                    worst = res
                    witness = {"u": u, "side": tag, "check": label}
    return _report("attainment", _pdict(params), cases, worst, witness)


def sharp_constant(p: float, r: float) -> float:
    """Best constant in the multiplicative moment inequality."""
    if not (p >= 1.0 and r >= max(2.0, p) and r > p):
        raise DomainError(f"need p >= 1 and r >= max(2, p) with r > p, got ({p}, {r})")
    return (gamma_fn(r + 1.0) / gamma_fn(p + 1.0)) ** (1.0 / r)


def edge_ratio(params: Params, u):
    """Value-to-moment ratio along the top edge of the unit-scale slice.

    Parametrized by the chord value u in [0, 1]; strictly decreasing, with
    the sharp ratio at u = 0.
    """
    if params.eps != 1.0:
        raise DomainError("edge ratio is defined on the unit oscillation scale")
    u = np.asarray(u, dtype=float)
    p, r = params.p, params.r
    num = 2.0 * u ** r + (1.0 - u) * m_fn(r, 1.0, u)
    den = 2.0 * u ** p + (1.0 - u) * m_fn(p, 1.0, u)
    return num / den


# points per solve_u_batch call of the centred-slice scan, which bounds its memory
_SLICE_BLOCK = 1 << 12


def extract_constant(params: Params, grid_density: int):
    """Scan the centered slice for the largest value-to-moment ratio.

    Returns (c_observed, argmax) where c_observed is the r-th root of the
    best ratio.  Ties within a relative 1e-12 band resolve toward larger
    second and third coordinates, which pins the reported argmax to the
    far corner of the ridge the ratio is constant along.  The slice goes
    through solve_u_batch and leaf_value, _SLICE_BLOCK points at a time.
    """
    if params.regime is not Regime.MAX:
        raise DomainError("constant extraction runs in the concave regime")
    if params.eps != 1.0:
        raise DomainError("normalize the oscillation scale to 1 before scanning")
    n = int(grid_density)
    x2s = np.linspace(0.0, 1.0, n + 1)[1:]
    lines = max(1, _SLICE_BLOCK // n)
    best, arg = -math.inf, None
    for start in range(0, n, lines):
        x2 = x2s[start : start + lines]
        lo, hi = envelope_batch(params, np.zeros_like(x2), x2)
        x3 = np.linspace(lo, hi, n, axis=1)
        X = np.column_stack([np.zeros(x3.size), np.repeat(x2, n), x3.ravel()])
        ratios = (leaf_value(params, X, *solve_u_batch(params, X)) / X[:, 2]).reshape(x3.shape)
        for row, ratio, line in zip(x2, ratios, x3):
            m = float(ratio.max())
            ties = np.flatnonzero(ratio >= m - 1e-12 * abs(m))
            j = int(ties[-1])
            if m > best + 1e-12 * abs(m):
                best, arg = m, (0.0, float(row), float(line[j]))
            elif m >= best - 1e-12 * abs(best):
                best = max(best, m)
                arg = (0.0, float(row), float(line[j]))
    return best ** (1.0 / params.r), arg


def transference_metrics(psi, p: float, r: float, delta: float, levels: int = 6) -> dict:
    """Measured line-inequality quantities for a compactly supported model."""
    length = psi.length
    int_p = testfn.moments(psi, p) * length
    int_r = testfn.moments(psi, r) * length
    if not int_p > 0.0:
        raise DomainError("degenerate input: the function vanishes identically")
    # support: everything outside the unit interval must be flat zero
    stray = 0.0
    for piece in psi.pieces:
        if piece.b <= 0.0 or piece.a >= 1.0:
            v = abs(piece.v) if isinstance(piece, testfn.ConstPiece) else math.inf
            stray = max(stray, v)
    b = testfn.bmo_norm(psi, levels)
    ratio = int_r ** (1.0 / r) / (int_p ** (1.0 / r) * b ** (1.0 - p / r))
    return {
        "support_stray": stray,
        "integral_p": int_p,
        "integral_r": int_r,
        "bmo": b,
        "ratio": ratio,
    }


def transference_demo(
    p: float, r: float, delta: float, lam: float, depth: int | None, levels: int = 6
) -> VerifyReport:
    """The seam-glued rearrangement build_psi on the line, measured end to end.

    The function measured is not in BMO: opposite log tails meet at every
    copy seam, windows across two adjacent copies already read about
    sqrt(2), and the report fails; build_ladder is the near-extremizer
    that passes these checks.  Four violation-style residuals share one
    report: stray support mass, relative moment mismatch beyond 2%,
    oscillation norm above 1 + delta, and ratio shortfall below 95% of the
    sharp constant.  The grid oscillation norm is a lower bound that only
    grows under refinement, so a failure at any level count is conclusive.
    depth = None picks the smallest depth whose residual mass clears the
    builder's 1e-6 cap.
    """
    if depth is None:
        depth = math.ceil(math.log(1e-6) / math.log(lam))
    psi = testfn.build_psi(delta, lam, depth)
    met = transference_metrics(psi, p, r, delta, levels)
    target_p = gamma_fn(p + 1.0) / 2.0
    target_r = gamma_fn(r + 1.0) / 2.0
    viol = {
        "support": met["support_stray"],
        "moment_p": abs(met["integral_p"] - target_p) / target_p - 0.02,
        "moment_r": abs(met["integral_r"] - target_r) / target_r - 0.02,
        "bmo": met["bmo"] - (1.0 + delta),
        "ratio": 0.95 * sharp_constant(p, r) - met["ratio"],
    }
    worst_key = max(viol, key=lambda k: viol[k])
    witness = dict(met)
    witness["worst_check"] = worst_key
    witness["lambda"] = lam
    witness["depth"] = depth
    report_params = {"p": p, "r": r, "eps": 1.0}
    return _report("transference", report_params, len(viol), viol[worst_key], witness)


def run_suite(
    name: str,
    params: Params,
    *,
    seed: int = 7,
    samples: int = 1000,
    cells: int = 64,
    delta: float = 0.05,
    lam: float = 0.999,
    depth: int | None = None,
    levels: int = 6,
) -> list:
    """Run one named suite, or the full evaluator battery for "all".

    "all" covers the six evaluator suites; the transference demo builds a
    large piecewise model with its own parameter set and runs only when
    named explicitly.  Degenerate exponent pairs skip the two suites that
    need curvature.
    """
    eps = params.eps
    table = {
        "identities": lambda: check_identities(params, eps + np.linspace(0.0, 10.0, 41)),
        "skeleton": lambda: check_skeleton(params, np.linspace(-5.0, 5.0, 41)),
        "concavity": lambda: check_concavity(params, samples, seed),
        "c1": lambda: check_c1_glue(params, min(samples, 100)),
        "oracle": lambda: check_inequality_oracle(params, samples, cells, seed),
        "attainment": lambda: check_attainment(params, (eps, 1.5 * eps, 3.0 * eps)),
        "transference": lambda: transference_demo(
            params.p,
            params.r,
            delta,
            lam,
            depth,
            levels=levels,
        ),
    }
    if name == "all":
        names = ["identities", "skeleton", "concavity", "c1", "oracle", "attainment"]
        if params.regime is Regime.DEGENERATE:
            names = [n for n in names if n not in ("concavity", "oracle")]
        return [table[n]() for n in names]
    if name not in table:
        raise DomainError(f"unknown suite {name!r}")
    return [table[name]()]
