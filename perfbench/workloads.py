"""The four benchmark workloads: inputs made from a seed, the timed job, and its checks.

A workload lists its operations (``ops``), each one call, or a few tied
calls, into the public API of bmobell.  A round runs every operation once,
in order, on the same inputs.  After the timed rounds, ``evidence`` makes
the extra program calls that the checks need, and ``checks`` judges that
evidence with plain numpy and math only, so a perturbed evidence dict can
be fed to it to show that every check can fail.  Reference values come
from closed forms, from properties the method must have, from pair scans
written here, or from the mpmath tables in tests/_frozen.py, never from a
saved copy of the program's output.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import runpy
from dataclasses import dataclass
from typing import Callable

import numpy as np

# criterion 11's exponent pairs, and the (n, h, depth) table of build_ladder's docstring
PAIR_SET = ((1.0, 3.0), (1.0, 2.5), (2.5, 4.0), (1.5, 3.0))
LADDER_TABLE = (
    (4, 0.05, 5), (4, 0.1, 5), (4, 0.2, 5), (4, 0.3, 5), (4, 0.5, 5), (3, 0.5, 6), (8, 0.3, 3),
)


@dataclass
class Op:
    """One operation of a round.

    units counts the items of work the operation does toward items_per_cal,
    and primary says whether its time enters that rate.  ok judges the
    output; an operation that raises or whose output fails ok is failed.
    """

    name: str
    fn: Callable
    units: int
    primary: bool
    kind: str = ""
    ok: Callable | None = None


def call(B, name, *args):
    """B.name(*args), looked up at call time so that a traced run calls the wrapper."""
    return getattr(B, name)(*args)


def sharp(p, r):
    return (math.gamma(r + 1.0) / math.gamma(p + 1.0)) ** (1.0 / r)


def interior_points(B, params, n, rng, margin=0.05):
    """n moment triples strictly inside the body, |x1| <= 2.5 eps, with a relative margin."""
    eps = params.eps
    x1 = rng.uniform(-2.5 * eps, 2.5 * eps, n)
    x2 = x1 * x1 + eps * eps * rng.uniform(margin, 1.0 - margin, n)
    lo = np.array([B.bellman2d(params, a, b, "lower") for a, b in zip(x1, x2)])
    hi = np.array([B.bellman2d(params, a, b, "upper") for a, b in zip(x1, x2)])
    x3 = lo + (hi - lo) * rng.uniform(margin, 1.0 - margin, n)
    return np.column_stack([x1, x2, x3])


def rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), initial=0.0))


def grid_seminorm(values, levels):
    """Oscillation seminorm of a step function on [0, 1) with equal cells,
    over all windows between nodes of the 2^levels dyadic grid.

    The cell count must divide 2^levels, so every cell edge is a node and
    the prefix integrals at nodes are exact sums.
    """
    n = 2 ** levels
    v = np.repeat(np.asarray(values, dtype=float), n // len(values))
    s1 = np.concatenate([[0.0], np.cumsum(v)]) / n
    s2 = np.concatenate([[0.0], np.cumsum(v * v)]) / n
    i, j = np.triu_indices(n + 1, 1)
    w = (j - i) / n
    mu = (s1[j] - s1[i]) / w
    return math.sqrt(max(float(np.max((s2[j] - s2[i]) / w - mu * mu)), 0.0))


def check(ok, detail):
    return (bool(ok), detail)


class Oracle:
    """Criterion 08's brute-force check at (1, 3) and (4, 3), 64 cells."""

    pairs = ((1.0, 3.0), (4.0, 3.0))
    n_fns = 48
    cells = 64
    sample = 6

    def __init__(self, B, seed, root):
        self.B, self.seed = B, seed

    def ops(self):
        return [
            Op(f"oracle({p:g},{r:g})", functools.partial(self._oracle, p, r), self.n_fns, True)
            for p, r in self.pairs
        ]

    def _oracle(self, p, r):
        B = self.B
        return B.check_inequality_oracle(B.Params(p, r), self.n_fns, self.cells, self.seed)

    def evidence(self, outs):
        B = self.B
        seeds = np.random.SeedSequence(self.seed).generate_state(self.n_fns, dtype=np.uint64)
        reports, fns = {}, []
        for (p, r), op in zip(self.pairs, self.ops()):
            rep = outs[op.name]
            reports[op.name] = {"worst": rep.worst_residual, "passed": rep.passed, "cases": rep.cases}
            picks = [int(s) for s in seeds[: self.sample]] + [rep.witness["seed"]]
            for k, s in enumerate(picks):
                f = B.random_step_fn(s, self.cells, 1.0)
                fns.append({
                    "p": p,
                    "values": np.array([pc.v for pc in f.pieces]),
                    "mean": B.mean(f),
                    "second": B.second_moment(f),
                    "moments": {q: B.moments(f, q) for q in sorted({1.0, p, r})},
                    "witness_x": rep.witness["x"] if k == len(picks) - 1 else None,
                })
        return {"reports": reports, "fns": fns}

    @staticmethod
    def checks(ev):
        worst = max(r["worst"] for r in ev["reports"].values())
        margins = all(r["passed"] and r["worst"] <= 0.0 for r in ev["reports"].values())
        mom_err, wit_err, grid_err = 0.0, 0.0, 0.0
        for f in ev["fns"]:
            v = f["values"]
            mom_err = max(mom_err, rel_err(f["mean"], v.mean()), rel_err(f["second"], np.mean(v * v)))
            for q, got in f["moments"].items():
                mom_err = max(mom_err, rel_err(got, np.mean(np.abs(v) ** q)))
            if f["witness_x"] is not None:
                want = (v.mean(), np.mean(v * v), np.mean(np.abs(v) ** f["p"]))
                wit_err = max(wit_err, rel_err(f["witness_x"], want))
            grid_err = max(grid_err, abs(grid_seminorm(v, 9) - 1.0))
        return {
            "margins_nonpositive": check(margins, f"worst margin {worst:.3e}"),
            "step_moments": check(mom_err <= 1e-12, f"moments against numpy, rel {mom_err:.1e}"),
            "witness_point": check(wit_err <= 1e-9, f"witness moments against numpy, rel {wit_err:.1e}"),
            "grid_seminorm": check(grid_err <= 1e-9, f"own 2^9 pair scan |bmo - 1| {grid_err:.1e}"),
        }


class Surface:
    """The batch Bellman API on interior samples, plus the centred-slice constant."""

    pairs = ((1.0, 3.0), (2.5, 4.0), (1.5, 3.0), (4.0, 3.0))
    n_pts = 250
    density = 64
    n_fd = 16
    n_scale = 50

    def __init__(self, B, seed, root):
        self.B = B
        self.frozen = root / "tests" / "_frozen.py"
        rng = np.random.default_rng(seed)
        self.params = {pr: B.Params(*pr) for pr in self.pairs}
        self.pts = {pr: interior_points(B, self.params[pr], self.n_pts, rng) for pr in self.pairs}

    def ops(self):
        B, out = self.B, []
        for pr in self.pairs:
            pa, X, tag = self.params[pr], self.pts[pr], f"({pr[0]:g},{pr[1]:g})"
            for label in ("value_batch", "gradient_batch", "hessian_leaf_batch"):
                out.append(Op(f"{label}{tag}", functools.partial(call, B, label, pa, X), len(X), True))
            if pa.regime is B.Regime.MAX:
                fn = functools.partial(call, B, "extract_constant", pa, self.density)
                out.append(Op(f"extract_constant{tag}", fn, self.density ** 2, False))
        return out

    def evidence(self, outs):
        B = self.B
        frozen = runpy.run_path(str(self.frozen))["LEAF_TABLE"]
        ev = {"pairs": {}, "frozen": []}
        for pr in self.pairs:
            pa, X, tag = self.params[pr], self.pts[pr], f"({pr[0]:g},{pr[1]:g})"
            p, r = pr
            e = {"max": pa.regime is B.Regime.MAX, "r": r}
            e["corner"] = (
                float(B.value_batch(pa, [[0.0, 1.0, math.gamma(p + 1.0) / 2.0]])[0]),
                math.gamma(r + 1.0) / 2.0,
            )
            ts = np.linspace(-3.0, 3.0, 13)
            e["skeleton"] = [(t, B.value(pa, (t, t * t, abs(t) ** p))) for t in ts]
            e["hessian"] = outs[f"hessian_leaf_batch{tag}"]
            # central divided differences of value_batch against gradient_batch
            sub = X[: self.n_fd]
            steps = 1e-5 * np.maximum(1.0, np.abs(sub))
            dd = np.empty_like(sub)
            for j in range(3):
                d = np.zeros_like(sub)
                d[:, j] = steps[:, j]
                dd[:, j] = (B.value_batch(pa, sub + d) - B.value_batch(pa, sub - d)) / (2.0 * steps[:, j])
            e["grad"], e["dd"] = outs[f"gradient_batch{tag}"][: self.n_fd], dd
            # B_eps(eps x1, eps^2 x2, eps^p x3) = eps^r B_1(x)
            sub = X[: self.n_scale]
            base = outs[f"value_batch{tag}"][: self.n_scale]
            e["scaling"] = [
                (
                    B.value_batch(B.Params(p, r, eps), sub * np.array([eps, eps ** 2, eps ** p])),
                    eps ** r * base,
                )
                for eps in (0.5, 2.0)
            ]
            if e["max"]:
                c, arg = outs[f"extract_constant{tag}"]
                e["constant"] = (c, r, math.gamma(r + 1.0) / math.gamma(p + 1.0))
            ev["pairs"][tag] = e
            for (fp, fr, feps), x, _family, _u, b_ref in frozen:
                if (fp, fr) == pr and feps == 1:
                    ev["frozen"].append((float(B.value_batch(pa, [x])[0]), B.value(pa, x), b_ref))
        return ev

    @staticmethod
    def checks(ev):
        corner = skel = eig = fd = scale = const = 0.0
        for e in ev["pairs"].values():
            corner = max(corner, rel_err(*e["corner"]))
            skel = max(skel, max(rel_err(got, abs(t) ** e["r"]) for t, got in e["skeleton"]))
            eigs = np.linalg.eigvalsh(e["hessian"])
            eig = max(eig, float(eigs[:, 2].max()) if e["max"] else float(-eigs[:, 0].min()))
            fd = max(fd, rel_err(e["dd"], e["grad"]))
            for got, want in e["scaling"]:
                scale = max(scale, rel_err(got, want))
            if e["max"]:
                c, r, want = e["constant"]
                const = max(const, abs(c ** r - want) / want)
        frozen = max((max(rel_err(b, ref), rel_err(s, ref)) for b, s, ref in ev["frozen"]), default=math.inf)
        return {
            "corner_value": check(corner <= 1e-8, f"B(0, 1, Gamma(p+1)/2) against Gamma(r+1)/2, rel {corner:.1e}"),
            "skeleton_values": check(skel <= 1e-12, f"B(t, t^2, |t|^p) against |t|^r, rel {skel:.1e}"),
            "hessian_sign": check(eig <= 1e-6, f"worst wrong-sign eigenvalue {eig:.1e}"),
            "gradient_fd": check(fd <= 1e-6, f"gradient against divided differences, rel {fd:.1e}"),
            "eps_scaling": check(scale <= 1e-8, f"eps-scaling identity, rel {scale:.1e}"),
            "sharp_constant": check(const <= 1e-3, f"slice constant C^r, rel {const:.1e}"),
            "mpmath_leaves": check(frozen <= 1e-12, f"{len(ev['frozen'])} mpmath leaf values, rel {frozen:.1e}"),
        }


class Scan:
    """The CLI in-process: scans of a central and an off-centre slice, and eval."""

    pairs = ((1.0, 3.0), (4.0, 3.0))
    n2 = n3 = 10
    n_eval = 6

    def __init__(self, B, seed, root):
        import bmobell.cli

        self.B, self.cli = B, bmobell.cli
        rng = np.random.default_rng(seed)
        self.argvs = []  # (name, argv, kind, rows, pair, x1)
        for p, r in self.pairs:
            pa = B.Params(p, r)
            flags = ["--min"] if pa.regime is B.Regime.MIN else []
            common = ["--p", repr(p), "--r", repr(r)]
            # the central slice ends on x2 = 1, where its ratio B / x3 peaks at C^r;
            # the x1 = 0.7 slice starts on the skeleton and reaches XiPlus
            x2lo = 0.3 + 0.2 * rng.uniform()
            x2hi = 1.29 + 0.2 * rng.uniform()
            for x1, grid in ((0.0, f"{x2lo!r}:1.0:{self.n2},{self.n3}"), (0.7, f"0.49:{x2hi!r}:{self.n2},{self.n3}")):
                argv = ["scan", *common, "--x1", repr(x1), "--grid", grid, *flags]
                self.argvs.append((f"scan({p:g},{r:g},x1={x1:g})", argv, "scan", self.n2 * self.n3, (p, r), x1))
            for k, x in enumerate(interior_points(B, pa, self.n_eval, rng)):
                argv = ["eval", *common, "--x=" + ",".join(repr(float(v)) for v in x), *flags]
                self.argvs.append((f"eval({p:g},{r:g})#{k}", argv, "eval", 1, (p, r), x))

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.run(argv)
        return code, out.getvalue()

    def ops(self):
        return [
            Op(name, functools.partial(self._run, argv), rows, kind == "scan", kind, lambda o: o[0] == 0)
            for name, argv, kind, rows, _pr, _x in self.argvs
        ]

    def evidence(self, outs):
        B = self.B
        ev = {"codes": [], "scans": [], "evals": []}
        for name, argv, kind, rows, pr, x in self.argvs:
            code, text = outs[name]
            ev["codes"].append(code)
            pa = B.Params(*pr)
            if kind == "eval":
                ev["evals"].append((text, float(B.value_batch(pa, [x])[0])))
                continue
            lines = text.splitlines()
            fields = [ln.split(",") for ln in lines[1:]]
            pts = np.array([[float(v) for v in f[:3]] for f in fields])
            batch = np.full(len(pts), np.nan)
            inner = np.array([f[3] != "Skeleton" for f in fields])
            batch[inner] = B.value_batch(pa, pts[inner])
            ev["scans"].append({
                "pair": pr, "x1": x, "rows": rows, "header": lines[0], "fields": fields,
                "batch": batch, "sharp_r": sharp(*pr) ** pr[1], "max": pa.regime is B.Regime.MAX,
            })
        first = self.argvs[0]
        code, text = self._run(first[1])
        ev["codes"].append(code)
        ev["repeat"] = (text, outs[first[0]][1])
        return ev

    @staticmethod
    def checks(ev):
        shape_ok, batch_err, bound_ok, peak_err = True, 0.0, True, 0.0
        for s in ev["scans"]:
            shape_ok &= s["header"] == "x1,x2,x3,region,u,B" and len(s["fields"]) == s["rows"]
            shape_ok &= all(len(f) == 6 for f in s["fields"])
            vals = np.array([float(f[5]) for f in s["fields"]])
            x1 = np.array([float(f[0]) for f in s["fields"]])
            x3 = np.array([float(f[2]) for f in s["fields"]])
            skel = np.isnan(s["batch"])
            batch_err = max(batch_err, rel_err(vals[~skel], s["batch"][~skel]))
            batch_err = max(batch_err, rel_err(vals[skel], np.abs(x1[skel]) ** s["pair"][1]))
            if s["max"]:
                bound_ok &= bool(np.all(vals <= s["sharp_r"] * x3 * (1.0 + 1e-12)))
                if s["x1"] == 0.0:
                    live = x3 > 0.0
                    peak_err = max(peak_err, abs(np.max(vals[live] / x3[live]) / s["sharp_r"] - 1.0))
        for text, want in ev["evals"]:
            batch_err = max(batch_err, rel_err(float(text), want))
        return {
            "exit_codes": check(all(c == 0 for c in ev["codes"]), f"exit codes {sorted(set(ev['codes']))}"),
            "row_shape": check(shape_ok, "header and six fields on every row"),
            "batch_agreement": check(batch_err <= 5e-14, f"B against value_batch and |x1|^r, rel {batch_err:.1e}"),
            "sharp_bound": check(bound_ok and peak_err <= 1e-3, f"B <= C^r x3; central peak off C^r by {peak_err:.1e}"),
            "byte_stable": check(ev["repeat"][0] == ev["repeat"][1], "repeated argv gives identical stdout"),
        }


class Line:
    """Transference checks on the exponential ladders of build_ladder's table.

    Every table ladder is measured for every PAIR_SET pair at levels 6; one
    more ladder, (4, 0.1) laid out to depth 6, gets the one large scan, at
    levels 10, for (1, 3) only, because that scan alone costs about a
    third of the round.
    """

    def __init__(self, B, seed, root):
        self.B = B
        rng = np.random.default_rng(seed)

        # each step h is moved by up to 2% so that no seed measures the exact table
        def jitter(h):
            return h * (1.0 + 0.02 * (2.0 * rng.uniform() - 1.0))

        # (n, h, depth, levels, pairs) per operation
        self.jobs = [(n, jitter(h), d, 6, PAIR_SET) for n, h, d in LADDER_TABLE]
        self.jobs.append((4, jitter(0.1), 6, 10, ((1.0, 3.0),)))

    def _ladder(self, n, h, depth, levels, pairs):
        B = self.B
        psi = B.build_ladder(n, h, depth)
        return [B.transference_metrics(psi, p, r, 0.05, levels) for p, r in pairs]

    def _phi0(self, levels):
        return self.B.bmo_norm(self.B.optimizer_phi0(), levels)

    def ops(self):
        out = [
            Op(f"ladder({n},{h:.5f},{d})@{lv}", functools.partial(self._ladder, n, h, d, lv, prs), len(prs), True)
            for n, h, d, lv, prs in self.jobs
        ]
        out.append(Op("phi0@12", functools.partial(self._phi0, 12), 0, False))
        return out

    def evidence(self, outs):
        B = self.B
        ev = {"metrics": [], "dist": []}
        for (n, h, d, _lv, pairs), op in zip(self.jobs, self.ops()):
            ev["metrics"] += [(p, r, m) for (p, r), m in zip(pairs, outs[op.name])]
            psi = B.build_ladder(n, h, d)
            ev["dist"] += [(c, B.distribution(psi, c)) for c in (0.5, 2.0)]
        n, h, d = self.jobs[-2][:3]
        psi = B.build_ladder(n, h, d)
        ev["levels"] = [B.bmo_norm(psi, lv) for lv in (6, 7, 8)]
        psi = B.build_ladder(4, 0.1, 5)
        ev["bars"] = [(p, r, B.transference_metrics(psi, p, r, 0.05, 6)) for p, r in PAIR_SET]
        ev["phi0"] = outs["phi0@12"]
        return ev

    @staticmethod
    def checks(ev):
        integ = ratio = 0.0
        for p, r, m in ev["metrics"] + ev["bars"]:
            integ = max(integ, rel_err(m["integral_p"], math.gamma(p + 1.0) / 2.0))
            integ = max(integ, rel_err(m["integral_r"], math.gamma(r + 1.0) / 2.0))
            ratio = max(ratio, rel_err(m["ratio"], sharp(p, r) * m["bmo"] ** (p / r - 1.0)))
        dist = max(abs(got - math.exp(-c) / 2.0) for c, got in ev["dist"])
        lv = ev["levels"]
        bars = all(
            m["support_stray"] == 0.0
            and abs(m["integral_p"] / (math.gamma(p + 1.0) / 2.0) - 1.0) <= 0.02
            and abs(m["integral_r"] / (math.gamma(r + 1.0) / 2.0) - 1.0) <= 0.02
            and m["bmo"] <= 1.05
            and m["ratio"] >= 0.95 * sharp(p, r)
            for p, r, m in ev["bars"]
        )
        return {
            "exact_integrals": check(integ <= 1e-10, f"integrals against Gamma(q+1)/2, rel {integ:.1e}"),
            "distribution": check(dist <= 1e-12, f"|{{psi > c}}| against e^-c/2, abs {dist:.1e}"),
            "levels_monotone": check(all(a <= b for a, b in zip(lv, lv[1:])), f"readings {lv}"),
            "ratio_identity": check(ratio <= 1e-10, f"ratio against C bmo^(p/r-1), rel {ratio:.1e}"),
            "criterion11_bars": check(bars, "build_ladder(4, 0.1, 5) meets criterion 11 for every pair"),
            "phi0_reading": check(abs(ev["phi0"] - 1.0) <= 5e-3, f"phi0 at levels 12 reads {ev['phi0']:.6f}"),
        }


WORKLOADS = {"oracle": Oracle, "surface": Surface, "scan": Scan, "line": Line}
