"""Batch front-end: evaluate, scan, verify, and emit plot-ready data.

Output is deterministic for a fixed argument vector: numeric CSV fields
always print with 17 significant digits, verify reports print as one JSON
object per line.  Exit codes: 0 success / all passed, 1 verification
failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import testfn, verify
from .bellman import leaf_value, solve_u_batch
from .domain import Params, Regime, envelope_batch, leaf_regions, omega2_contains
from .errors import BmoBellError, DomainError


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _params(args) -> Params:
    return Params(args.p, args.r, args.eps)


def _leaves(params: Params, X: np.ndarray):
    """(u, value, region) of every row of X, from one batch leaf solve."""
    u, central, skel = solve_u_batch(params, X)
    return u, leaf_value(params, X, u, central, skel), leaf_regions(X[:, 0], central, skel)


def _cmd_eval(args) -> int:
    try:
        x = tuple(float(v) for v in args.x.split(","))
    except ValueError:
        print(f"error: --x expects three comma-separated numbers, got {args.x!r}", file=sys.stderr)
        return 2
    if len(x) != 3:
        print(f"error: --x expects three coordinates, got {len(x)}", file=sys.stderr)
        return 2
    _, got, region = _leaves(_params(args), np.array([x]))
    if args.format == "json":
        print(json.dumps({"x": list(x), "region": region[0].value, "value": float(got[0])}))
    else:
        print(_fmt(got[0]))
    return 0


def _cmd_constant(args) -> int:
    print(_fmt(verify.sharp_constant(args.p, args.r)))
    return 0


def _parse_grid(spec: str):
    # x2lo:x2hi:n,x3n
    rng, _, x3n = spec.partition(",")
    lo, hi, n = rng.split(":")
    counts = int(n), int(x3n if x3n else n)
    if min(counts) < 0:
        raise ValueError(f"negative count in {spec!r}")
    return float(lo), float(hi), *counts


def _cmd_scan(args) -> int:
    params = _params(args)
    try:
        x2lo, x2hi, n2, n3 = _parse_grid(args.grid)
    except ValueError:
        print(f"error: --grid expects x2lo:x2hi:n,x3n, got {args.grid!r}", file=sys.stderr)
        return 2
    x1 = args.x1
    if not np.isfinite([x1, x2lo, x2hi]).all():
        raise DomainError(f"scan needs a finite --x1 and grid ends, got --x1 {x1} and --grid {args.grid!r}")
    x2s = np.linspace(x2lo, x2hi, n2)
    inside = omega2_contains(params.eps, x1, x2s)
    # the in-strip rows take their envelopes from one call and their leaves
    # from one batch solve, n3 points per row in row order; each row gets its
    # own linspace, because one linspace over endpoint arrays differs in the
    # last bits and would change the printed x3
    lo, hi = envelope_batch(params, abs(x1), x2s[inside])
    x3 = np.array([np.linspace(a, b, n3) for a, b in zip(lo, hi)]).reshape(-1)
    X = np.column_stack([np.full(x3.size, x1), np.repeat(x2s[inside], n3), x3])
    if len(X):
        u, got, regions = _leaves(params, X)
    rows = ["x1,x2,x3,region,u,B"]
    k = 0
    for x2, ok in zip(x2s, inside):
        if not ok:
            rows.append(f"{_fmt(x1)},{_fmt(x2)},,Outside,,")
            continue
        for j in range(k, k + n3):
            rows.append(
                f"{_fmt(X[j, 0])},{_fmt(X[j, 1])},{_fmt(X[j, 2])},{regions[j].value},{_fmt(u[j])},{_fmt(got[j])}"
            )
        k += n3
    out = "\n".join(rows)
    if args.format == "json":
        header, *body = [r.split(",") for r in rows]
        print(json.dumps([dict(zip(header, b)) for b in body]))
    else:
        print(out)
    return 0


def _cmd_verify(args) -> int:
    params = _params(args)
    reports = verify.run_suite(
        args.suite,
        params,
        seed=args.seed,
        samples=args.samples,
        cells=args.cells,
        levels=args.levels,
    )
    for rep in reports:
        print(rep.to_json())
    return 0 if all(r.passed for r in reports) else 1


def _cmd_optimizer(args) -> int:
    if args.which in ("u+", "u-") and args.u is None:
        print("error: --u is required for the chord extremals", file=sys.stderr)
        return 2
    if args.which == "u+":
        f = testfn.optimizer_uplus(args.eps, args.u)
    elif args.which == "u-":
        f = testfn.optimizer_uminus(args.eps, args.u)
    else:
        f = testfn.optimizer_phi0()
    sys.stdout.write(testfn.to_csv(f))
    return 0


def _cmd_bmo(args) -> int:
    if args.fn is not None:
        with open(args.fn, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    f = testfn.from_csv(text)
    print(_fmt(testfn.bmo_norm(f, args.levels)))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was
    top = argparse.ArgumentParser(prog="bmobell")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=float, required=True)
        sp.add_argument("--r", type=float, required=True)
        sp.add_argument("--eps", type=float, default=1.0)

    sp = sub.add_parser("eval", help="evaluate the extremal bound at one point")
    common(sp)
    sp.add_argument("--x", required=True, help="comma-separated moment triple")
    sp.add_argument("--min", action="store_true", help="expect the convex-regime bound")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(handler=_cmd_eval)

    sp = sub.add_parser("scan", help="tabulate a fixed-x1 slice as CSV")
    common(sp)
    sp.add_argument("--x1", type=float, default=0.0)
    sp.add_argument("--grid", required=True, help="x2lo:x2hi:n,x3n")
    sp.add_argument("--min", action="store_true")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(handler=_cmd_scan)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp)
    sp.add_argument("--suite", default="all")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--cells", type=int, default=64)
    sp.add_argument("--levels", type=int, default=6)
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("constant", help="print the sharp constant from the closed formula")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--r", type=float, required=True)
    sp.set_defaults(handler=_cmd_constant)

    sp = sub.add_parser("optimizer", help="emit an extremal test function as piece CSV")
    sp.add_argument("--which", choices=("u+", "u-", "phi0"), default="phi0")
    sp.add_argument("--u", type=float, default=None)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.set_defaults(handler=_cmd_optimizer)

    sp = sub.add_parser("bmo", help="grid oscillation seminorm of a piece-CSV function")
    sp.add_argument("--fn", default=None, help="piece CSV path; standard input when omitted")
    sp.add_argument("--levels", type=int, default=12)
    sp.set_defaults(handler=_cmd_bmo)

    return top


def _check_regime(args) -> None:
    # --min asks for the convex-regime bound; make that explicit instead of
    # silently evaluating whatever the exponents imply
    if getattr(args, "min", False):
        params = Params(args.p, args.r, args.eps)
        if params.regime is not Regime.MIN:
            raise BmoBellError(
                f"--min given, but exponents ({args.p}, {args.r}) sit in the {params.regime.value} regime"
            )


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_regime(args)
        return args.handler(args)
    except BmoBellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
