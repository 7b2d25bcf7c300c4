"""Run one bmobell benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a bmobell checkout; the package is imported from
./src, never from an installed copy.  Set-up time is the median of several
fresh processes that import bmobell and call each layer once.  The run then
repeats whole rounds of the workload's operations until S seconds have
passed, each round timed in units of a calibration loop run before,
between and after its operations, checks the outputs outside the timed region, and prints
{"correct", "attempted", "failed", "metrics"} as its last line: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  The traced run also writes its first round's spans to
.perfbench_out/ in the checkout.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# one BLAS thread for this process and its set-up probes; numpy is first
# imported after this, with bmobell
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


@dataclass
class Round:
    seconds: float
    calibration_s: float
    primary_s: float = 0.0
    primary_units: int = 0
    failed: int = 0
    outs: dict = field(default_factory=dict)
    layers: dict | None = None
    scan_rows: int = 0
    scan_solves: int = 0


def import_package():
    """Import bmobell from ./src of the checkout, or exit 2 when it is not there."""
    src = ROOT / "src"
    if not (src / "bmobell" / "__init__.py").is_file():
        print(f"error: no bmobell sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import bmobell
    import bmobell.cli  # noqa: F401

    if Path(bmobell.__file__).resolve().parent != (src / "bmobell").resolve():
        print(f"error: bmobell imported from {bmobell.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return bmobell


def measure_setup(repeats):
    """Median seconds of a fresh import plus one call into each layer."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def calibrate():
    """Seconds of a fixed loop of small numpy operations and Python integer arithmetic.

    The machine's speed drifts with the load of other tenants.  A round's
    time divided by the mean of this loop's times taken before, between
    and after its operations is a duration in units of the loop, which
    moves with the program and much less with the machine.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 4096)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(250):
        acc += float(np.sum(np.sqrt(a[i:]) * a[i:]))
    k = 0
    for i in range(75_000):
        k += i * i
    seconds = time.perf_counter() - t0
    if not (acc > 0.0 and k > 0):
        raise RuntimeError("calibration loop computed nothing")
    return seconds


def run_rounds(ops, seconds, tracer=None):
    """Whole rounds of ops until seconds have passed; at least one round.

    A round's time is the sum of its operations' times; the calibration
    loops between them are not counted in it.
    """
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        rnd = Round(seconds=0.0, calibration_s=0.0)
        calibrations = [calibrate()]
        if tracer is not None:
            tracer.record = not rounds
            tracer.begin_round()
        for op in ops:
            solves = tracer.calls["bellman.solve_leaf"] if tracer is not None else 0
            t0 = time.perf_counter()
            try:
                out = op.fn()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out, bad = None, True
            else:
                bad = op.ok is not None and not op.ok(out)
            dt = time.perf_counter() - t0
            calibrations.append(calibrate())
            rnd.seconds += dt
            rnd.outs[op.name] = out
            rnd.failed += bad
            if op.primary:
                rnd.primary_s += dt
                rnd.primary_units += op.units
            if op.kind == "scan" and tracer is not None:
                rnd.scan_rows += op.units
                rnd.scan_solves += tracer.calls["bellman.solve_leaf"] - solves
        rnd.calibration_s = statistics.fmean(calibrations)
        if tracer is not None:
            rnd.layers = tracer.end_round()
        rounds.append(rnd)
        if time.perf_counter() >= deadline:
            return rounds


def same(a, b) -> bool:
    """Exact equality of round outputs: numbers, strings, arrays, dicts, sequences, reports."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if hasattr(a, "__dataclass_fields__") and type(a) is type(b):
        return same(vars(a), vars(b))
    if hasattr(a, "shape") or hasattr(b, "shape"):
        import numpy as np

        return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def rounds_agree(rounds):
    ok = all(same(r.outs, rounds[0].outs) for r in rounds[1:])
    return (ok, f"{len(rounds)} rounds give identical outputs")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rounds):
    """Per-layer metrics: the median over rounds of each per-round figure."""
    names = list(rounds[0].layers["calls"])

    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    out = {}
    for name in names:
        out[f"{name}.calls"] = (med(lambda r: r.layers["calls"][name]), "count")
        out[f"{name}.points"] = (med(lambda r: r.layers["points"][name]), "count")
        out[f"{name}.self_s"] = (med(lambda r: r.layers["self_s"][name]), "s")

    def nested(r, child, anc):
        return r.layers["nested"][(child, anc)]

    out["testfn.bmo_norm.nodes"] = (
        med(lambda r: _ratio(r.layers["points"]["testfn.bmo_norm"], r.layers["calls"]["testfn.bmo_norm"])),
        "count/call",
    )
    out["testfn.bmo_norm.pairs"] = (
        med(lambda r: _ratio(r.layers["pairs"], r.layers["calls"]["testfn.bmo_norm"])), "count/call",
    )
    out["testfn.random_step_fn.repeat_share"] = (
        med(lambda r: _ratio(r.layers["step_fn_repeats"], r.layers["calls"]["testfn.random_step_fn"])),
        "share",
    )
    out["bellman.solve_leaf.transforms_per_call"] = (
        med(lambda r: _ratio(
            nested(r, "specfn.m_fn", "bellman.solve_leaf") + nested(r, "specfn.k_fn", "bellman.solve_leaf"),
            r.layers["calls"]["bellman.solve_leaf"],
        )),
        "count/call",
    )
    out["bellman.solve_u_batch.fallback_share"] = (
        med(lambda r: _ratio(
            nested(r, "bellman.solve_leaf", "bellman.solve_u_batch"), r.layers["points"]["bellman.solve_u_batch"]
        )),
        "count/point",
    )
    out["bellman.solve_u_batch.classify_per_point"] = (
        med(lambda r: _ratio(
            nested(r, "domain.classify", "bellman.solve_u_batch"), r.layers["points"]["bellman.solve_u_batch"]
        )),
        "count/point",
    )
    out["verify.transference_metrics.scans_per_call"] = (
        med(lambda r: _ratio(
            nested(r, "testfn.bmo_norm", "verify.transference_metrics"),
            r.layers["calls"]["verify.transference_metrics"],
        )),
        "count/call",
    )
    out["cli.scan.solve_leaf_per_row"] = (med(lambda r: _ratio(r.scan_solves, r.scan_rows)), "count/row")
    out["traced_wall_s"] = (med(lambda r: r.seconds), "s")
    out["traced_wall_cal"] = (med(lambda r: r.seconds / r.calibration_s), "cal")
    out["calibration_s"] = (med(lambda r: r.calibration_s), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    B = import_package()
    sys.path.insert(0, str(HERE))
    from setup_probe import touch_layers
    from tracing import Tracer, traced
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    setup_s = measure_setup(SETUP_REPEATS)
    touch_layers(B, sys.modules["bmobell.cli"])
    wl = WORKLOADS[args.workload](B, args.seed, ROOT)
    ops = wl.ops()
    if args.trace:
        tracer = Tracer()
        with traced(tracer):
            rounds = run_rounds(ops, args.seconds, tracer)
    else:
        rounds = run_rounds(ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = wl.checks(wl.evidence(rounds[0].outs))
    checks["rounds_agree"] = rounds_agree(rounds)
    for name, (ok, detail) in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}: {detail}", file=sys.stderr)

    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.csv")
        metrics = layer_metrics(rounds)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_cal": (statistics.median(r.seconds / r.calibration_s for r in rounds), "cal"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "items_per_cal": (
                statistics.median(r.primary_units * r.calibration_s / r.primary_s for r in rounds), "1/cal"
            ),
        }
    result = {
        "correct": all(ok for ok, _ in checks.values()),
        "attempted": len(ops) * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
