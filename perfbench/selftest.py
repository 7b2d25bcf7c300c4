"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload for one short round, untraced and traced, through
   run.py, and requires exit code 0, a correct result with no failed
   operation, and exactly the metric names and units of BENCHMARK.json.
2. Runs one round of every workload in this process, requires every check
   to pass on the real evidence, then feeds each check a perturbed copy of
   that evidence and requires the check to fail, so that no check passes
   vacuously.

Exits 0 when everything holds and prints each failure otherwise.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def _oracle_witness(ev):
    f = next(f for f in ev["fns"] if f["witness_x"] is not None)
    f["witness_x"] = [f["witness_x"][0], f["witness_x"][1], f["witness_x"][2] * (1.0 + 1e-6)]


def _pair(ev, tag="(1,3)"):
    return ev["pairs"][tag]


def _bump_hessian(ev):
    h = _pair(ev)["hessian"]
    h[0] = h[0] + 1e-5 * np.eye(3)


def _scale_first(seq, factor):
    seq[0] = (seq[0][0] * factor,) + tuple(seq[0][1:])


def _shift_second(seq, i, delta):
    seq[i] = (seq[i][0], seq[i][1] + delta) + tuple(seq[i][2:])


def _scan_break_bound(ev):
    s = ev["scans"][0]  # (1, 3) on x1 = 0
    f = s["fields"][0]
    f[5] = repr(2.0 * s["sharp_r"] * float(f[2]))


def _scan_batch(ev):
    b = ev["scans"][0]["batch"]
    k = int(np.flatnonzero(~np.isnan(b))[0])
    b[k] *= 1.0 + 1e-12


def _line_metric(key, factor):
    def go(ev):
        ev["metrics"][0][2][key] *= factor
    return go


def _line_levels(ev):
    ev["levels"][1] = ev["levels"][0] - 1e-3


def _line_bars(ev):
    ev["bars"][0][2]["bmo"] = 1.06


PERTURB = {
    "oracle": {
        "margins_nonpositive": lambda ev: next(iter(ev["reports"].values())).update(worst=1e-3),
        "step_moments": lambda ev: ev["fns"][0].update(mean=ev["fns"][0]["mean"] + 1e-9),
        "witness_point": _oracle_witness,
        "grid_seminorm": lambda ev: ev["fns"][0].update(values=ev["fns"][0]["values"] * (1.0 + 1e-6)),
    },
    "surface": {
        "corner_value": lambda ev: _pair(ev).update(
            corner=(_pair(ev)["corner"][0] * (1.0 + 1e-6), _pair(ev)["corner"][1])
        ),
        "skeleton_values": lambda ev: _shift_second(_pair(ev)["skeleton"], 3, 1e-9),
        "hessian_sign": _bump_hessian,
        "gradient_fd": lambda ev: _pair(ev)["grad"].__setitem__((0, 1), _pair(ev)["grad"][0, 1] * 1.001),
        "eps_scaling": lambda ev: _scale_first(_pair(ev)["scaling"], 1.0 + 1e-6),
        "sharp_constant": lambda ev: _pair(ev).update(
            constant=(_pair(ev)["constant"][0] * 1.01,) + _pair(ev)["constant"][1:]
        ),
        "mpmath_leaves": lambda ev: _scale_first(ev["frozen"], 1.0 + 1e-9),
    },
    "scan": {
        "exit_codes": lambda ev: ev["codes"].__setitem__(0, 2),
        "row_shape": lambda ev: ev["scans"][0]["fields"][0].append("extra"),
        "batch_agreement": _scan_batch,
        "sharp_bound": _scan_break_bound,
        "byte_stable": lambda ev: ev.update(repeat=(ev["repeat"][0] + " ", ev["repeat"][1])),
    },
    "line": {
        "exact_integrals": _line_metric("integral_p", 1.0 + 1e-8),
        "distribution": lambda ev: _shift_second(ev["dist"], 0, 1e-9),
        "levels_monotone": _line_levels,
        "ratio_identity": _line_metric("ratio", 1.0 + 1e-8),
        "criterion11_bars": _line_bars,
        "phi0_reading": lambda ev: ev.update(phi0=1.01),
    },
}


def check_runs(spec, problems):
    """Every workload, untraced and traced, for one short round through run.py."""
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for wl in spec["workloads"]:
            cmd = [*spec["command"], "--workload", wl["name"], "--seed", str(SEED),
                   "--seconds", "0.01", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            tag = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append(f"{tag}: correct {res['correct']}, failed {res['failed']} of {res['attempted']}\n{proc.stderr}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
            bad = [k for k, v in res["metrics"].items() if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append(f"{tag}: non-numeric values {bad}")
            print(f"ran {tag}: {len(got)} metrics, {res['attempted']} operations", flush=True)


def check_perturbations(problems):
    """Each check passes on real evidence and fails on its perturbed copy."""
    import run

    B = run.import_package()
    from workloads import WORKLOADS

    for name, cls in WORKLOADS.items():
        wl = cls(B, SEED, ROOT)
        rounds = run.run_rounds(wl.ops(), 0.0)
        ev = wl.evidence(rounds[0].outs)
        base = wl.checks(ev)
        for check, (ok, detail) in base.items():
            if not ok:
                problems.append(f"{name}.{check} fails on real evidence: {detail}")
        if set(base) != set(PERTURB[name]):
            problems.append(f"{name}: checks {sorted(base)} but perturbations {sorted(PERTURB[name])}")
        for check, perturb in PERTURB[name].items():
            bad = copy.deepcopy(ev)
            perturb(bad)
            ok, detail = wl.checks(bad)[check]
            if ok:
                problems.append(f"{name}.{check} passes on perturbed evidence: {detail}")
        twin = copy.deepcopy(rounds[0])
        key = next(iter(twin.outs))
        twin.outs[key] = None
        if run.rounds_agree([rounds[0], twin])[0]:
            problems.append(f"{name}.rounds_agree passes on a differing round")
        print(f"perturbed {len(PERTURB[name]) + 1} checks of {name}", flush=True)


def main() -> int:
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    check_perturbations(problems)
    check_runs(spec, problems)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
