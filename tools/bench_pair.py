"""Run the benchmark on a parent commit and on this checkout, in alternating pairs.

    python3 tools/bench_pair.py --parent REF --out BENCH_<n>.json

The parent REF is extracted with ``git archive`` into a temporary
directory, removed when the script ends, also on SIGTERM.  For every
workload of BENCHMARK.json and every seed in SEEDS, each side runs

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

with S the benchmark's ``run_seconds``, in its own root, one after the
other; the side that goes first alternates from seed to seed, so a drift
of the machine's speed falls on both sides alike.  The change side is this
checkout's working tree, untracked files included; the record names its
``src/`` by the git tree hash that a commit of that tree would carry, and
gives both sides' line counts of ``src/bmobell/*.py``, per file and in
total, under ``src_lines``.

The output file holds every run's result and, per workload, each side's
count of correct runs and of failed operations.  A pair counts towards the
summary only when both sides ran correct and the change failed no more
operations than the parent; the rest are counted as excluded.  Over the
counted pairs it gives each side's median and quartiles per end-to-end
metric of BENCHMARK.json and the number of pairs the change won on each
metric (by that metric's better direction).  An environment block gives
the CPU count, Python, numpy and scipy versions.  Quartiles are the
inclusive ones of ``statistics.quantiles``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(11, 21))


def git(*args, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True, env=env
    ).stdout.strip()


def working_src_tree(tmp: Path) -> str:
    """Tree hash of the working src/, untracked files included, through a scratch index."""
    env = {**os.environ, "GIT_INDEX_FILE": str(tmp / "index")}
    git("add", "--all", "src", env=env)
    return git("write-tree", "--prefix=src/", env=env)


def src_lines(root: Path) -> dict:
    """Newline counts, as wc -l gives them, of root's src/bmobell/*.py, per file and in total."""
    files = {p.name: p.read_bytes().count(b"\n") for p in sorted((root / "src" / "bmobell").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in root; its result line, or the failure it ended with."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"returncode": proc.returncode, "stderr_tail": proc.stderr[-2000:]}
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        # a run whose last line is no result object is not correct
        return {"returncode": 0, "last_line": lines[-1][-2000:], "stderr_tail": proc.stderr[-2000:]}
    result["returncode"] = 0
    result["checks_failed"] = [
        ln for ln in proc.stderr.splitlines() if ln.startswith("check ") and ": FAILED:" in ln
    ]
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def counted(row) -> bool:
    """A pair counts when both sides ran correct and the change failed no more operations."""
    par, chg = row["parent"], row["change"]
    return par.get("correct") is True and chg.get("correct") is True and chg["failed"] <= par["failed"]


def summarize(runs, metrics):
    """Run tallies per side, then median, quartiles and wins per metric over the counted pairs."""
    ok = [r for r in runs if counted(r)]
    out = {
        "correct_runs": {side: sum(r[side].get("correct") is True for r in runs) for side in ("parent", "change")},
        "failed_ops": {side: sum(r[side].get("failed", 0) for r in runs) for side in ("parent", "change")},
        "pairs": len(ok),
        "pairs_excluded": len(runs) - len(ok),
        "metrics": {},
    }
    if len(ok) < 2:
        return out
    for name, better in metrics.items():
        par = [r["parent"]["metrics"][name]["value"] for r in ok]
        chg = [r["change"]["metrics"][name]["value"] for r in ok]
        sign = 1.0 if better == "higher" else -1.0
        p, c = spread(par), spread(chg)
        out["metrics"][name] = {
            "better": better,
            "parent": p,
            "change": c,
            "relative_change": c["median"] / p["median"] - 1.0 if p["median"] else None,
            "wins": sum(sign * (y - x) > 0.0 for x, y in zip(par, chg)),
        }
    return out


def environment():
    env = {"cpu_count": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine()}
    for mod in ("numpy", "scipy"):
        probe = subprocess.run(
            [sys.executable, "-c", f"import {mod}; print({mod}.__version__)"],
            capture_output=True, text=True,
        )
        env[mod] = probe.stdout.strip() or None
    return env


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--out", type=Path, required=True, help="the JSON record to write")
    args = ap.parse_args(argv)
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = float(spec["run_seconds"])
    # imported here, so that the module loads without tools/ on sys.path
    from parent_tree import parent_tree

    parent = git("rev-parse", args.parent)
    with parent_tree(parent, "bench_pair_") as (tmp, parent_root):
        report = {
            "parent": parent,
            # content hashes of the measured sources, stable across commits
            "parent_src_tree": git("rev-parse", f"{args.parent}:src"),
            "change_src_tree": working_src_tree(tmp),
            "src_lines": {"parent": src_lines(parent_root), "change": src_lines(ROOT)},
            "command": f"python3 perfbench/run.py --workload W --seed N --seconds {spec['run_seconds']} --trace 0",
            "seeds": list(SEEDS),
            "environment": environment(),
            "workloads": {},
        }
        for wl in (w["name"] for w in spec["workloads"]):
            runs = []
            for i, seed in enumerate(SEEDS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                row = {"seed": seed, "first": order[0]}
                for side in order:
                    root = parent_root if side == "parent" else ROOT
                    row[side] = run_side(root, wl, seed, seconds)
                runs.append(row)
                print(f"{wl} seed {seed}: done", file=sys.stderr)
            report["workloads"][wl] = {"runs": runs, **summarize(runs, metrics)}
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
