"""Time the pair scan on a parent commit and on this checkout, in one process, in alternating rounds.

    python3 tools/scan_ab.py --parent REF [--rounds N]

The parent REF is extracted with ``git archive`` into a temporary
directory, removed when the script ends, also on SIGTERM.  The parent's
src/bmobell and this checkout's (its working tree) are loaded side by side
as the packages ``bmobell_parent`` and ``bmobell_change``.  Each round runs
every job once on each side, the side that goes first alternating from
round to round, so a drift of the machine's speed falls on both alike:

* line: the nine scans of the ``line`` workload, bmo_norm of build_ladder's
  table at levels 6, of build_ladder(4, 0.1, 6) at levels 10 and of phi0
  at levels 12, each on a function built afresh and outside the timing;
* oracle 48 and oracle 1024: random_step_values on 48 and on 1,024 of
  criterion 08's draws (seed 7, 64 cells, eps 1).

For each job it prints the two sides' median wall times, their ratio
(change over parent), the rounds the change was faster in, and whether
the two sides' outputs were the same bits in every round.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# the (n, h, depth) table of build_ladder's docstring
LADDERS = ((4, 0.05, 5), (4, 0.1, 5), (4, 0.2, 5), (4, 0.3, 5), (4, 0.5, 5), (3, 0.5, 6), (8, 0.3, 3))


def load(root: Path, name: str):
    """root's src/bmobell, imported as the package name."""
    pkg = root / "src" / "bmobell"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def jobs(B) -> dict:
    """Per job, a setup that builds the job's inputs, untimed, and returns the call to time."""
    def line():
        # bmo_norm keeps its reading on the function, so every round builds its own
        fns = [(B.build_ladder(n, h, d), 6) for n, h, d in LADDERS]
        fns += [(B.build_ladder(4, 0.1, 6), 10), (B.optimizer_phi0(), 12)]
        return lambda: [B.bmo_norm(f, levels) for f, levels in fns]

    def oracle(draws):
        seeds = [int(s) for s in np.random.SeedSequence(7).generate_state(draws, dtype=np.uint64)]

        def setup():
            return lambda: B.random_step_values(seeds, 64, 1.0)
        return setup

    return {"line": line, "oracle 48": oracle(48), "oracle 1024": oracle(1024)}


def timed(setup):
    """(wall time, output) of the call setup() returns."""
    call = setup()
    start = time.perf_counter()
    out = call()
    return time.perf_counter() - start, np.asarray(out, dtype=float)


def compare(parent_root: Path, change_root: Path, rounds: int) -> dict:
    """Per job: each side's times, the change's wins and whether every output was the same bits."""
    sides = {"parent": jobs(load(parent_root, "bmobell_parent")),
             "change": jobs(load(change_root, "bmobell_change"))}
    result = {name: {"parent": [], "change": [], "wins": 0, "same": True} for name in sides["parent"]}
    for k in range(rounds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for name, row in result.items():
            outs = {}
            for side in order:
                dt, outs[side] = timed(sides[side][name])
                row[side].append(dt)
            row["wins"] += row["change"][-1] < row["parent"][-1]
            a, b = outs["parent"], outs["change"]
            row["same"] &= a.shape == b.shape and a.tobytes() == b.tobytes()
    return result


def report(result: dict, rounds: int) -> str:
    lines = [f"{'job':12} {'parent ms':>10} {'change ms':>10} {'ratio':>6} {'wins':>7}  same bits"]
    for name, row in result.items():
        p, c = statistics.median(row["parent"]), statistics.median(row["change"])
        lines.append(f"{name:12} {1e3 * p:10.2f} {1e3 * c:10.2f} {c / p:6.3f} {row['wins']:3d}/{rounds:<3d}  "
                     f"{'yes' if row['same'] else 'NO'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--rounds", type=int, default=21, help="rounds of every job on each side (default 21)")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    # imported here, so that the module loads without tools/ on sys.path
    from parent_tree import parent_tree

    with parent_tree(args.parent, "scan_ab_") as (_, parent_root):
        result = compare(parent_root, ROOT, args.rounds)
    print(report(result, args.rounds))
    return 0 if all(row["same"] for row in result.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
