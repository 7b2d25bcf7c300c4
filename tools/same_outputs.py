"""Run every benchmark operation on a parent commit and on this checkout, and compare the outputs.

    python3 tools/same_outputs.py --parent REF

The parent REF is extracted with ``git archive`` into a temporary
directory, removed when the script ends, also on SIGTERM.  In each tree a
fresh process imports bmobell from that tree's src/ and the workloads from
its perfbench/, and for every workload and every seed in SEEDS runs each
operation of one round once, then the workload's ``evidence`` on those
outputs.  Two more records hold seminorm readings and absolute moments the
workloads do not take (``scan_readings`` and ``moment_readings``).  The
change side is this checkout's working tree.  The outputs of the two trees
are compared with perfbench/run.py's ``same``, exact equality of numbers,
strings and arrays, in the order the workloads run them, then reading by
reading.  The script prints the first workload, seed and operation, or the
first scan or moment reading, whose outputs differ and exits 1, or prints
how many records and readings agree and exits 0.  It reads perfbench/ and
writes nothing there.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import importlib.util
import os
import pickle
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(11, 21))

# the (n, h, depth) table of build_ladder's docstring
LADDERS = ((4, 0.05, 5), (4, 0.1, 5), (4, 0.2, 5), (4, 0.3, 5), (4, 0.5, 5), (3, 0.5, 6), (8, 0.3, 3))

# the exponents of the moment readings
EXPONENTS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.3)


def plain(x):
    """x with dataclasses, enums and object arrays spelled out, so a pickle of it loads without bmobell."""
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return (tuple if isinstance(x, tuple) else list)(plain(v) for v in x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return ("dataclass", type(x).__qualname__, plain(vars(x)))
    if isinstance(x, enum.Enum):
        return ("enum", type(x).__qualname__, x.name)
    if getattr(x, "dtype", None) == object:
        return ("array", x.shape, [plain(v) for v in x.ravel().tolist()])
    return x


def outcome(fn):
    """fn()'s result, or the exception it raised, as a record."""
    try:
        return fn()
    except Exception as exc:  # a raise is an output to compare like any other
        return ("raised", type(exc).__name__, str(exc))


def scan_readings(B) -> dict:
    """Seminorm readings by name: build_ladder's table at levels 6, 8 and 10 and
    one level deeper at levels 10, phi0 at levels 8 to 14, the two rim
    extremals at levels 12, criterion 08's 10^4 draws (seed 7, 64 cells), and
    the first 500 of those seeds drawn at 2, 7, 16 and 256 cells; 7 cells
    put the cell edges off the dyadic grid."""
    import numpy as np

    jobs = {}
    for n, h, d in LADDERS:
        for depth, levels in ((d, 6), (d, 8), (d, 10), (d + 1, 10)):
            jobs[f"bmo_norm(build_ladder({n}, {h}, {depth}), {levels})"] = (
                lambda n=n, h=h, depth=depth, levels=levels: B.bmo_norm(B.build_ladder(n, h, depth), levels))
    for levels in range(8, 15):
        jobs[f"bmo_norm(optimizer_phi0(), {levels})"] = lambda levels=levels: B.bmo_norm(B.optimizer_phi0(), levels)
    jobs["bmo_norm(optimizer_uplus(1, 0.5), 12)"] = lambda: B.bmo_norm(B.optimizer_uplus(1.0, 0.5), 12)
    jobs["bmo_norm(optimizer_uminus(1, 2.2), 12)"] = lambda: B.bmo_norm(B.optimizer_uminus(1.0, 2.2), 12)
    seeds = [int(s) for s in np.random.SeedSequence(7).generate_state(10_000, dtype=np.uint64)]
    jobs["random_step_values(criterion 08 seeds, 64, 1)"] = lambda: B.random_step_values(seeds, 64, 1.0)
    for cells in (2, 7, 16, 256):
        jobs[f"random_step_values(500 criterion 08 seeds, {cells}, 1)"] = (
            lambda cells=cells: B.random_step_values(seeds[:500], cells, 1.0))
    return {name: outcome(fn) for name, fn in jobs.items()}


def moment_readings(B) -> dict:
    """Absolute moments by name: build_ladder's table and (4, 0.1, 6), phi0 and
    the two rim extremals, each function built once and read at every exponent
    in EXPONENTS in turn."""
    makers = {f"build_ladder({n}, {h}, {d})": (lambda n=n, h=h, d=d: B.build_ladder(n, h, d))
              for n, h, d in LADDERS + ((4, 0.1, 6),)}
    makers["optimizer_phi0()"] = lambda: B.optimizer_phi0()
    makers["optimizer_uplus(1, 0.5)"] = lambda: B.optimizer_uplus(1.0, 0.5)
    makers["optimizer_uminus(1, 2.2)"] = lambda: B.optimizer_uminus(1.0, 2.2)
    out = {}
    for name, make in makers.items():
        f = outcome(make)
        for q in EXPONENTS:
            out[f"moments({name}, {q})"] = outcome(lambda: B.moments(f, q))
    return out


def collect(root: Path, out: Path):
    """Every workload's outputs and evidence at every seed, and the scan and moment readings, from root's trees, pickled into out."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import bmobell
    import bmobell.cli  # noqa: F401  (the scan workload drives the CLI)
    from workloads import WORKLOADS

    if Path(bmobell.__file__).resolve().parent != (root / "src" / "bmobell").resolve():
        raise SystemExit(f"bmobell imported from {bmobell.__file__}, not from {root / 'src'}")
    records = []
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            wl = workload(bmobell, seed, root)
            outs = {op.name: outcome(op.fn) for op in wl.ops()}
            outs["evidence"] = outcome(lambda: wl.evidence(outs))
            records.append((name, seed, plain(outs)))
    out.write_bytes(pickle.dumps({"records": records, "scans": plain(scan_readings(bmobell)),
                                  "moments": plain(moment_readings(bmobell))}))


def run_tree(root: Path, out: Path) -> dict:
    """collect in a fresh process for root, one BLAS thread as perfbench/run.py uses."""
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--collect", str(root), str(out)],
                   cwd=root, env=env, check=True)
    return pickle.loads(out.read_bytes())


def first_difference(parent: list, change: list, same):
    """(workload, seed, operation) of the first outputs that differ, or None."""
    for (name, seed, a), (name2, seed2, b) in zip(parent, change):
        if (name, seed) != (name2, seed2):
            return name, seed, f"(the change ran {name2} at seed {seed2} here)"
        for op in list(a) + [k for k in b if k not in a]:
            if op not in a or op not in b or not same(a[op], b[op]):
                return name, seed, op
    if len(parent) != len(change):
        return ("(record count)", None, f"{len(parent)} against {len(change)}")
    return None


def compare_trees(parent_root: Path, change_root: Path, tmp: Path) -> int:
    """Collect both trees and compare them with perfbench's same; 1 on a difference."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    parent = run_tree(parent_root, tmp / "parent.pickle")
    change = run_tree(change_root, tmp / "change.pickle")
    diff = first_difference(parent["records"], change["records"], run.same)
    if diff is not None:
        workload, seed, op = diff
        print(f"differs: workload {workload}, seed {seed}, operation {op}")
        return 1
    for key, what in (("scans", "scan"), ("moments", "moment")):
        a, b = parent[key], change[key]
        for name in list(a) + [k for k in b if k not in a]:
            if name not in a or name not in b or not run.same(a[name], b[name]):
                print(f"differs: {what} reading {name}")
                return 1
    print(f"same: {len(parent['records'])} records (workload, seed) of operations and evidence agree, "
          f"{len(parent['scans'])} scan readings and {len(parent['moments'])} moment readings")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="git ref of the parent commit")
    ap.add_argument("--collect", nargs=2, metavar=("ROOT", "OUT"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect:
        collect(Path(args.collect[0]), Path(args.collect[1]))
        return 0
    if not args.parent:
        ap.error("--parent is required")
    # imported here, so that the module loads without tools/ on sys.path
    from parent_tree import parent_tree

    with parent_tree(args.parent, "same_outputs_") as (tmp, parent_root):
        return compare_trees(parent_root, ROOT, tmp)


if __name__ == "__main__":
    raise SystemExit(main())
