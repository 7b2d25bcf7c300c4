"""tools/same_outputs.py: two trees whose outputs differ by one ulp are told apart."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"

# a package and a workload table small enough to run twice in a test; the
# workload reads bmobell.value at every seed, an array of it and its evidence
PACKAGE = """\
import math

def value(seed):
    return {body}
"""

WORKLOADS = """\
import numpy as np


class Op:
    def __init__(self, name, fn):
        self.name, self.fn = name, fn


class Tiny:
    def __init__(self, B, seed, root):
        self.B, self.seed = B, seed

    def ops(self):
        return [Op("value", lambda: self.B.value(self.seed)),
                Op("array", lambda: np.full(3, self.B.value(self.seed)))]

    def evidence(self, outs):
        return {"twice": 2.0 * outs["value"]}


WORKLOADS = {"tiny": Tiny}
"""


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# the calls behind the scan and moment readings: a function is its
# arguments, bmo_norm reads {bmo} and moments reads {moment}
SCANS = """

def build_ladder(n, h, depth):
    return ("ladder", n, h, depth)


def optimizer_phi0():
    return ("phi0",)


def optimizer_uplus(eps, u):
    return ("uplus", eps, u)


def optimizer_uminus(eps, u):
    return ("uminus", eps, u)


def bmo_norm(f, levels):
    return {bmo}


def moments(f, q):
    return {moment}


def random_step_values(seeds, cells, eps):
    return [[eps * (s % 7) for s in seeds[:3]]] * cells
"""


# the calls behind the leaf readings: a pair is its exponents, extract_constant
# reads {constant}, the envelope ends are x2 and 2 x2, and value_batch reads x3
LEAVES = """

def Params(p, r):
    return (p, r)


def extract_constant(params, density):
    return {constant}


def bellman2d(params, x1, x2, side):
    return x2 if side == "lower" else 2.0 * x2


def value_batch(params, rows):
    return [x3 for _, _, x3 in rows]
"""


def fake_tree(root: Path, body: str, bmo: str | None = None, moment: str = "0.25 * q",
              constant: str | None = None) -> Path:
    (root / "src" / "bmobell").mkdir(parents=True)
    package = PACKAGE.format(body=body) + ("" if bmo is None else SCANS.format(bmo=bmo, moment=moment))
    package += "" if constant is None else LEAVES.format(constant=constant)
    (root / "src" / "bmobell" / "__init__.py").write_text(package)
    (root / "src" / "bmobell" / "cli.py").write_text("")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(WORKLOADS)
    return root


def test_equal_trees_agree(same_outputs, tmp_path, capsys):
    a = fake_tree(tmp_path / "a", "0.1 * seed")
    b = fake_tree(tmp_path / "b", "0.1 * seed")
    assert same_outputs.compare_trees(a, b, tmp_path) == 0
    assert capsys.readouterr().out.startswith(f"same: {len(same_outputs.SEEDS)} records")


def test_a_one_ulp_difference_is_named(same_outputs, tmp_path, capsys):
    # seed 15 alone reads one ulp higher in the change
    a = fake_tree(tmp_path / "a", "0.1 * seed")
    b = fake_tree(tmp_path / "b", "0.1 * seed if seed != 15 else math.nextafter(0.1 * seed, 2.0)")
    assert same_outputs.compare_trees(a, b, tmp_path) == 1
    assert capsys.readouterr().out == "differs: workload tiny, seed 15, operation value\n"


def test_a_one_ulp_difference_in_a_scan_reading_is_named(same_outputs, tmp_path, capsys):
    # the workloads agree, and the ladder one level below (4, 0.2, 5) reads
    # one ulp higher at levels 10 in the change
    flat = "0.5 + 0.01 * levels"
    a = fake_tree(tmp_path / "a", "0.1 * seed", flat)
    b = fake_tree(tmp_path / "b", "0.1 * seed",
                  f"math.nextafter({flat}, 2.0) if (f, levels) == (('ladder', 4, 0.2, 6), 10) else {flat}")
    assert same_outputs.compare_trees(a, a, tmp_path) == 0
    assert capsys.readouterr().out.endswith(", 42 scan readings, 77 moment readings and 11 leaf readings\n")
    assert same_outputs.compare_trees(a, b, tmp_path) == 1
    assert capsys.readouterr().out == "differs: scan reading bmo_norm(build_ladder(4, 0.2, 6), 10)\n"


def test_a_one_ulp_difference_in_a_moment_reading_is_named(same_outputs, tmp_path, capsys):
    # the workloads and scans agree, and the rim extremal's moment at q = 2.5
    # reads one ulp higher in the change
    flat, moment = "0.5 + 0.01 * levels", "0.25 * q"
    a = fake_tree(tmp_path / "a", "0.1 * seed", flat)
    b = fake_tree(tmp_path / "b", "0.1 * seed", flat,
                  f"math.nextafter({moment}, 2.0) if (f, q) == (('uplus', 1.0, 0.5), 2.5) else {moment}")
    assert same_outputs.compare_trees(a, b, tmp_path) == 1
    assert capsys.readouterr().out == "differs: moment reading moments(optimizer_uplus(1, 0.5), 2.5)\n"


def test_a_one_ulp_difference_in_a_leaf_reading_is_named(same_outputs, tmp_path, capsys):
    # the workloads, scans and moments agree, and the constant at (10, 12)
    # reads one ulp higher in the change
    flat, constant = "0.5 + 0.01 * levels", "0.1 * params[0] + 0.01 * params[1]"
    a = fake_tree(tmp_path / "a", "0.1 * seed", flat, constant=constant)
    b = fake_tree(tmp_path / "b", "0.1 * seed", flat,
                  constant=f"math.nextafter({constant}, 2.0) if params == (10.0, 12.0) else {constant}")
    assert same_outputs.compare_trees(a, a, tmp_path) == 0
    assert capsys.readouterr().out.endswith(", 42 scan readings, 77 moment readings and 11 leaf readings\n")
    assert same_outputs.compare_trees(a, b, tmp_path) == 1
    assert capsys.readouterr().out == "differs: leaf reading extract_constant(Params(10, 12), 200)\n"


def test_the_first_differing_operation_is_named(same_outputs):
    # one ulp inside an array, then one in the evidence, under perfbench's same
    spec = importlib.util.spec_from_file_location("perfbench_run", TOOL.parent.parent / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    up = math.nextafter(2.0, 3.0)
    parent = [("tiny", 11, {"value": 1.0, "array": np.ones(3), "evidence": {"twice": 2.0}})]
    change = [("tiny", 11, {"value": 1.0, "array": np.array([1.0, math.nextafter(1.0, 2.0), 1.0]),
                            "evidence": {"twice": up}})]
    assert same_outputs.first_difference(parent, change, run.same) == ("tiny", 11, "array")
    change[0][2]["array"] = np.ones(3)
    assert same_outputs.first_difference(parent, change, run.same) == ("tiny", 11, "evidence")
    change[0][2]["evidence"] = {"twice": 2.0}
    assert same_outputs.first_difference(parent, change, run.same) is None
