"""tools/scan_ab.py: the same tree reads the same bits, and a one-ulp difference is told apart."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "scan_ab.py"

# the calls the jobs make: a function is its arguments, and bmo_norm reads {bmo}
PACKAGE = """\
import math


def build_ladder(n, h, depth):
    return ("ladder", n, h, depth)


def optimizer_phi0():
    return ("phi0",)


def bmo_norm(f, levels):
    return {bmo}


def random_step_values(seeds, cells, eps):
    return [[eps * (s % 7) for s in seeds[:3]]] * cells
"""


@pytest.fixture(scope="module")
def scan_ab():
    spec = importlib.util.spec_from_file_location("scan_ab", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def fake_tree(root: Path, bmo: str) -> Path:
    (root / "src" / "bmobell").mkdir(parents=True)
    (root / "src" / "bmobell" / "__init__.py").write_text(PACKAGE.format(bmo=bmo))
    return root


def test_one_round_of_this_tree_against_itself_reads_the_same_bits(scan_ab):
    result = scan_ab.compare(ROOT, ROOT, 1)
    assert list(result) == ["line", "oracle 48", "oracle 1024"]
    for row in result.values():
        assert row["same"] and len(row["parent"]) == len(row["change"]) == 1
    assert all(line.endswith("  yes") for line in scan_ab.report(result, 1).splitlines()[1:])


def test_a_one_ulp_difference_is_named(scan_ab, tmp_path):
    # phi0 alone reads one ulp higher in the change
    flat = "0.5 + 0.01 * levels"
    a = fake_tree(tmp_path / "a", flat)
    b = fake_tree(tmp_path / "b", f"math.nextafter({flat}, 2.0) if f == ('phi0',) else {flat}")
    result = scan_ab.compare(a, b, 2)
    assert {name: row["same"] for name, row in result.items()} == {
        "line": False, "oracle 48": True, "oracle 1024": True}
    assert scan_ab.report(result, 2).splitlines()[1].endswith("  NO")
