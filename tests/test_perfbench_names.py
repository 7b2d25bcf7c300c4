"""The bmobell names the benchmark harness calls and traces, read from its source.

perfbench looks each name up at run time, so a rename in the package would
only show when a traced run fails; these tests show it in the tier-1 run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import bmobell

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves_on_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for name in tracing.TARGETS:
        mod, attr = name.split(".")
        assert callable(getattr(importlib.import_module("bmobell." + mod), attr, None)), name


@pytest.mark.parametrize("script", ["workloads.py", "setup_probe.py"])
def test_every_package_name_a_workload_uses_exists(script):
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "B"
    }
    assert used
    assert sorted(name for name in used if not hasattr(bmobell, name)) == []
