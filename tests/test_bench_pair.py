"""tools/bench_pair.py: how one benchmark run's output is read."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def fake_root(tmp_path, script: str) -> Path:
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(script)
    return tmp_path


@pytest.mark.parametrize("last", ["run ended early", "[1, 2]"])
def test_a_run_without_a_result_line_is_not_correct(bench_pair, tmp_path, last):
    # one such run must not end the whole pair run with a JSONDecodeError
    root = fake_root(tmp_path, f'print(\'{{"correct": true, "failed": 0}}\')\nprint({last!r})\n')
    got = bench_pair.run_side(root, "oracle", 11, 1.0)
    assert got["returncode"] == 0 and got["last_line"] == last and "correct" not in got
    assert not bench_pair.counted({"parent": got, "change": got})
    assert bench_pair.summarize([{"parent": got, "change": got}], [])["correct_runs"] == {"parent": 0, "change": 0}


def test_a_result_line_is_read(bench_pair, tmp_path):
    root = fake_root(tmp_path, 'print("warming up")\nprint(\'{"correct": true, "failed": 0}\')\n')
    got = bench_pair.run_side(root, "oracle", 11, 1.0)
    assert got == {"correct": True, "failed": 0, "returncode": 0, "checks_failed": []}


def test_src_lines_counts_each_module_and_the_total(bench_pair, tmp_path):
    pkg = tmp_path / "src" / "bmobell"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text('"""doc"""\n\n\ndef f():\n    pass\n')
    (pkg / "notes.txt").write_text("not a module\n")
    assert bench_pair.src_lines(tmp_path) == {"files": {"a.py": 2, "b.py": 5}, "total": 7}
