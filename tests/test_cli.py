"""Command-line surface: formatting, exit codes, determinism."""

import io
import json

import numpy as np
import pytest

import bmobell.bellman
import bmobell.domain
import bmobell.verify
from bmobell import (
    Params,
    VerifyReport,
    check_attainment,
    check_skeleton,
    cli,
    from_csv,
    moments,
    solve_u_batch,
    value_batch,
)


def run(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------- eval


def test_eval_central_extremal_point(capsys):
    code, out, err = run(
        ["eval", "--p", "1", "--r", "3", "--eps", "1", "--x", "0,1,0.5"], capsys
    )
    assert code == 0
    assert out.strip() == "3"
    assert err == ""


def test_eval_json_format(capsys):
    code, out, _ = run(
        ["eval", "--p", "1", "--r", "3", "--x", "0,1,0.5", "--format", "json"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["region"] == "XiZero"
    assert obj["value"] == pytest.approx(3.0, rel=1e-12)


def test_eval_json_reports_the_solved_leaf(capsys):
    # the classifier puts this point on the XiZero side of the transition
    # leaf, but its level lies on the XiMinus chord leaf at u just above eps
    x = "-0.7460125840280478,1.06050307583256,1.060424582646188"
    code, out, _ = run(["eval", "--p", "1.999", "--r", "10", f"--x={x}", "--format", "json"], capsys)
    assert code == 0
    pa = Params(1.999, 10.0)
    X = np.array([[float(v) for v in x.split(",")]])
    u, central, _ = solve_u_batch(pa, X)
    assert not central[0] and u[0] > pa.eps
    obj = json.loads(out)
    assert obj["region"] == "XiMinus"
    assert obj["value"] == value_batch(pa, X)[0]


def test_eval_outside_point_is_a_domain_failure(capsys):
    code, out, err = run(
        ["eval", "--p", "1", "--r", "3", "--x", "0,1.2,0.5"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "1.2" in err


def test_eval_malformed_triple(capsys):
    code, _, err = run(["eval", "--p", "1", "--r", "3", "--x", "0,1"], capsys)
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(["eval", "--p", "1", "--r", "3", "--x", "0,a,1"], capsys)
    assert code == 2
    assert err.startswith("error:") and "expects three comma-separated numbers" in err


def test_eval_min_flag_regime_mismatch(capsys):
    # --min asserts the convex regime; (1, 3) is the concave one
    code, _, err = run(
        ["eval", "--p", "1", "--r", "3", "--x", "0,1,0.5", "--min"], capsys
    )
    assert code == 2
    code, out, _ = run(
        ["eval", "--p", "4", "--r", "3", "--x", "0,1,12", "--min"], capsys
    )
    assert code == 0


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"], capsys)[0] == 2


# ------------------------------------------------------------------ constant


def test_constant_known_values(capsys):
    code, out, _ = run(["constant", "--p", "2", "--r", "4"], capsys)
    assert code == 0
    assert out.strip() == "1.8612097182041991"
    code, out, _ = run(["constant", "--p", "1", "--r", "2"], capsys)
    assert out.strip() == "1.4142135623730951"
    code, _, err = run(["constant", "--p", "3", "--r", "2"], capsys)
    assert code == 2
    code, out, err = run(["constant", "--p", "1", "--r", "inf"], capsys)
    assert (code, out) == (2, "") and err.startswith("error:")


def test_non_finite_parameters_exit_two(capsys):
    for flags in (["--p", "1", "--r", "inf"], ["--p", "inf", "--r", "3"], ["--p", "1", "--r", "3", "--eps", "inf"],
                  ["--p", "1", "--r", "3", "--eps", "nan"]):
        code, out, err = run(["eval", *flags, "--x", "0,0.5,0.5"], capsys)
        assert (code, out) == (2, "") and err.startswith("error:") and "finite" in err


def test_an_exponent_whose_gamma_overflows_exits_two(capsys):
    # Gamma(201) is not a double: each command ended in an OverflowError traceback
    for argv in (["constant", "--p", "1", "--r", "200"], ["eval", "--p", "1", "--r", "200", "--x", "0,1,1"],
                 ["verify", "--p", "1", "--r", "200", "--suite", "transference"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------------- scan


def test_scan_skeleton_row(capsys):
    code, out, _ = run(
        ["scan", "--p", "1", "--r", "3", "--x1", "2", "--grid", "4:4:1,3"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,x3,region,u,B"
    assert lines[1] == "2,4,2,Skeleton,2,8"


def test_scan_rows_within_the_slack_below_the_strip_match_eval(capsys):
    # x2 a hair below x1^2 is inside the strip for every membership test,
    # so scan tabulates it as eval evaluates it: on the skeleton
    x2 = 0.7 ** 2 - 1e-13
    code, out, _ = run(["scan", "--p", "1", "--r", "3", "--x1", "0.7", "--grid", f"{x2!r}:{x2!r}:1,2"], capsys)
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert len(rows) == 2
    for x1, y2, x3, region, _u, b in rows:
        assert region == "Skeleton"
        code, want, _ = run(["eval", "--p", "1", "--r", "3", "--x", f"{x1},{y2},{x3}"], capsys)
        assert code == 0 and want.strip() == b


def test_scan_central_row(capsys):
    code, out, _ = run(
        ["scan", "--p", "1", "--r", "3", "--grid", "1:1:1,5"], capsys
    )
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    # the x3 range at (0, 1) is [0.5, 1.0], so the first row is the
    # extremal central point
    first = rows[0]
    assert first[:4] == ["0", "1", "0.5", "XiZero"]
    assert float(first[4]) == 0.0
    assert float(first[5]) == pytest.approx(3.0, rel=1e-12)


def test_scan_outside_slice_is_one_empty_row(capsys):
    code, out, _ = run(
        ["scan", "--p", "1", "--r", "3", "--grid", "1.2:1.2:1,4"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1:] == ["0,1.2,,Outside,,"]


def test_scan_output_is_byte_stable(capsys):
    argv = ["scan", "--p", "2.5", "--r", "4", "--grid", "0.2:0.9:7,9"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second
    assert len(first.strip().splitlines()) == 1 + 7 * 9


def test_scan_json_format(capsys):
    code, out, _ = run(
        ["scan", "--p", "1", "--r", "3", "--grid", "1:1:1,3", "--format", "json"],
        capsys,
    )
    rows = json.loads(out)
    assert len(rows) == 3
    assert rows[0]["region"] in ("XiZero", "XiPlus", "XiMinus", "Skeleton")


def test_scan_solves_every_row_in_one_batch(capsys, monkeypatch):
    calls = {"envelope_batch": 0, "solve_u_batch": 0, "solve_leaf": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "envelope_batch", counted("envelope_batch", cli.envelope_batch))
    monkeypatch.setattr(cli, "solve_u_batch", counted("solve_u_batch", cli.solve_u_batch))
    monkeypatch.setattr(bmobell.bellman, "solve_leaf", counted("solve_leaf", bmobell.bellman.solve_leaf))
    # x1 = 0.7 from the skeleton row x2 = 0.49 up past the strip top: skeleton,
    # central, chord and outside rows in one slice
    code, out, _ = run(
        ["scan", "--p", "1", "--r", "3", "--x1", "0.7", "--grid", "0.49:1.6:12,9"], capsys
    )
    assert code == 0
    assert calls == {"envelope_batch": 1, "solve_u_batch": 1, "solve_leaf": 0}
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert {r[3] for r in rows} == {"Skeleton", "XiZero", "XiPlus", "Outside"}
    live = [r for r in rows if r[3] != "Outside"]
    X = np.array([[float(v) for v in r[:3]] for r in live])
    pa = Params(1.0, 3.0)
    assert [float(r[5]) for r in live] == value_batch(pa, X).tolist()
    assert [float(r[4]) for r in live] == solve_u_batch(pa, X)[0].tolist()


def test_eval_and_point_suites_make_one_batch_call(capsys, monkeypatch):
    calls = {"solve_u_batch": 0, "classify": 0, "value_batch": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "solve_u_batch", counted("solve_u_batch", cli.solve_u_batch))
    for mod in (bmobell, bmobell.domain, cli):
        if hasattr(mod, "classify"):
            monkeypatch.setattr(mod, "classify", counted("classify", mod.classify))
    code, _, _ = run(["eval", "--p", "1", "--r", "3", "--x", "0,1,0.5", "--format", "json"], capsys)
    assert code == 0
    assert calls == {"solve_u_batch": 1, "classify": 0, "value_batch": 0}
    monkeypatch.setattr(bmobell.verify, "value_batch", counted("value_batch", bmobell.verify.value_batch))
    check_skeleton(Params(1.0, 3.0), np.linspace(-5.0, 5.0, 41))
    assert calls["value_batch"] == 1
    check_attainment(Params(1.0, 3.0), (1.0, 1.5, 3.0))
    assert calls["value_batch"] == 2


def test_scan_grid_parse_errors(capsys):
    assert run(["scan", "--p", "1", "--r", "3", "--grid", "1:2"], capsys)[0] == 2
    assert run(["scan", "--p", "1", "--r", "3", "--grid", "a:b:c,d"], capsys)[0] == 2
    # negative counts, and non-finite grid ends or --x1, which would
    # print rows of NaN or inf
    for extra in (["--grid", "0:1:-1"], ["--grid", "0:1:3,-2"], ["--grid", "nan:1:2,2"], ["--grid", "0:inf:2,2"],
                  ["--x1", "nan", "--grid", "0:1:2,2"], ["--x1", "inf", "--grid", "0:1:2,2"]):
        code, out, err = run(["scan", "--p", "1", "--r", "3", *extra], capsys)
        assert (code, out) == (2, "") and err.startswith("error:")


# -------------------------------------------------------------------- verify


def test_verify_all_exits_zero(capsys):
    code, out, _ = run(
        ["verify", "--suite", "all", "--p", "1", "--r", "3", "--eps", "1",
         "--seed", "7", "--samples", "60", "--cells", "16"],
        capsys,
    )
    assert code == 0
    reports = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(reports) == 6
    assert all(r["passed"] for r in reports)
    assert [list(r) for r in reports] == [
        ["suite", "params", "cases", "worst_residual", "witness", "passed"]
    ] * 6


def test_verify_transference_exits_zero(capsys):
    code, out, _ = run(["verify", "--suite", "transference", "--p", "1", "--r", "3"], capsys)
    assert code == 0
    (line,) = out.strip().splitlines()
    rep = json.loads(line)
    assert list(rep) == ["suite", "params", "cases", "worst_residual", "witness", "passed"]
    assert rep["suite"] == "transference" and rep["passed"]
    assert rep["witness"]["ladder"] == [4, 0.1, 5]


def test_verify_failing_suite_exits_one(capsys, monkeypatch):
    failing = VerifyReport("skeleton", {"p": 1.0, "r": 3.0, "eps": 1.0}, 1, 1e-3, None, False)
    monkeypatch.setattr(cli.verify, "run_suite", lambda *args, **kwargs: [failing])
    code, out, _ = run(["verify", "--suite", "skeleton", "--p", "1", "--r", "3"], capsys)
    assert code == 1
    assert out.strip() == failing.to_json()


def test_removed_seam_options_are_usage_errors(capsys):
    assert run(["optimizer", "--which", "psi"], capsys)[0] == 2
    assert run(["verify", "--suite", "transference", "--p", "1", "--r", "3", "--lambda", "0.9"], capsys)[0] == 2


def test_verify_sample_counts_below_one_exit_two(capsys):
    for suite, samples in (("concavity", "0"), ("oracle", "0"), ("c1", "-3")):
        code, out, err = run(
            ["verify", "--suite", suite, "--p", "1", "--r", "3", "--samples", samples], capsys
        )
        assert (code, out) == (2, "") and err.startswith("error:")


def test_verify_unknown_suite_exits_two(capsys):
    assert run(
        ["verify", "--suite", "nonsense", "--p", "1", "--r", "3"], capsys
    )[0] == 2


# ----------------------------------------------------------- optimizer / bmo


def test_optimizer_round_trip(capsys):
    code, out, _ = run(["optimizer", "--which", "phi0"], capsys)
    assert code == 0
    f = from_csv(out)
    assert moments(f, 1.0) == pytest.approx(0.5, rel=1e-12)
    code, out, _ = run(
        ["optimizer", "--which", "u+", "--u", "0.7", "--eps", "1"], capsys
    )
    assert code == 0
    assert from_csv(out).domain == (0.0, 1.0)


def test_optimizer_chord_forms_require_u(capsys):
    assert run(["optimizer", "--which", "u+"], capsys)[0] == 2
    assert run(["optimizer", "--which", "u-"], capsys)[0] == 2


def test_bmo_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    _, csv_text, _ = run(["optimizer", "--which", "phi0"], capsys)
    path = tmp_path / "fn.csv"
    path.write_text(csv_text)
    code, out, _ = run(["bmo", "--fn", str(path), "--levels", "8"], capsys)
    assert code == 0
    val = float(out.strip())
    assert 0.9 <= val <= 1.0 + 1e-9
    monkeypatch.setattr("sys.stdin", io.StringIO(csv_text))
    code, out2, _ = run(["bmo", "--levels", "8"], capsys)
    assert code == 0
    assert out2 == out


def test_bmo_rejects_bad_piece_rows(tmp_path, capsys):
    # a non-numeric field, and an infinite end, c0 or tau
    rows = ("const,0,x,1,0,1,0", "const,0,inf,1,0,1,0", "const,0,1,inf,0,1,0",
            "log,0.5,1,0,1,1,-inf")
    for i, row in enumerate(rows):
        path = tmp_path / f"fn{i}.csv"
        path.write_text("kind,a,b,c0,c1,sigma,tau\n" + row + "\n")
        code, out, err = run(["bmo", "--fn", str(path), "--levels", "6"], capsys)
        assert (code, out) == (2, "") and err.startswith("error:")


def test_bmo_rejects_non_finite_prefix_integrals(tmp_path, capsys):
    # the ramp of u- at u = 700 ends near e^699: its f^2 integrals overflow,
    # and the scan must not read the NaN windows as absent
    code, csv, _ = run(["optimizer", "--which", "u-", "--u", "700", "--eps", "1"], capsys)
    assert code == 0
    path = tmp_path / "ramp.csv"
    path.write_text(csv)
    with np.errstate(all="ignore"):
        code, out, err = run(["bmo", "--fn", str(path), "--levels", "8"], capsys)
    assert (code, out) == (2, "") and err.startswith("error:") and "not finite" in err


def test_bmo_missing_file(capsys):
    code, _, err = run(["bmo", "--fn", "/nonexistent/fn.csv"], capsys)
    assert code == 2
    assert err.startswith("error:")
