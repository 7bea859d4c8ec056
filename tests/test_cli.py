import ast
import importlib
import math
import os
import re
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest

from rbitmc import cli
from rbitmc.cli import (
    EXPERIMENTS,
    Fixture,
    fit_rate,
    format_value,
    load_fixtures,
    main,
    parse_config,
    read_csv,
    run_suite,
    write_csv,
)
from rbitmc.errors import ConfigurationError, InternalInvariantError, NumericFailure

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures", "acceptance.txt")


def test_fit_rate_exact_powers():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_rate(xs, xs ** -0.5)
    assert abs(fit.slope + 0.5) < 1e-12 and fit.residual_max < 1e-12
    fit = fit_rate(xs, 7.0 * xs ** -1.0)
    assert abs(fit.slope + 1.0) < 1e-12
    assert abs(fit.intercept - math.log(7.0)) < 1e-12
    assert fit.n_points == 5


def test_fit_rate_with_noise():
    rng = np.random.default_rng(0)
    xs = 2.0 ** np.arange(1, 11, dtype=np.float64)
    ys = xs ** -1.0 * (1.0 + 0.01 * (2.0 * rng.random(10) - 1.0))
    fit = fit_rate(xs, ys)
    assert -1.05 <= fit.slope <= -0.95


def test_fit_rate_errors():
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_rate([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0, 0.0], [1.0, 2.0, 3.0])
    for bad in (math.nan, math.inf, -math.inf):  # gave a nan slope, intercept and residual
        with pytest.raises(ValueError, match="rate fits require finite data"):
            fit_rate([1.0, 2.0, 4.0, 8.0], [1.0, bad, 3.0, 4.0])
        with pytest.raises(ValueError, match="rate fits require finite data"):
            fit_rate([1.0, bad, 4.0, 8.0], [1.0, 2.0, 3.0, 4.0])


def test_fit_on_non_finite_data_is_bad_input(tmp_path, capsys):
    """normal-error writes nan moments above p = 26, and fit printed
    nan,nan,nan for them with exit 0."""
    table, out = tmp_path / "normal.csv", tmp_path / "fit.csv"
    assert main(["normal-error", "--pmin", "27", "--pmax", "30", "--csv", str(table)]) == 0
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("m,err\n2,0.5\n4,inf\n8,0.125\n16,0.0625\n")
    capsys.readouterr()
    for data, x, y in ((table, "p", "moment2"), (mixed, "m", "err")):
        assert main(["fit", "--input", str(data), "--x", x, "--y", y, "--csv", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: rate fits require finite data\n"
        assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("m,err\n2,0.5\n4\n8,0.1,3\n", "expected 2 cells, as in the header, got 1"),
    ("m,err\n2,0.5\n8,0.1,3\n", "expected 2 cells, as in the header, got 3"),
    ("m,err\n2,0.5\n4,abc\n8,0.1\n", "cells '4,abc' must be numbers"),
], ids=["short", "long", "not-a-number"])
def test_fit_on_a_malformed_row_names_its_line(tmp_path, capsys, text, message):
    """A short row ended in an IndexError traceback with exit 1, and a cell
    that is not a number printed "could not convert string to float" without
    the file and line."""
    data = tmp_path / "t.csv"
    data.write_text(text)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(f'{data}:3: {message}')}$"):
        read_csv(str(data))
    assert main(["fit", "--input", str(data), "--x", "m", "--y", "err"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {data}:3: {message}\n"


def test_format_value_17_digits():
    assert format_value(1) == "1"
    assert format_value(0.1) == "0.10000000000000001"
    assert float(format_value(math.pi)) == math.pi


def test_csv_roundtrip(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a", "b"], [[1, 0.5], [2, 0.25]])
    header, rows = read_csv(path)
    assert header == ["a", "b"]
    assert rows == [[1.0, 0.5], [2.0, 0.25]]


def test_fixture_semantics(tmp_path):
    fx = Fixture("x", 2.0, 0.1)
    assert fx.matches(2.1) and not fx.matches(2.5)
    assert fx.within_factor(1.1) and not fx.within_factor(0.9)
    assert fx.lower_bound(2.0) and not fx.lower_bound(1.9)
    zero = Fixture("z", 0.0, 1e-6)
    assert zero.matches(5e-7) and not zero.matches(1e-3)
    path = tmp_path / "f.txt"
    path.write_text("a 1.0 0.1 # one\na 2.0 0.1 # dup\n")
    with pytest.raises(ConfigurationError):
        load_fixtures(str(path))


@pytest.mark.parametrize("line", ["bad abc 0.1 # note", "bad 1.0 tol", "bad 1.0 0.1x"])
def test_fixture_value_that_is_not_a_number_names_its_line(tmp_path, capsys, line):
    """A value or tolerance that is not a number printed only
    "could not convert string to float", without the file and line."""
    path = tmp_path / "f.txt"
    path.write_text(f"# table\nok 1.0 0.1\n{line}\n")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}:3: value .* must be numbers$"):
        load_fixtures(str(path))
    assert main(["normal-error", "--pmin", "4", "--pmax", "4", "--fixtures", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {path}:3: value ")


@pytest.mark.parametrize("line", [
    "bridge_scaled_bit_error inf 0.20", "bridge_scaled_bit_error 0.20355 inf",
    "bridge_scaled_bit_error nan 0.20", "bridge_scaled_bit_error 0.20355 -0.1",
    "appendix_ratio5_lower -inf 0",
])
def test_fixture_value_or_tolerance_that_is_not_finite_names_its_line(tmp_path, capsys, line):
    """With inf as a value or tolerance, matches and within_factor held for
    any observation, and with -inf as a value lower_bound did: bridge-error
    --fixtures exited 0 whatever it computed."""
    path = tmp_path / "f.txt"
    path.write_text(f"# table\nok 1.0 0.1\n{line}\n")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}:3: value .* must be finite"):
        load_fixtures(str(path))
    assert main(["bridge-error", "--lmin", "6", "--lmax", "6", "--fixtures", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {path}:3: value ")


def test_every_fixture_is_read_somewhere():
    """Each name of the fixture table is a string constant in src/ or tests/,
    or matches an f-string template there (``kl_scaled_b{beta:g}_a{alpha:g}``):
    a row no code reads checks nothing."""
    root = os.path.join(os.path.dirname(__file__), "..")
    constants, templates = set(), []
    for folder in ("src/rbitmc", "tests"):
        for name in sorted(os.listdir(os.path.join(root, folder))):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, folder, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.JoinedStr):
                    templates.append("".join(re.escape(v.value) if isinstance(v, ast.Constant) else ".+"
                                             for v in node.values))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    constants.add(node.value)
    unread = [name for name in load_fixtures(FIXTURES)
              if name not in constants and not any(re.fullmatch(t, name) for t in templates)]
    assert unread == []


def test_load_shipped_fixtures():
    table = load_fixtures(FIXTURES)
    assert "bridge_scaled_bit_error" in table
    assert table["mlmc_c_rmse"].value == 1.0


@pytest.mark.parametrize("args,n_rows", [
    (["normal-error", "--pmin", "4", "--pmax", "12"], 9),
    (["rbit-1d", "--law", "uniform", "--pmin", "1", "--pmax", "6"], 6),
    (["bridge-error", "--lmin", "1", "--lmax", "8"], 8),
    (["kl-error", "--beta", "2", "--alpha", "0", "--mmin", "16", "--mmax", "128"], 4),
    (["appendix-ratios", "--pmin", "10", "--pmax", "20"], 11),
    (["sde-error", "--mmin", "16", "--mmax", "64", "--reps", "50", "--q", "8"], 3),
    (["mlmc", "--eps", "0.125", "--functional", "coord1", "--runs", "4"], 4),
])
def test_cli_row_counts_and_determinism(tmp_path, args, n_rows):
    out1 = str(tmp_path / "one.csv")
    out2 = str(tmp_path / "two.csv")
    assert main(args + ["--csv", out1, "--seed", "7"]) == 0
    assert main(args + ["--csv", out2, "--seed", "7"]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        b1, b2 = f1.read(), f2.read()
    assert b1 == b2
    header, rows = read_csv(out1)
    assert len(rows) == n_rows


def test_cli_headers_exact():
    cases = {
        ("normal-error", "--pmin", "4", "--pmax", "5"): "p,mse,rmse,scaled_const,moment2,moment4",
        ("rbit-1d", "--pmin", "1", "--pmax", "2"): "p,rbit,scaled_2p,scaled_2p_p_sq",
        ("bridge-error", "--lmin", "1", "--lmax", "2"): "level,bits,trunc_err_sq,bit_err_sq,scaled",
        ("kl-error", "--beta", "2", "--alpha", "0", "--mmin", "16", "--mmax", "32"): "m,bits,err_sq,scaled",
        ("mlmc", "--eps", "0.125", "--runs", "2"): "run,estimate,bits,oracle_cost,theoretical_cost",
        ("appendix-ratios", "--pmin", "10", "--pmax", "11"): "p,ratio1,ratio2,ratio3,ratio4,ratio5",
    }
    import io
    from contextlib import redirect_stdout
    for args, expected in cases.items():
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(list(args)) == 0
        assert buf.getvalue().splitlines()[0] == expected


def test_normal_error_flags_surrogate_rows(tmp_path, capsys):
    out = str(tmp_path / "deep.csv")
    assert main(["normal-error", "--pmin", "26", "--pmax", "28", "--csv", out]) == 0
    captured = capsys.readouterr()
    assert "asymptotic surrogate" in captured.err
    header, rows = read_csv(out)
    assert len(rows) == 3
    assert math.isnan(rows[2][4])  # moment2 is not exactly enumerable at p=28
    from rbitmc.normal import MSE_SCALED_LIMIT
    assert rows[2][1] == MSE_SCALED_LIMIT * 2.0 ** -28 / 28


def test_fit_subcommand(tmp_path):
    data = str(tmp_path / "data.csv")
    write_csv(data, ["m", "err"], [[2.0 ** k, 3.0 * 2.0 ** -k] for k in range(1, 7)])
    out = str(tmp_path / "fit.csv")
    assert main(["fit", "--input", data, "--x", "m", "--y", "err", "--csv", out]) == 0
    header, rows = read_csv(out)
    assert header == ["slope", "intercept", "residual_max", "n_points"]
    assert abs(rows[0][0] + 1.0) < 1e-12


_SMALL_RUNS = {
    "normal-error": ["--pmin", "4", "--pmax", "5"],
    "rbit-1d": ["--pmin", "1", "--pmax", "3"],
    "bridge-error": ["--lmin", "1", "--lmax", "3"],
    "kl-error": ["--beta", "2", "--alpha", "0", "--mmin", "64", "--mmax", "64"],
    "sde-error": ["--mmin", "4", "--mmax", "4", "--reps", "3"],
    "mlmc": ["--eps", "0.125", "--runs", "2"],
    "appendix-ratios": ["--pmin", "10", "--pmax", "11"],
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_stdout_equals_the_csv_file(tmp_path, capsys, name):
    out = tmp_path / "out.csv"
    assert main([name, *_SMALL_RUNS[name], "--csv", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main([name, *_SMALL_RUNS[name]]) == 0
    printed = capsys.readouterr().out
    assert printed.count("\n") >= 2 and printed.encode("utf-8") == out.read_bytes()


def test_fit_stdout_equals_its_csv_file(tmp_path, capsys):
    data = str(tmp_path / "data.csv")
    write_csv(data, ["m", "err"], [[2.0 ** k, 3.0 * 2.0 ** -k] for k in range(1, 7)])
    out = tmp_path / "fit.csv"
    assert main(["fit", "--input", data, "--x", "m", "--y", "err", "--csv", str(out)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_config_parsing(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text("experiment = bridge-error\nlmin = 1\nlmax = 4\nseed = 0\n")
    cfg = parse_config(str(good))
    assert cfg["experiment"] == "bridge-error"
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = bridge-error\nlmin = 1\nlmax = 4\nbogus = 1\n")
    with pytest.raises(ConfigurationError):
        parse_config(str(bad))
    missing = tmp_path / "missing.cfg"
    missing.write_text("lmin = 1\n")
    with pytest.raises(ConfigurationError):
        parse_config(str(missing))


def test_suite_pass_and_fixture_violation(tmp_path, capsys):
    cfg = tmp_path / "bridge.cfg"
    out = tmp_path / "bridge.csv"
    cfg.write_text(f"experiment = bridge-error\nlmin = 6\nlmax = 10\ncsv = {out}\n")
    assert run_suite(str(cfg), FIXTURES) == 0
    assert out.exists()
    bad_fixtures = tmp_path / "bad.txt"
    bad_fixtures.write_text("bridge_scaled_bit_error 99.0 0.01 # impossible\n")
    assert run_suite(str(cfg), str(bad_fixtures)) == 1
    captured = capsys.readouterr()
    assert "FIXTURE FAIL bridge_scaled_bit_error" in captured.err


def test_main_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = nope\n")
    assert main(["suite", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("text,key", [
    ("experiment = normal-error\npmin = 4\n", "'pmax'"),
    ("experiment = bridge-error\nlmin = x\nlmax = 4\n", "'lmin'"),
    ("experiment = sde-error\nmmin = 4\nmmax = 8\nreps = 1.5\n", "'reps'"),
    ("experiment = rbit-1d\nlaw = cauchy\npmin = 1\npmax = 4\n", "'law'"),
    ("experiment = mlmc\neps = 0.125\nmodel = gauss\n", "'model'"),
    ("experiment = kl-error\nbeta = 2\nalpha = 0\nmmin = 16\nmmax = 32\nseed = -x\n", "'seed'"),
])
def test_malformed_suite_config_is_bad_input(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    experiment = text.splitlines()[0].split("=")[1].strip()
    with pytest.raises(ConfigurationError, match=f"{experiment} key {key}"):
        parse_config(str(cfg))
    assert main(["suite", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["mlmc", "--eps", "0.25"],
    ["normal-error", "--pmin", "0", "--pmax", "3"],
    ["kl-error", "--beta", "0.5", "--alpha", "0", "--mmin", "16", "--mmax", "32"],
    ["mlmc", "--eps", "1e-200"],  # K(eps) = eps^-2 overflows a double
    # non-finite decay rates: L = 0 wrote all-zero rows, NaN failed in math.ceil
    ["mlmc", "--model", "kl", "--beta", "inf", "--eps", "0.1", "--runs", "2"],
    ["mlmc", "--model", "kl", "--alpha", "inf", "--eps", "0.1", "--runs", "2"],
    ["mlmc", "--model", "kl", "--alpha", "nan", "--eps", "0.1", "--runs", "2"],
    ["kl-error", "--beta", "inf", "--alpha", "0", "--mmin", "16", "--mmax", "32"],
    # overflows of the schedule beside K(eps): z, a replication number N_l, z at 1/eps = inf,
    # and the log factor (ln 1/eps)^(alpha/(2(1-beta))) of K(eps) at beta < 2
    ["mlmc", "--model", "kl", "--beta", "2", "--alpha=-2000", "--eps", "0.1", "--runs", "1"],
    ["mlmc", "--model", "kl", "--beta", "2", "--alpha=-300", "--eps", "0.1", "--runs", "1"],
    ["mlmc", "--model", "kl", "--beta", "2", "--alpha", "0", "--eps", "5e-324", "--runs", "1"],
    ["mlmc", "--model", "kl", "--beta", "1.1", "--alpha=-300", "--eps", "0.1", "--runs", "1"],
])
def test_out_of_range_argument_is_bad_input(capsys, args):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("flag,value,command", [
    ("--beta", "inf", "mlmc"), ("--alpha", "inf", "mlmc"), ("--alpha", "nan", "mlmc"), ("--beta", "inf", "kl-error"),
])
def test_non_finite_decay_rate_is_named(capsys, flag, value, command):
    rest = (["--model", "kl", "--eps", "0.1", "--runs", "2"] if command == "mlmc"
            else ["--beta", "2", "--alpha", "0", "--mmin", "16", "--mmax", "32"])
    assert main([command, *rest, flag, value]) == 2
    assert capsys.readouterr().err == f"error: {flag[2:]} must be finite, got {value}\n"


# valid values of the other parameters of each experiment that takes a float
_FLOAT_BASE = {
    "kl-error": {"beta": "2", "alpha": "0", "mmin": "16", "mmax": "16"},
    "sde-error": {"mmin": "2", "mmax": "2", "reps": "3"},
    "mlmc": {"model": "kl", "eps": "0.1", "runs": "2"},
    "appendix-ratios": {"pmin": "10", "pmax": "12"},
}
_FLOAT_CASES = [(name, prm.name, value) for name, exp in EXPERIMENTS.items()
                for prm in exp.params if prm.type is float for value in ("nan", "inf", "-inf")]


@pytest.mark.parametrize("via", ["flag", "suite"])
@pytest.mark.parametrize("name,param,value", _FLOAT_CASES)
def test_non_finite_float_is_bad_input(tmp_path, capsys, via, name, param, value):
    """A non-finite float parameter of any experiment exits 2 before anything
    runs (sde-error used to end in NumericFailure, appendix-ratios in
    OverflowError); a flag value is passed as --name=-inf, as argparse reads
    a bare -inf as a flag."""
    values = {**_FLOAT_BASE[name], param: value}
    csv = tmp_path / "out.csv"
    if via == "flag":
        argv = [name, *(f"--{k}={v}" for k, v in values.items()), "--csv", str(csv)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {"experiment": name, **values, "csv": csv}.items()))
        argv = ["suite", "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {param} must be finite, got {value}\n"
    assert not csv.exists()


@pytest.mark.parametrize("p", [64, 1023, 1024])
def test_normal_error_refuses_p_above_the_bit_limit(tmp_path, capsys, p):
    """No draw makes a normal of more than 63 bits: p = 1024 ended in
    OverflowError and p = 1023 wrote scaled_const inf."""
    csv = tmp_path / "out.csv"
    assert main(["normal-error", "--pmin", str(p), "--pmax", str(p), "--csv", str(csv)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: pmax must be at most 63") and captured.out == ""
    assert not csv.exists()


def test_normal_error_writes_the_last_bit_limit_row(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    assert main(["normal-error", "--pmin", "63", "--pmax", "63", "--csv", str(csv)]) == 0
    assert "rows p in [63]" in capsys.readouterr().err
    header, rows = read_csv(str(csv))
    assert len(rows) == 1 and rows[0][0] == 63 and math.isfinite(rows[0][3])


def _flagged_rows(err: str, column: str) -> list:
    return ast.literal_eval(re.search(rf"note: rows {column} in (\[[^]]*\])", err).group(1))


def test_bridge_and_kl_error_flag_surrogate_rows(capsys):
    """Rows whose bit counts exceed the exact mse cap are named on stderr,
    as normal-error names its p > 26 rows."""
    assert main(["bridge-error", "--lmin", "13", "--lmax", "14"]) == 0
    assert _flagged_rows(capsys.readouterr().err, "level") == [14]  # p = 28 at m = 0
    assert main(["kl-error", "--beta", "3", "--alpha", "0", "--mmin", "64", "--mmax", "1024"]) == 0
    flagged = _flagged_rows(capsys.readouterr().err, "m")
    assert 1024 in flagged and 64 not in flagged  # counts reach 30 at m = 1024, 18 at m = 64
    assert main(["bridge-error", "--lmin", "1", "--lmax", "13"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("args", [
    ["mlmc", "--model", "kl", "--eps", "1e-4"],  # L = 27: about 4.4 GB of top-level allocation
    ["kl-error", "--beta", "2", "--alpha", "0", "--mmin", "67108864", "--mmax", "67108864"],
])
def test_kl_level_cap_is_bad_input(tmp_path, capsys, args):
    out = tmp_path / "out.csv"
    t0 = time.perf_counter()
    assert main([*args, "--csv", str(out)]) == 2
    assert time.perf_counter() - t0 < 10.0
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: KL allocation capped")


def test_fit_unknown_column_is_bad_input(tmp_path, capsys):
    data = str(tmp_path / "data.csv")
    write_csv(data, ["m", "err"], [[2.0 ** k, 2.0 ** -k] for k in range(1, 5)])
    assert main(["fit", "--input", data, "--x", "m", "--y", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'nope'" in err


@pytest.mark.parametrize("flag", ["--seed", "--fixtures"])
def test_fit_takes_no_seed_or_fixtures(tmp_path, flag):
    data = str(tmp_path / "data.csv")
    write_csv(data, ["m", "err"], [[2.0 ** k, 2.0 ** -k] for k in range(1, 5)])
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", data, "--x", "m", "--y", "err", flag, "1"])
    assert exc.value.code == 2


def test_normal_error_checks_p26_fixture():
    shipped = load_fixtures(FIXTURES)
    check = EXPERIMENTS["normal-error"].check
    row = {"p": 26, "scaled_const": 1.6984111061536882}
    assert check(shipped, [row, {"p": 25, "scaled_const": 9.0}], {"pmin": 25, "pmax": 26}) == []
    perturbed = dict(shipped)
    fx = shipped["normal_scaled_mse_p26"]
    perturbed[fx.name] = Fixture(fx.name, fx.value * (1.0 + 1e-8), fx.tolerance)
    failures = check(perturbed, [row], {"pmin": 26, "pmax": 26})
    assert len(failures) == 1 and failures[0].startswith("normal_scaled_mse_p26: p 26")


_REQUIRED = {
    "normal-error": {"pmin": "4", "pmax": "6"},
    "rbit-1d": {"pmin": "1", "pmax": "4"},
    "bridge-error": {"lmin": "1", "lmax": "4"},
    "kl-error": {"beta": "2", "alpha": "0", "mmin": "16", "mmax": "32"},
    "sde-error": {"mmin": "4", "mmax": "8"},
    "mlmc": {"eps": "0.125"},
    "appendix-ratios": {},
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_subcommand_and_suite_share_defaults(tmp_path, name):
    required = _REQUIRED[name]
    assert set(required) == {prm.name for prm in EXPERIMENTS[name].params if prm.default is None}
    sub_csv, suite_csv, cfg = tmp_path / "sub.csv", tmp_path / "suite.csv", tmp_path / "run.cfg"
    flags = [tok for key, value in required.items() for tok in (f"--{key}", value)]
    assert main([name, *flags, "--csv", str(sub_csv)]) == 0
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in
                           {"experiment": name, **required, "csv": str(suite_csv)}.items()))
    assert run_suite(str(cfg)) == 0
    assert sub_csv.read_bytes() == suite_csv.read_bytes()


def test_experiment_functions_are_looked_up_at_call_time(monkeypatch, capsys):
    monkeypatch.setattr(cli, "experiment_bridge_error", lambda lmin, lmax: (["level"], [[lmin], [lmax]]))
    assert main(["bridge-error", "--lmin", "3", "--lmax", "5"]) == 0
    assert capsys.readouterr().out == "level\n3\n5\n"


_INVERTED = {
    "normal-error": ["--pmin", "5", "--pmax", "3"],
    "rbit-1d": ["--pmin", "5", "--pmax", "3"],
    "bridge-error": ["--lmin", "5", "--lmax", "3"],
    "kl-error": ["--beta", "2", "--alpha", "0", "--mmin", "64", "--mmax", "32"],
    "sde-error": ["--mmin", "16", "--mmax", "8", "--reps", "5"],
    "appendix-ratios": ["--pmin", "20", "--pmax", "10"],
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_inverted_range_is_bad_input(tmp_path, capsys, name):
    names = {prm.name for prm in EXPERIMENTS[name].params}
    ranges = {n for n in names if n.endswith("min") and n[:-3] + "max" in names}
    assert bool(ranges) == (name in _INVERTED)
    if not ranges:
        return
    csv = tmp_path / "out.csv"
    assert main([name, *_INVERTED[name], "--csv", str(csv)]) == 2
    assert not csv.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: ") and "exceeds" in err
    flags = _INVERTED[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"experiment = {name}\n" + "".join(
        f"{flags[k][2:]} = {flags[k + 1]}\n" for k in range(0, len(flags), 2)))
    assert main(["suite", "--config", str(cfg)]) == 2


def test_equal_range_ends_run_one_row(capsys):
    assert main(["bridge-error", "--lmin", "3", "--lmax", "3"]) == 0
    assert capsys.readouterr().out.count("\n") == 2


@pytest.mark.parametrize("via", ["flag", "suite"])
def test_kl_error_refuses_m_one_for_negative_alpha(tmp_path, capsys, via):
    """(ln m)**alpha of the scaled column is undefined at m = 1 for alpha < 0:
    the run ended in ZeroDivisionError with exit 1."""
    values = {"beta": "3", "alpha": "-2", "mmin": "1", "mmax": "2"}
    csv = tmp_path / "out.csv"
    if via == "flag":
        argv = ["kl-error", *(f"--{k}={v}" for k, v in values.items()), "--csv", str(csv)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {"experiment": "kl-error", **values, "csv": csv}.items()))
        argv = ["suite", "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: kl-error: mmin 1 must be at least 2 for alpha -2 < 0, "
                            "as the scaled column's factor (ln m)**alpha is undefined at m = 1\n")
    assert not csv.exists()
    assert main(["kl-error", "--beta", "3", "--alpha", "0", "--mmin", "1", "--mmax", "2"]) == 0


def test_mlmc_overflow_names_beta_and_the_exponent(capsys):
    """The refusal blamed eps alone, but at beta 1.001 the exponent
    beta/(beta-1) = 1001 is what overflows K(eps)."""
    assert main(["mlmc", "--model", "kl", "--beta", "1.001", "--eps", "0.1", "--runs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: eps 0.1 is too small for beta 1.001: the replication constant K(eps) "
                            "overflows, as eps is raised to -max(2, beta/(beta-1)) = -1001\n")


def test_mlmc_without_runs_is_bad_input(capsys):
    args = ["mlmc", "--eps", "0.125", "--functional", "coord1", "--fixtures", FIXTURES]
    assert main([*args, "--runs", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: runs must be a positive integer")


@pytest.mark.parametrize("rates", [["--beta", "3"], ["--alpha", "1"], ["--beta", "3", "--alpha", "1"]])
def test_mlmc_bridge_refuses_other_decay_rates(tmp_path, capsys, rates):
    csv = tmp_path / "mlmc.csv"
    args = ["mlmc", "--model", "bridge", "--eps", "0.125", "--runs", "2", *rates]
    assert main([*args, "--csv", str(csv)]) == 2
    assert not csv.exists()
    assert capsys.readouterr().err.startswith("error: the bridge model has beta 2 and alpha 0")
    cfg = tmp_path / "mlmc.cfg"
    cfg.write_text("experiment = mlmc\nmodel = bridge\neps = 0.125\nruns = 2\n"
                   f"{rates[0][2:]} = {rates[1]}\ncsv = {csv}\n")
    assert main(["suite", "--config", str(cfg)]) == 2
    assert not csv.exists()


def test_mlmc_decay_rates_are_checked_against_the_chosen_model(capsys):
    """One check against the model built from the --model table: the bridge
    refuses other rates with the same message, a KL model takes its own."""
    assert main(["mlmc", "--model", "bridge", "--beta", "3", "--eps", "0.125", "--runs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the bridge model has beta 2 and alpha 0, got beta 3 and alpha 0\n"
    assert main(["mlmc", "--model", "kl", "--beta", "3", "--alpha", "1", "--eps", "0.125", "--runs", "1"]) == 0
    assert capsys.readouterr().out.count("\n") == 2


def test_mlmc_keeps_one_level_when_z_rounds_to_one(capsys):
    """At alpha 55 the level count's z rounds to 1.0; each run still draws
    its 3536 level-1 rows, |p(1)| bits each, instead of writing zeros."""
    from rbitmc.gausskl import EigenSpec, allocation_kl

    assert main(["mlmc", "--model", "kl", "--beta", "3", "--alpha", "55", "--eps", "0.01", "--runs", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "run,estimate,bits,oracle_cost,theoretical_cost"
    bits = 3536 * allocation_kl(2, EigenSpec(3.0, 55.0)).total
    assert [row.split(",")[2] for row in rows] == [str(bits)] * 2
    assert all(float(row.split(",")[1]) != 0.0 for row in rows)


def test_sde_error_computes_its_rows_from_the_top_m_down(monkeypatch, capsys):
    """sde-error builds its m ladder as kl-error does and computes the top
    row first; each m has its own BitSource(seed), so the rows are as before."""
    from rbitmc import sde
    real, ms = sde.strong_error_experiment, []

    def spy(model, m, *args):
        ms.append(m)
        return real(model, m, *args)

    monkeypatch.setattr(sde, "strong_error_experiment", spy)
    assert main(["sde-error", "--mmin", "3", "--mmax", "13", "--reps", "5"]) == 0
    assert ms == [12, 6, 3]
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["3", "6", "12"]
    rms, ledger = real(sde.geometric_model(0.05, 0.2, 1.0), 3, 52, 5, 0)
    assert rows[0] == ",".join(map(format_value, [3, 52, 5, rms, ledger.bits]))


README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _readme_blocks(lang):
    with open(README, encoding="utf-8") as handle:
        return re.findall(rf"^```{lang}\n(.*?)^```", handle.read(), flags=re.S | re.M)


def test_readme_command_lines_parse():
    """Every ``rbitmc`` line of the README's sh blocks parses: the README
    once named ``sde-error --model`` after the flag was deleted."""
    lines = [shlex.split(line.partition("#")[0])[1:] for block in _readme_blocks("sh")
             for line in block.splitlines() if line.startswith("rbitmc ")]
    assert len(lines) >= len(EXPERIMENTS) + 2
    parser = cli.build_parser()
    for argv in lines:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: rbitmc {shlex.join(argv)}")


def test_readme_library_quick_tour_runs(capsys):
    with open(README, encoding="utf-8") as handle:
        section = handle.read().split("## Library quick tour", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", section, flags=re.S | re.M).group(1)
    exec(compile(code, "README.md quick tour", "exec"), {})
    assert len(capsys.readouterr().out.split()) == 3


def test_mlmc_rmse_check_fails_when_not_finite():
    check = EXPERIMENTS["mlmc"].check
    fixtures = load_fixtures(FIXTURES)
    a = {"functional": "coord1", "eps": 0.125}
    assert check(fixtures, [{"estimate": 0.01}, {"estimate": -0.02}], a) == []
    for records in ([], [{"estimate": math.nan}], [{"estimate": math.inf}]):
        failures = check(fixtures, records, a)
        assert len(failures) == 1 and failures[0].startswith("mlmc_c_rmse: rmse")


def test_sde_error_without_steps_is_bad_input(capsys):
    assert main(["sde-error", "--mmin", "0", "--mmax", "8", "--reps", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: m must be a positive integer") and "Traceback" not in err


@pytest.mark.parametrize("q", ["0", "-1", "64"])
def test_sde_error_q_outside_the_parent_bits_is_bad_input(tmp_path, capsys, q):
    csv = tmp_path / "sde.csv"
    assert main(["sde-error", "--q", q, "--mmin", "4", "--mmax", "8", "--reps", "5", "--csv", str(csv)]) == 2
    assert not csv.exists()
    assert capsys.readouterr().err.startswith("error: q must be an integer in [1, 63]")


@pytest.mark.parametrize("functional", ["coord2", "soft_linear"])
def test_mlmc_runs_every_bridge_functional(functional, capsys):
    args = ["mlmc", "--eps", "0.125", "--functional", functional, "--fixtures", FIXTURES]
    assert main(args) == 0
    assert capsys.readouterr().out.count("\n") > 1


def test_appendix_ratios_without_integer_p_is_bad_input(tmp_path, capsys):
    csv = tmp_path / "ratios.csv"
    assert main(["appendix-ratios", "--pmin", "10.5", "--pmax", "10.7", "--csv", str(csv)]) == 2
    assert capsys.readouterr().err.startswith("error: no integer p in [10.5, 10.7]")
    assert not csv.exists()


@pytest.mark.parametrize("args", [
    ["rbit-1d", "--law", "normal", "--pmin", "27", "--pmax", "27"],
    ["bridge-error", "--lmin", "26", "--lmax", "26"],
])
def test_capacity_error_is_bad_input(tmp_path, capsys, args):
    csv = tmp_path / "table.csv"
    assert main([*args, "--csv", str(csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "capped" in err and "Traceback" not in err
    assert not csv.exists()


@pytest.mark.parametrize("args,module,func,key_arg,top", [
    (["bridge-error", "--lmin", "13", "--lmax", "26"], "bridge", "bridge_bit_error_sq", 0, 26),
    (["kl-error", "--beta", "2", "--alpha", "0", "--mmin", "1048576", "--mmax", "100000000"],
     "gausskl", "allocation_kl", 0, 1 << 26),
    (["rbit-1d", "--law", "uniform", "--pmin", "20", "--pmax", "27"], "wasserstein1d", "rbit_error", 1, 27),
])
def test_range_top_beyond_a_cap_is_refused_first(tmp_path, capsys, monkeypatch, args, module, func, key_arg, top):
    """A range whose top key is beyond a cap computed every row below it
    first (10-20 s and up to 1.6 GB), then exited 2: the top row is now the
    first one computed, and the library refuses it before any work."""
    mod = importlib.import_module(f"rbitmc.{module}")
    real, keys = getattr(mod, func), []

    def spy(*a, **kw):
        keys.append(a[key_arg])
        return real(*a, **kw)

    monkeypatch.setattr(mod, func, spy)
    csv = tmp_path / "table.csv"
    assert main([*args, "--csv", str(csv)]) == 2
    captured = capsys.readouterr()
    assert keys == [top]
    assert captured.err.startswith("error: ") and "capped" in captured.err and captured.out == ""
    assert not csv.exists()


@pytest.mark.parametrize("case", ["fit-input", "suite-config", "fixtures", "malformed-fixtures",
                                  "csv-dir", "suite-csv-dir"])
def test_unreadable_or_unwritable_file_is_bad_input(tmp_path, capsys, monkeypatch, case):
    """A file that cannot be read, or a CSV whose directory does not exist,
    exits 2 before the table is computed, with nothing on stdout and no CSV
    (each ended in FileNotFoundError, exit 1; a fixture table was read, and a
    malformed one refused, only after the table was printed or written)."""
    missing = str(tmp_path / "missing")
    csv = tmp_path / "out.csv"
    bridge = ["bridge-error", "--lmin", "1", "--lmax", "2"]
    calls = []
    monkeypatch.setattr(cli, "experiment_bridge_error", lambda lmin, lmax: calls.append((lmin, lmax)))
    if case == "fit-input":
        argv = ["fit", "--input", missing + ".csv", "--x", "a", "--y", "b", "--csv", str(csv)]
    elif case == "suite-config":
        argv = ["suite", "--config", missing + ".cfg"]
    elif case == "fixtures":
        argv = [*bridge, "--fixtures", missing + ".txt"]
    elif case == "malformed-fixtures":
        bad = tmp_path / "bad.txt"
        bad.write_text("bridge_scaled_bit_error 0.5\n")
        argv = [*bridge, "--fixtures", str(bad), "--csv", str(csv)]
    elif case == "csv-dir":
        csv = tmp_path / "missing" / "out.csv"
        argv = [*bridge, "--csv", str(csv)]
    else:
        csv = tmp_path / "missing" / "out.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"experiment = bridge-error\nlmin = 1\nlmax = 2\ncsv = {csv}\n")
        argv = ["suite", "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert calls == []
    assert not csv.exists()


@pytest.mark.parametrize("pmin,message", [
    ("1080", "error: tail exponent t must be at most 1074 (2**-t underflows beyond it), got 1080.0\n"),
    ("1040", "error: func_h overflows double precision for a above sqrt(1418) = 37.66 (0.5 a**2 > 709), got a = "),
])
def test_appendix_ratios_beyond_the_tail_bounds_names_them(capsys, pmin, message):
    """'math domain error' and 'overflows double precision for this argument'
    named neither the parameter nor its bound."""
    assert main(["appendix-ratios", "--pmin", pmin, "--pmax", pmin]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.out == ""


def test_sde_error_with_an_overflowing_reference_raises(tmp_path):
    """exp(800) overflows the exact solution: the run wrote rms_error inf
    and exited 0, with a numpy RuntimeWarning (an error in this suite)."""
    csv = tmp_path / "out.csv"
    with pytest.raises(NumericFailure, match="non-finite exact reference"):
        main(["sde-error", "--mmin", "2", "--mmax", "2", "--reps", "3", "--mu", "800", "--csv", str(csv)])
    assert not csv.exists()


def test_sde_error_with_an_overflowing_rms_raises(tmp_path):
    """At x0 = 1e200 every max error is finite but its square is not: the
    run wrote rms_error inf and exited 0, with a numpy RuntimeWarning (an
    error in this suite)."""
    csv = tmp_path / "out.csv"
    with pytest.raises(NumericFailure, match="non-finite rms error"):
        main(["sde-error", "--x0", "1e200", "--mmin", "1", "--mmax", "2", "--reps", "2", "--csv", str(csv)])
    assert not csv.exists()


@pytest.mark.parametrize("exc", [InternalInvariantError("ledger mismatch"), NumericFailure("non-finite")])
def test_internal_failures_propagate(monkeypatch, exc):
    def fail(lmin, lmax):
        raise exc

    monkeypatch.setattr(cli, "experiment_bridge_error", fail)
    with pytest.raises(type(exc)):
        main(["bridge-error", "--lmin", "3", "--lmax", "5"])


def test_import_leaves_quadrature_unloaded():
    """scipy.integrate is imported by the quadrature routes only, not at start-up."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, rbitmc, rbitmc.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
