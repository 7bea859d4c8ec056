import ast
import importlib
import math
import os
import re
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
