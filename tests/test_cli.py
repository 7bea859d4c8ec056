import math
import os

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
from rbitmc.errors import ConfigurationError

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
])
def test_out_of_range_argument_is_bad_input(capsys, args):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


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


def test_mlmc_without_runs_is_bad_input(capsys):
    args = ["mlmc", "--eps", "0.125", "--functional", "coord1", "--fixtures", FIXTURES]
    assert main([*args, "--runs", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: runs must be a positive integer")


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
