"""Experiment harness: subcommand dispatch, deterministic seeding, CSV
emission, log-log rate fitting, and regression-fixture management.

Every experiment is reproducible from (configuration, seed): rerunning a
subcommand with identical arguments regenerates its CSV byte for byte.
Reals are written with 17 significant digits; all logarithms in fitted
columns are natural unless the header says otherwise.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import bridge as _bridge
from . import gausskl as _gausskl
from . import mlmc as _mlmc
from . import normal as _normal
from . import sde as _sde
from . import wasserstein1d as _w1d
from .bitcore import MAX_BITS, check_count, check_finite, child_source
from .errors import CapacityError, ConfigurationError


# ---------------------------------------------------------------------------
# rate fitting


@dataclass
class RateFit:
    slope: float
    intercept: float
    residual_max: float
    n_points: int


def fit_rate(xs: Sequence[float], ys: Sequence[float]) -> RateFit:
    """Ordinary least squares of ln(y) against ln(x)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 3:
        raise ValueError("need two equal-length sequences of at least 3 points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("rate fits require finite data")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("rate fits require strictly positive data")
    lx, ly = np.log(x), np.log(y)
    if np.all(lx == lx[0]):
        raise ValueError("degenerate fit: all abscissae equal")
    a = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, ly, rcond=None)
    resid = ly - (slope * lx + intercept)
    return RateFit(float(slope), float(intercept), float(np.max(np.abs(resid))), len(x))


# ---------------------------------------------------------------------------
# fixtures


@dataclass
class Fixture:
    name: str
    value: float
    tolerance: float

    def matches(self, observed: float) -> bool:
        """Relative-tolerance comparison (absolute when the value is zero)."""
        if self.value == 0.0:
            return abs(observed) <= self.tolerance
        return abs(observed - self.value) <= self.tolerance * abs(self.value)

    def within_factor(self, observed: float) -> bool:
        """Within a factor 2 of the value either way (a factor-4 bracket)."""
        return self.value / 2.0 <= observed <= self.value * 2.0

    def lower_bound(self, observed: float) -> bool:
        return observed >= self.value


def _entries(path: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of every line of a fixture table, suite
    config or CSV that is neither blank nor a comment."""
    with open(path, "r", encoding="utf-8") as handle:
        return [(lineno, line) for lineno, line in enumerate(map(str.strip, handle), start=1)
                if line and not line.startswith("#")]


def load_fixtures(path: str) -> dict[str, Fixture]:
    """Parse the plain-text fixture table: ``name value tolerance``, with an
    optional ``# note`` after it, a comment.
    A value that is not finite or a tolerance that is negative or not finite
    raises ConfigurationError naming ``path:line``: with inf or nan every
    comparison would pass or fail whatever the experiment computed."""
    out: dict[str, Fixture] = {}
    for lineno, line in _entries(path):
        body = line.partition("#")[0]
        parts = body.split()
        if len(parts) != 3:
            raise ConfigurationError(f"{path}:{lineno}: expected 'name value tolerance'")
        name, value, tol = parts
        if name in out:
            raise ConfigurationError(f"{path}:{lineno}: duplicate fixture {name!r}")
        try:
            out[name] = Fixture(name, float(value), float(tol))
        except ValueError:
            raise ConfigurationError(f"{path}:{lineno}: value {value!r} and tolerance {tol!r} "
                                     "must be numbers") from None
        if not (math.isfinite(out[name].value) and 0.0 <= out[name].tolerance < math.inf):
            raise ConfigurationError(f"{path}:{lineno}: value {value!r} must be finite and tolerance {tol!r} "
                                     "finite and non-negative")
    return out


# ---------------------------------------------------------------------------
# CSV


def format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def _write_rows(handle, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """The one CSV row format, for files and stdout alike."""
    handle.write(",".join(header) + "\n")
    for row in rows:
        handle.write(",".join(format_value(v) for v in row) + "\n")


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        _write_rows(handle, header, rows)


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    """Header and numeric rows of a CSV; a row whose length differs from the
    header's, or a cell that is not a number, raises ConfigurationError
    naming ``path:line``."""
    entries = _entries(path)
    header = entries[0][1].split(",") if entries else []
    rows = []
    for lineno, line in entries[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigurationError(f"{path}:{lineno}: expected {len(header)} cells, as in the header, "
                                     f"got {len(cells)}")
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            raise ConfigurationError(f"{path}:{lineno}: cells {line!r} must be numbers") from None
    return header, rows


# ---------------------------------------------------------------------------
# experiments (shared by the CLI and run_suite)


def _note_surrogate(column: str, top: dict, extra: str = "") -> None:
    """One stderr note naming the rows whose largest bit count (``top``,
    {row key: max p}) is above the exact cap, whose error values use the
    asymptotic mse surrogate; this is the one place the tables decide it."""
    flagged = sorted(key for key, p in top.items() if p > _normal.MSE_EXACT_MAX_P)
    if flagged:
        print(f"note: rows {column} in {flagged} have bit counts p above the exact cap "
              f"{_normal.MSE_EXACT_MAX_P}; the mse at such p is the asymptotic surrogate "
              f"{_normal.MSE_SCALED_LIMIT:.6f} * 2**-p / p{extra}", file=sys.stderr)


def _rows_top_down(keys, row) -> list:
    """[row(k) for k in keys], computed from the last key down: a key beyond
    a library cap is refused before any row below it is computed."""
    return [row(k) for k in reversed(keys)][::-1]


def experiment_normal_error(pmin: int, pmax: int):
    if pmax > MAX_BITS:
        raise ValueError(f"pmax must be at most {MAX_BITS}: no draw makes a {pmax}-bit normal")
    header = ["p", "mse", "rmse", "scaled_const", "moment2", "moment4"]
    rows = []
    for p in range(pmin, pmax + 1):
        mse, m2, m4 = (_normal.bit_normal_mse_moments(p) if p <= _normal.MSE_EXACT_MAX_P
                       else (_normal.bit_normal_mse_extended(p), math.nan, math.nan))
        rows.append([p, mse, math.sqrt(mse), 2.0**p * p * mse, m2, m4])
    _note_surrogate("p", {p: p for p in range(pmin, pmax + 1)}, " and moments are nan")
    return header, rows


def _doubling(lo: int, hi: int) -> list[int]:
    """lo, 2 lo, 4 lo, ... up to hi; [lo] alone for lo < 1, which the
    experiment then refuses."""
    return [lo << k for k in range((hi // lo).bit_length())] if lo > 0 else [lo]


_LAWS = {"normal": _w1d.standard_normal_spec, "uniform": _w1d.uniform_spec}  # rbit-1d --law


def experiment_rbit_1d(law: str, pmin: int, pmax: int):
    spec = _LAWS[law]()
    header = ["p", "rbit", "scaled_2p", "scaled_2p_p_sq"]

    def row(p):
        r = _w1d.rbit_error(spec, p)
        return [p, r, 2.0**p * r, 2.0**p * p * r * r]

    return header, _rows_top_down(range(pmin, pmax + 1), row)


def experiment_bridge_error(lmin: int, lmax: int):
    header = ["level", "bits", "trunc_err_sq", "bit_err_sq", "scaled"]

    def row(level):
        err = _bridge.bridge_bit_error_sq(level)
        return [level, _bridge.allocation_bridge_total(level),
                _bridge.bridge_truncation_error_sq(level), err, 2.0**level * err]

    rows = _rows_top_down(range(lmin, lmax + 1), row)
    _note_surrogate("level", {level: 2 * level for level in range(lmin, lmax + 1)})  # p = 2 * level at m = 0
    return header, rows


def experiment_kl_error(beta: float, alpha: float, mmin: int, mmax: int):
    if alpha < 0.0 and mmin < 2:
        raise ConfigurationError(f"kl-error: mmin {mmin} must be at least 2 for alpha {alpha:g} < 0, "
                                 f"as the scaled column's factor (ln m)**alpha is undefined at m = 1")
    spec = _gausskl.EigenSpec(beta=beta, alpha=alpha)
    header = ["m", "bits", "err_sq", "scaled"]
    top = {}

    def row(m):
        alloc = _gausskl.allocation_kl(m, spec)
        err = _gausskl.kl_error_sq(m, spec, alloc)
        top[m] = alloc.counts.max()
        return [m, alloc.total, err, m ** (beta - 1.0) * math.log(m) ** alpha * err]

    rows = _rows_top_down(_doubling(mmin, mmax), row)
    _note_surrogate("m", top)
    return header, rows


def experiment_sde_error(mu: float, sigma: float, x0: float, q: int,
                         mmin: int, mmax: int, reps: int, seed: int):
    model = _sde.geometric_model(mu, sigma, x0)
    header = ["m", "q", "reps", "rms_error", "bits"]

    def row(m):
        rms, ledger = _sde.strong_error_experiment(model, m, q, reps, seed)
        return [m, q, reps, rms, ledger.bits]

    return header, _rows_top_down(_doubling(mmin, mmax), row)


_MODELS = {"bridge": lambda beta, alpha: _mlmc.bridge_model(),  # mlmc --model: (beta, alpha) -> model
           "kl": lambda beta, alpha: _mlmc.kl_model(_gausskl.EigenSpec(beta=beta, alpha=alpha))}


def experiment_mlmc(model_name: str, beta: float, alpha: float, eps: float,
                    functional: str, runs: int, seed: int):
    model = _MODELS[model_name](beta, alpha)
    if (beta, alpha) != (model.beta, model.alpha):
        raise ConfigurationError(f"the {model_name} model has beta {model.beta:g} and alpha {model.alpha:g}, "
                                 f"got beta {beta:g} and alpha {alpha:g}")
    check_count("runs", runs, 1)
    params = _mlmc.mlmc_params(eps, beta, alpha)
    f = _mlmc.lookup_functional(functional)
    cost = _mlmc.theoretical_cost(params)
    header = ["run", "estimate", "bits", "oracle_cost", "theoretical_cost"]
    rows = []
    for r in range(runs):
        res = _mlmc.mlmc_estimate(f, model, params, child_source(seed, r))
        rows.append([r, res.estimate, res.ledger.bits, res.ledger.oracle_cost, cost])
    return header, rows


def experiment_appendix_ratios(pmin: float, pmax: float):
    grid = np.arange(math.ceil(pmin), math.floor(pmax) + 1, dtype=np.float64)
    if len(grid) == 0:
        raise ValueError(f"no integer p in [{pmin:g}, {pmax:g}]")
    table = _normal.asymptotic_ratios(grid)
    header = ["p", "ratio1", "ratio2", "ratio3", "ratio4", "ratio5"]
    rows = [[table["p"][j]] + [table[f"ratio{i}"][j] for i in range(1, 6)]
            for j in range(len(grid))]
    return header, rows


# ---------------------------------------------------------------------------
# fixture checks: (fixture table, CSV rows as {column: value}, typed
# parameters) -> one message per failed comparison


def _check_normal_error(fixtures: dict[str, Fixture], records, a) -> list[str]:
    fx = fixtures.get("normal_scaled_mse_p26")
    return [f"normal_scaled_mse_p26: p 26 scaled_const {r['scaled_const']!r} "
            f"outside {fx.value} +- {fx.tolerance:g} relative"
            for r in records if fx and r["p"] == 26 and not fx.matches(r["scaled_const"])]


def _check_bridge_error(fixtures: dict[str, Fixture], records, a) -> list[str]:
    fx = fixtures.get("bridge_scaled_bit_error")
    return [f"bridge_scaled_bit_error: level {int(r['level'])} scaled {r['scaled']!r} "
            f"outside {fx.value} +- {fx.tolerance * 100:.0f}%"
            for r in records if fx and 6 <= r["level"] <= 16 and not fx.matches(r["scaled"])]


def _check_kl_error(fixtures: dict[str, Fixture], records, a) -> list[str]:
    key = f"kl_scaled_b{a['beta']:g}_a{a['alpha']:g}"
    fx = fixtures.get(key)
    return [f"{key}: scaled {r['scaled']!r} outside factor-4 bracket of {fx.value}"
            for r in records if fx and not fx.within_factor(r["scaled"])]


def _check_mlmc(fixtures: dict[str, Fixture], records, a) -> list[str]:
    fx = fixtures.get("mlmc_c_rmse")
    if fx is None or a["functional"] != "coord1":
        return []
    rmse = math.sqrt(float(np.mean([r["estimate"] ** 2 for r in records]))) if records else math.nan
    if math.isfinite(rmse) and rmse <= fx.value * a["eps"]:
        return []
    return [f"mlmc_c_rmse: rmse {rmse!r} is not finite or exceeds {fx.value} * eps"]


def _check_appendix_ratios(fixtures: dict[str, Fixture], records, a) -> list[str]:
    fx = fixtures.get("appendix_ratio5_lower")
    return [f"appendix_ratio5_lower: ratio5 {r['ratio5']!r} below {fx.value}"
            for r in records if fx and not fx.lower_bound(r["ratio5"])]


# ---------------------------------------------------------------------------
# the experiment table, which generates argparse, suite validation and
# dispatch; ``run`` looks experiment_* up at call time, so rebinding is seen


@dataclass(frozen=True)
class Param:
    name: str
    type: type
    default: object = None  # None: required
    choices: tuple = ()
    help: Optional[str] = None


@dataclass(frozen=True)
class Experiment:
    help: str
    params: tuple[Param, ...]
    run: Callable[[dict], tuple[list[str], list[list]]]
    check: Optional[Callable[[dict, list[dict], dict], list[str]]] = None


EXPERIMENTS: dict[str, Experiment] = {
    "normal-error": Experiment(
        "exact p-bit normal error table",
        (Param("pmin", int), Param("pmax", int)),
        lambda a: experiment_normal_error(a["pmin"], a["pmax"]),
        _check_normal_error),
    "rbit-1d": Experiment(
        "exact best-approximation distance for a 1-d law",
        (Param("law", str, "normal", tuple(_LAWS)), Param("pmin", int), Param("pmax", int)),
        lambda a: experiment_rbit_1d(a["law"], a["pmin"], a["pmax"])),
    "bridge-error": Experiment(
        "bridge truncation and bit error table",
        (Param("lmin", int), Param("lmax", int)),
        lambda a: experiment_bridge_error(a["lmin"], a["lmax"]),
        _check_bridge_error),
    "kl-error": Experiment(
        "Karhunen-Loeve error table",
        (Param("beta", float), Param("alpha", float), Param("mmin", int), Param("mmax", int)),
        lambda a: experiment_kl_error(a["beta"], a["alpha"], a["mmin"], a["mmax"]),
        _check_kl_error),
    "sde-error": Experiment(
        "strong error of the random-bit Milstein scheme",
        (Param("mu", float, 0.05), Param("sigma", float, 0.2), Param("x0", float, 1.0),
         Param("q", int, 52), Param("mmin", int), Param("mmax", int), Param("reps", int, 1000)),
        lambda a: experiment_sde_error(a["mu"], a["sigma"], a["x0"], a["q"],
                                       a["mmin"], a["mmax"], a["reps"], a["seed"])),
    "mlmc": Experiment(
        "random-bit multilevel Monte Carlo runs",
        (Param("model", str, "bridge", tuple(_MODELS)), Param("beta", float, 2.0),
         Param("alpha", float, 0.0), Param("eps", float), Param("functional", str, "norm"),
         Param("runs", int, 100)),
        lambda a: experiment_mlmc(a["model"], a["beta"], a["alpha"], a["eps"],
                                  a["functional"], a["runs"], a["seed"]),
        _check_mlmc),
    "appendix-ratios": Experiment(
        "tail asymptotics diagnostic ratios",
        (Param("pmin", float, 10.0), Param("pmax", float, 50.0)),
        lambda a: experiment_appendix_ratios(a["pmin"], a["pmax"]),
        _check_appendix_ratios),
}

_SEED = Param("seed", int, 0, help="decimal 64-bit seed")  # taken by every experiment


def _run(name: str, values: dict, csv: Optional[str], fixtures_path: Optional[str]) -> int:
    """Check values and ranges, load the fixtures, run, write the CSV (or
    print it), check fixtures; 1 if any fixture fails.  A float parameter
    that is not finite raises ValueError.  Every ``<x>min`` parameter with a
    ``<x>max`` partner is a range, and an inverted one raises
    ConfigurationError, as does a CSV path in a directory that does not
    exist; all of these, and an unreadable fixture table, raise before the
    experiment runs."""
    exp = EXPERIMENTS[name]
    check_finite(**{prm.name: values[prm.name] for prm in exp.params if prm.type is float})
    for prm in exp.params:
        hi = prm.name[:-3] + "max"
        if prm.name.endswith("min") and hi in values and values[prm.name] > values[hi]:
            raise ConfigurationError(f"{name}: {prm.name} {values[prm.name]} exceeds {hi} {values[hi]}")
    if csv and not os.path.isdir(os.path.dirname(csv) or "."):
        raise ConfigurationError(f"csv {csv!r}: directory {os.path.dirname(csv)!r} does not exist")
    fixtures = load_fixtures(fixtures_path) if fixtures_path else {}
    header, rows = exp.run(values)
    if csv:
        write_csv(csv, header, rows)
    else:
        _write_rows(sys.stdout, header, rows)
    records = [dict(zip(header, row)) for row in rows]
    failures = exp.check(fixtures, records, values) if exp.check else []
    for msg in failures:
        print(f"FIXTURE FAIL {msg}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# configuration files (strict key=value)


def _config_values(path: str, cfg: dict[str, str]) -> dict:
    """The typed parameters of a suite config; missing or malformed keys raise."""
    name, values = cfg["experiment"], {}
    for prm in (*EXPERIMENTS[name].params, _SEED):
        raw, where = cfg.get(prm.name), f"{path}: {name} key {prm.name!r}"
        if raw is None and prm.default is None:
            raise ConfigurationError(f"{where} is required")
        if raw is not None and prm.choices and raw not in prm.choices:
            raise ConfigurationError(f"{where}: {raw!r} is not one of {', '.join(prm.choices)}")
        try:
            values[prm.name] = prm.default if raw is None else prm.type(raw)
        except ValueError:
            raise ConfigurationError(f"{where}: {raw!r} is not a valid {prm.type.__name__}") from None
    return values


def parse_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in _entries(path):
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in out:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    if "experiment" not in out:
        raise ConfigurationError(f"{path}: missing required key 'experiment'")
    exp = out["experiment"]
    if exp not in EXPERIMENTS:
        raise ConfigurationError(f"{path}: unknown experiment {exp!r}")
    allowed = {prm.name for prm in (*EXPERIMENTS[exp].params, _SEED)} | {"experiment", "csv", "fixtures"}
    unknown = set(out) - allowed
    if unknown:
        raise ConfigurationError(f"{path}: unknown keys {sorted(unknown)} for {exp}")
    _config_values(path, out)
    return out


def run_suite(config_path: str, fixtures_path: Optional[str] = None) -> int:
    """Execute the configured experiment, write (or print) its CSV, check
    fixtures: 0 on success, 1 if a fixture comparison fails (named on
    stderr); bad input raises ConfigurationError."""
    cfg = parse_config(config_path)
    return _run(cfg["experiment"], _config_values(config_path, cfg),
                cfg.get("csv"), fixtures_path or cfg.get("fixtures"))


# ---------------------------------------------------------------------------
# argparse front end


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rbitmc",
                                     description="random-bit distribution approximation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, exp in EXPERIMENTS.items():
        p = sub.add_parser(name, help=exp.help)
        for prm in (*exp.params, _SEED):
            p.add_argument(f"--{prm.name}", type=prm.type, default=prm.default,
                           required=prm.default is None, choices=prm.choices or None, help=prm.help)
        p.add_argument("--csv", type=str, default=None, help="output CSV path")
        p.add_argument("--fixtures", type=str, default=None, help="fixture table to check")

    p = sub.add_parser("fit", help="log-log rate fit of two CSV columns")
    p.add_argument("--input", type=str, required=True, help="input CSV")
    p.add_argument("--x", type=str, required=True, help="abscissa column name")
    p.add_argument("--y", type=str, required=True, help="ordinate column name")
    p.add_argument("--csv", type=str, default=None, help="output CSV path")

    p = sub.add_parser("suite", help="run a config-file experiment with fixture checks")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--fixtures", type=str, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Exit code 0 on success, 1 if a fixture check fails, 2 on bad input
    (ConfigurationError, the ValueError of a library argument check, the
    CapacityError of a request beyond an exact-evaluation cap, or the
    OSError of a file that cannot be read or written)."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "suite":
            return run_suite(args.config, args.fixtures)
        if args.command == "fit":
            header, rows = read_csv(args.input)
            for col in (args.x, args.y):
                if col not in header:
                    raise ConfigurationError(f"{args.input} has no column {col!r}; columns: {', '.join(header)}")
            xi, yi = header.index(args.x), header.index(args.y)
            fit = fit_rate([r[xi] for r in rows], [r[yi] for r in rows])
            out_header = ["slope", "intercept", "residual_max", "n_points"]
            out_rows = [[fit.slope, fit.intercept, fit.residual_max, fit.n_points]]
            if args.csv:
                write_csv(args.csv, out_header, out_rows)
            _write_rows(sys.stdout, out_header, out_rows)
            return 0
        values = {prm.name: getattr(args, prm.name)
                  for prm in (*EXPERIMENTS[args.command].params, _SEED)}
        return _run(args.command, values, args.csv, args.fixtures)
    except (ConfigurationError, CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
