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
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bridge as _bridge
from . import gausskl as _gausskl
from . import mlmc as _mlmc
from . import normal as _normal
from . import sde as _sde
from . import wasserstein1d as _w1d
from .bitcore import child_source
from .errors import ConfigurationError

LN4 = math.log(4.0)


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
    note: str = ""

    def matches(self, observed: float) -> bool:
        """Relative-tolerance comparison (absolute when the value is zero)."""
        if self.value == 0.0:
            return abs(observed) <= self.tolerance
        return abs(observed - self.value) <= self.tolerance * abs(self.value)

    def within_factor(self, observed: float, factor: float = 2.0) -> bool:
        return self.value / factor <= observed <= self.value * factor

    def lower_bound(self, observed: float) -> bool:
        return observed >= self.value

    def upper_bound(self, observed: float) -> bool:
        return observed <= self.value


def load_fixtures(path: str) -> dict[str, Fixture]:
    """Parse the plain-text fixture table: ``name value tolerance # note``."""
    out: dict[str, Fixture] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            body, _, note = line.partition("#")
            parts = body.split()
            if len(parts) != 3:
                raise ConfigurationError(f"{path}:{lineno}: expected 'name value tolerance'")
            name, value, tol = parts
            if name in out:
                raise ConfigurationError(f"{path}:{lineno}: duplicate fixture {name!r}")
            out[name] = Fixture(name, float(value), float(tol), note.strip())
    return out


# ---------------------------------------------------------------------------
# CSV


def format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(format_value(v) for v in row) + "\n")


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        rows = [[float(tok) for tok in line.strip().split(",")] for line in handle if line.strip()]
    return header, rows


# ---------------------------------------------------------------------------
# experiments (shared by the CLI and run_suite)


def experiment_normal_error(pmin: int, pmax: int):
    header = ["p", "mse", "rmse", "scaled_const", "moment2", "moment4"]
    rows = []
    flagged = []
    for p in range(pmin, pmax + 1):
        if p <= _normal.MSE_EXACT_MAX_P:
            mse = _normal.bit_normal_mse(p)
            m2 = _normal.bit_normal_moment(p, 2)
            m4 = _normal.bit_normal_moment(p, 4)
        else:
            # beyond the exact-enumeration cap: asymptotic surrogate, flagged
            mse = _normal.bit_normal_mse_surrogate(p)
            m2 = m4 = math.nan
            flagged.append(p)
        rows.append([p, mse, math.sqrt(mse), 2.0**p * p * mse, m2, m4])
    if flagged:
        print(f"note: rows p in {flagged} exceed the exact cap "
              f"(p <= {_normal.MSE_EXACT_MAX_P}); mse is the asymptotic surrogate "
              f"{_normal.MSE_SCALED_LIMIT:.6f} * 2**-p / p and moments are nan",
              file=sys.stderr)
    return header, rows


def experiment_rbit_1d(law: str, pmin: int, pmax: int):
    if law == "normal":
        spec = _w1d.standard_normal_spec()
    elif law == "uniform":
        spec = _w1d.uniform_spec()
    else:
        raise ConfigurationError(f"unknown law {law!r}; expected normal or uniform")
    header = ["p", "rbit", "scaled_2p", "scaled_2p_p_sq"]
    rows = []
    for p in range(pmin, pmax + 1):
        r = _w1d.rbit_error(spec, p)
        rows.append([p, r, 2.0**p * r, 2.0**p * p * r * r])
    return header, rows


def experiment_bridge_error(lmin: int, lmax: int):
    header = ["level", "bits", "trunc_err_sq", "bit_err_sq", "scaled"]
    rows = []
    for level in range(lmin, lmax + 1):
        err = _bridge.bridge_bit_error_sq(level)
        rows.append([level, _bridge.allocation_bridge_total(level),
                     _bridge.bridge_truncation_error_sq(level), err, 2.0**level * err])
    return header, rows


def experiment_kl_error(beta: float, alpha: float, mmin: int, mmax: int):
    spec = _gausskl.EigenSpec(beta=beta, alpha=alpha)
    header = ["m", "bits", "err_sq", "scaled"]
    rows = []
    m = mmin
    while m <= mmax:
        err = _gausskl.kl_error_sq(m, spec)
        scaled = m ** (beta - 1.0) * math.log(m) ** alpha * err
        rows.append([m, _gausskl.allocation_kl(m, spec).total, err, scaled])
        m *= 2
    return header, rows


def experiment_sde_error(mu: float, sigma: float, x0: float, q: int,
                         mmin: int, mmax: int, reps: int, seed: int):
    model = _sde.geometric_model(mu, sigma, x0)
    header = ["m", "q", "reps", "rms_error", "bits"]
    rows = []
    m = mmin
    while m <= mmax:
        rms, ledger = _sde.strong_error_experiment(model, m, q, reps, seed)
        rows.append([m, q, reps, rms, ledger.bits])
        m *= 2
    return header, rows


def experiment_mlmc(model_name: str, beta: float, alpha: float, eps: float,
                    functional: str, runs: int, seed: int):
    if model_name == "bridge":
        model = _mlmc.bridge_model()
        beta, alpha = model.beta, model.alpha
    elif model_name == "kl":
        model = _mlmc.kl_model(_gausskl.EigenSpec(beta=beta, alpha=alpha))
    else:
        raise ConfigurationError(f"unknown model {model_name!r}; expected bridge or kl")
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
    table = _normal.asymptotic_ratios(grid)
    header = ["p", "ratio1", "ratio2", "ratio3", "ratio4", "ratio5"]
    rows = [[table["p"][j]] + [table[f"ratio{i}"][j] for i in range(1, 6)]
            for j in range(len(grid))]
    return header, rows


# ---------------------------------------------------------------------------
# fixture checks attached to experiments


def _fixture_failures(experiment: str, header, rows, fixtures: dict[str, Fixture],
                      context: dict) -> list[str]:
    failures: list[str] = []

    def need(name: str) -> Optional[Fixture]:
        return fixtures.get(name)

    if experiment == "bridge-error":
        fx = need("bridge_scaled_bit_error")
        if fx:
            col = header.index("scaled")
            lvl = header.index("level")
            for row in rows:
                if 6 <= row[lvl] <= 16 and not fx.matches(row[col]):
                    failures.append(
                        f"bridge_scaled_bit_error: level {int(row[lvl])} scaled {row[col]!r} "
                        f"outside {fx.value} +- {fx.tolerance * 100:.0f}%")
    elif experiment == "kl-error":
        key = f"kl_scaled_b{context['beta']:g}_a{context['alpha']:g}"
        fx = need(key)
        if fx:
            col = header.index("scaled")
            for row in rows:
                if not fx.within_factor(row[col], 2.0):
                    failures.append(f"{key}: scaled {row[col]!r} outside factor-4 bracket of {fx.value}")
    elif experiment == "mlmc" and context.get("functional") == "coord1":
        fx = need("mlmc_c_rmse")
        if fx:
            col = header.index("estimate")
            rmse = math.sqrt(float(np.mean([row[col] ** 2 for row in rows])))
            if rmse > fx.value * context["eps"]:
                failures.append(f"mlmc_c_rmse: rmse {rmse!r} exceeds {fx.value} * eps")
    elif experiment == "appendix-ratios":
        fx = need("appendix_ratio5_lower")
        if fx:
            col = header.index("ratio5")
            for row in rows:
                if not fx.lower_bound(row[col]):
                    failures.append(f"appendix_ratio5_lower: ratio5 {row[col]!r} below {fx.value}")
    return failures


# ---------------------------------------------------------------------------
# configuration files (strict key=value)

_SUITE_KEYS = {
    "normal-error": {"pmin", "pmax"},
    "rbit-1d": {"law", "pmin", "pmax"},
    "bridge-error": {"lmin", "lmax"},
    "kl-error": {"beta", "alpha", "mmin", "mmax"},
    "sde-error": {"mu", "sigma", "x0", "q", "mmin", "mmax", "reps"},
    "mlmc": {"model", "beta", "alpha", "eps", "functional", "runs"},
    "appendix-ratios": {"pmin", "pmax"},
}
_COMMON_KEYS = {"experiment", "seed", "csv", "fixtures"}


def parse_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
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
    if exp not in _SUITE_KEYS:
        raise ConfigurationError(f"{path}: unknown experiment {exp!r}")
    allowed = _SUITE_KEYS[exp] | _COMMON_KEYS
    unknown = set(out) - allowed
    if unknown:
        raise ConfigurationError(f"{path}: unknown keys {sorted(unknown)} for {exp}")
    return out


def _run_experiment(exp: str, cfg: dict) -> tuple[list[str], list[list], dict]:
    seed = int(cfg.get("seed", 0))
    if exp == "normal-error":
        h, r = experiment_normal_error(int(cfg["pmin"]), int(cfg["pmax"]))
        ctx = {}
    elif exp == "rbit-1d":
        h, r = experiment_rbit_1d(cfg.get("law", "normal"), int(cfg["pmin"]), int(cfg["pmax"]))
        ctx = {}
    elif exp == "bridge-error":
        h, r = experiment_bridge_error(int(cfg["lmin"]), int(cfg["lmax"]))
        ctx = {}
    elif exp == "kl-error":
        beta, alpha = float(cfg["beta"]), float(cfg["alpha"])
        h, r = experiment_kl_error(beta, alpha, int(cfg["mmin"]), int(cfg["mmax"]))
        ctx = {"beta": beta, "alpha": alpha}
    elif exp == "sde-error":
        h, r = experiment_sde_error(
            float(cfg.get("mu", 0.05)), float(cfg.get("sigma", 0.2)),
            float(cfg.get("x0", 1.0)), int(cfg.get("q", 52)),
            int(cfg["mmin"]), int(cfg["mmax"]), int(cfg.get("reps", 100)), seed)
        ctx = {}
    elif exp == "mlmc":
        eps = float(cfg["eps"])
        functional = cfg.get("functional", "norm")
        h, r = experiment_mlmc(cfg.get("model", "bridge"), float(cfg.get("beta", 2.0)),
                               float(cfg.get("alpha", 0.0)), eps, functional,
                               int(cfg.get("runs", 100)), seed)
        ctx = {"eps": eps, "functional": functional}
    elif exp == "appendix-ratios":
        h, r = experiment_appendix_ratios(float(cfg["pmin"]), float(cfg["pmax"]))
        ctx = {}
    else:
        raise ConfigurationError(f"unknown experiment {exp!r}")
    return h, r, ctx


def run_suite(config_path: str, fixtures_path: Optional[str] = None) -> int:
    """Execute the configured experiment, write its CSV, check fixtures.

    Returns 0 on success, 1 if any fixture comparison fails (the failing
    fixture is named on stderr), raising ConfigurationError on bad input.
    """
    cfg = parse_config(config_path)
    exp = cfg["experiment"]
    header, rows, ctx = _run_experiment(exp, cfg)
    if "csv" in cfg:
        write_csv(cfg["csv"], header, rows)
    fixtures: dict[str, Fixture] = {}
    path = fixtures_path or cfg.get("fixtures")
    if path:
        fixtures = load_fixtures(path)
    failures = _fixture_failures(exp, header, rows, fixtures, ctx)
    for msg in failures:
        print(f"FIXTURE FAIL {msg}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argparse front end


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="decimal 64-bit seed")
    p.add_argument("--csv", type=str, default=None, help="output CSV path")
    p.add_argument("--fixtures", type=str, default=None, help="fixture table to check")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rbitmc",
                                     description="random-bit distribution approximation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normal-error", help="exact p-bit normal error table")
    p.add_argument("--pmin", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("rbit-1d", help="exact best-approximation distance for a 1-d law")
    p.add_argument("--law", choices=["normal", "uniform"], default="normal")
    p.add_argument("--pmin", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("bridge-error", help="bridge truncation and bit error table")
    p.add_argument("--lmin", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("kl-error", help="Karhunen-Loeve error table")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mmin", type=int, required=True)
    p.add_argument("--mmax", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("sde-error", help="strong error of the random-bit Milstein scheme")
    p.add_argument("--mu", type=float, default=0.05)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--q", type=int, default=52)
    p.add_argument("--mmin", type=int, required=True)
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--reps", type=int, default=1000)
    _add_common(p)

    p = sub.add_parser("mlmc", help="random-bit multilevel Monte Carlo runs")
    p.add_argument("--model", choices=["bridge", "kl"], default="bridge")
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--functional", type=str, default="norm")
    p.add_argument("--runs", type=int, default=100)
    _add_common(p)

    p = sub.add_parser("appendix-ratios", help="tail asymptotics diagnostic ratios")
    p.add_argument("--pmin", type=float, default=10.0)
    p.add_argument("--pmax", type=float, default=50.0)
    _add_common(p)

    p = sub.add_parser("fit", help="log-log rate fit of two CSV columns")
    p.add_argument("--input", type=str, required=True, help="input CSV")
    p.add_argument("--x", type=str, required=True, help="abscissa column name")
    p.add_argument("--y", type=str, required=True, help="ordinate column name")
    _add_common(p)

    p = sub.add_parser("suite", help="run a config-file experiment with fixture checks")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--fixtures", type=str, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cmd = args.command
    try:
        if cmd == "suite":
            return run_suite(args.config, args.fixtures)
        if cmd == "fit":
            header, rows = read_csv(args.input)
            xi, yi = header.index(args.x), header.index(args.y)
            fit = fit_rate([r[xi] for r in rows], [r[yi] for r in rows])
            out_header = ["slope", "intercept", "residual_max", "n_points"]
            out_rows = [[fit.slope, fit.intercept, fit.residual_max, fit.n_points]]
            if args.csv:
                write_csv(args.csv, out_header, out_rows)
            print(",".join(out_header))
            print(",".join(format_value(v) for v in out_rows[0]))
            return 0
        cfg = {"seed": str(args.seed)}
        if cmd == "normal-error":
            cfg.update(pmin=args.pmin, pmax=args.pmax)
        elif cmd == "rbit-1d":
            cfg.update(law=args.law, pmin=args.pmin, pmax=args.pmax)
        elif cmd == "bridge-error":
            cfg.update(lmin=args.lmin, lmax=args.lmax)
        elif cmd == "kl-error":
            cfg.update(beta=args.beta, alpha=args.alpha, mmin=args.mmin, mmax=args.mmax)
        elif cmd == "sde-error":
            cfg.update(mu=args.mu, sigma=args.sigma, x0=args.x0, q=args.q,
                       mmin=args.mmin, mmax=args.mmax, reps=args.reps)
        elif cmd == "mlmc":
            cfg.update(model=args.model, beta=args.beta, alpha=args.alpha,
                       eps=args.eps, functional=args.functional, runs=args.runs)
        elif cmd == "appendix-ratios":
            cfg.update(pmin=args.pmin, pmax=args.pmax)
        cfg = {k: str(v) for k, v in cfg.items()}
        header, rows, ctx = _run_experiment(cmd, cfg)
        if args.csv:
            write_csv(args.csv, header, rows)
        else:
            print(",".join(header))
            for row in rows:
                print(",".join(format_value(v) for v in row))
        fixtures = load_fixtures(args.fixtures) if args.fixtures else {}
        failures = _fixture_failures(cmd, header, rows, fixtures, ctx)
        for msg in failures:
            print(f"FIXTURE FAIL {msg}", file=sys.stderr)
        return 1 if failures else 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
