"""The benchmark's workloads: inputs made from the workload seed, the timed
op, and the checks every op's output must pass.

Each workload is a closed loop with one caller.  Its ops cycle a schedule of
``period`` inputs made from the seed; the schedule is a sequence of rounds,
each a seeded shuffle of the workload's op kinds, so every whole round does
the same work whatever the seed, and a run does whole rounds.  The program receives only the generated
inputs.  The rbitmc modules are imported in :meth:`Workload.load`, which the
set-up time covers.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
FIXTURES = ROOT / "fixtures" / "acceptance.txt"

DEFAULT_SEED = 1


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _rounds(seed: int, kinds: list, rounds: int) -> list:
    """``rounds`` seeded shuffles of ``kinds``, concatenated."""
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        block = list(kinds)
        rng.shuffle(block)
        out.extend(block)
    return out


class Workload:
    """One workload: ``build`` makes the inputs, ``op`` is the timed call."""

    name = ""
    round_size = 1
    round_s = 1.0  # nominal seconds per round on a 2-vCPU x86-64 VM; sets the op count
    period = 1
    seed_independent = False  # outputs, and so digests, do not depend on the seed
    ops_in_children = False  # ops run in child processes, whose peak RSS counts

    def load(self) -> None:
        """Import the layers the workload calls (part of set-up)."""

    def build(self, seed: int) -> dict:
        raise NotImplementedError

    def warm_up(self, ctx: dict) -> None:
        """Fill lazily built tables before the first timed op."""

    def op(self, ctx: dict, item):
        raise NotImplementedError

    def check(self, ctx: dict, item, out) -> list[str]:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def digest_key(self, item) -> str:
        return str(item[-1])

    def kind(self, item):
        """The op kind of ``item``; ``op_best_ms`` takes each kind's fastest op."""
        return self.name


class MlmcRuns(Workload):
    """``mlmc_estimate`` at eps over model {bridge, KL(2, 0)} x functional {norm, coord1}."""

    name = "mlmc_runs"
    round_size = 4
    round_s = 0.085
    period = 600

    def __init__(self, eps: float = 2.0 ** -6):
        self.eps = eps

    def load(self):
        from rbitmc import bitcore, gausskl, mlmc
        self.bitcore, self.gausskl, self.mlmc = bitcore, gausskl, mlmc

    def build(self, seed):
        M = self.mlmc
        spec = self.gausskl.EigenSpec(beta=2.0, alpha=0.0)
        models = {"bridge": M.bridge_model(), "kl": M.kl_model(spec)}
        functionals = {f: M.lookup_functional(f) for f in ("norm", "coord1")}
        params, bits, oracle = {}, {}, {}
        for key, model in models.items():
            prm = M.mlmc_params(self.eps, model.beta, model.alpha)
            levels = range(1, prm.L + 1)
            if key == "bridge":
                dims = {l: (1 << l) - 1 for l in range(prm.L + 1)}
                per_fine = {l: (1 << (l + 2)) - 2 * l - 4 for l in levels}
            else:
                dims = {l: 1 << l for l in range(prm.L + 1)}
                per_fine = {l: self.gausskl.allocation_kl(1 << l, spec).total for l in levels}
            params[key] = prm
            bits[key] = sum(n * per_fine[l] for l, n in zip(levels, prm.N))
            oracle[key] = sum(n * (dims[l] + (dims[l - 1] if l > 1 else 0))
                              for l, n in zip(levels, prm.N))
        kinds = [(m, f) for m in models for f in functionals]
        order = _rounds(seed, kinds, self.period // self.round_size)
        schedule = [(m, f, r) for r, (m, f) in enumerate(order)]
        return {"seed": seed, "models": models, "functionals": functionals, "params": params,
                "bits": bits, "oracle": oracle, "schedule": schedule}

    def warm_up(self, ctx):
        for key in ctx["models"]:
            self.op(ctx, (key, "norm", self.period))

    def op(self, ctx, item):
        model, functional, r = item
        src = self.bitcore.child_source(ctx["seed"], r)
        res = self.mlmc.mlmc_estimate(ctx["functionals"][functional], ctx["models"][model],
                                      ctx["params"][model], src)
        return res, src.bits_drawn

    def check(self, ctx, item, out):
        res, drawn = out
        model = item[0]
        errors = []
        if not (res.ledger.bits == drawn == ctx["bits"][model]):
            errors.append(f"bits: ledger {res.ledger.bits}, source {drawn}, "
                          f"schedule sum N_l |p| {ctx['bits'][model]}")
        if res.ledger.oracle_cost != ctx["oracle"][model]:
            errors.append(f"oracle cost {res.ledger.oracle_cost} != schedule {ctx['oracle'][model]}")
        if list(res.level_ns) != list(ctx["params"][model].N):
            errors.append("level replication numbers differ from the schedule")
        if not _finite(res.estimate, *res.level_means, *res.level_vars):
            errors.append("non-finite estimate or level statistics")
        return errors

    def digest(self, out):
        return float(out[0].estimate).hex()

    def kind(self, item):
        return item[:2]


class PlainMcDeep(Workload):
    """``plain_mc(norm, bridge, level, n)``: one full default batch per op."""

    name = "plain_mc_deep"
    round_s = 2.7

    def __init__(self, level: int = 13, n: int = 4096, period: int = 12):
        self.level, self.n, self.period = level, n, period

    def load(self):
        from rbitmc import bitcore, mlmc
        self.bitcore, self.mlmc = bitcore, mlmc

    def build(self, seed):
        return {"seed": seed, "model": self.mlmc.bridge_model(),
                "f": self.mlmc.lookup_functional("norm"),
                "schedule": [(r,) for r in range(self.period)]}

    def warm_up(self, ctx):
        self.mlmc.plain_mc(ctx["f"], ctx["model"], self.level, 8,
                           self.bitcore.child_source(ctx["seed"], self.period))

    def op(self, ctx, item):
        src = self.bitcore.child_source(ctx["seed"], item[0])
        mean, stderr, ledger = self.mlmc.plain_mc(ctx["f"], ctx["model"], self.level, self.n, src)
        return mean, stderr, ledger, src.bits_drawn

    def check(self, ctx, item, out):
        mean, stderr, ledger, drawn = out
        level, n = self.level, self.n
        errors = []
        bits = n * ((1 << (level + 2)) - 2 * level - 4)
        if not (ledger.bits == drawn == bits):
            errors.append(f"bits: ledger {ledger.bits}, source {drawn}, expected n |p| = {bits}")
        if ledger.oracle_cost != n * ((1 << level) - 1):
            errors.append(f"oracle cost {ledger.oracle_cost} != n (2^level - 1)")
        if not (_finite(mean, stderr) and mean > 0.0 and stderr > 0.0):
            errors.append(f"mean {mean!r} or stderr {stderr!r} not finite and positive")
        return errors

    def digest(self, out):
        return f"{float(out[0]).hex()},{float(out[1]).hex()}"


class SdeStrong(Workload):
    """One sweep of ``strong_error_experiment`` over the m ladder per op, on
    geometric_model(0.05, 0.2, 1): the sde-error table of criterion 6.

    An op is the whole sweep, not one m: single-m ops span 0.01-0.9 s, so
    their median fell on the few ops of one m and spread far more across
    runs than the sweep time does.
    """

    name = "sde_strong"
    round_s = 1.9
    PARENT_BITS = 63

    def __init__(self, ladder=(16, 32, 64, 128, 256, 512, 1024), q: int = 52,
                 reps: int = 1000, period: int = 12):
        self.ladder, self.q, self.reps, self.period = tuple(ladder), q, reps, period

    def load(self):
        import numpy as np
        from rbitmc import sde
        self.np, self.sde = np, sde

    def _seed(self, seed: int, r: int) -> int:
        ss = self.np.random.SeedSequence(seed, spawn_key=(r,))
        return int(ss.generate_state(1, self.np.uint64)[0])

    def build(self, seed):
        return {"model": self.sde.geometric_model(0.05, 0.2, 1.0),
                "schedule": [(self._seed(seed, r), r) for r in range(self.period)],
                "warm_seed": self._seed(seed, self.period)}

    def warm_up(self, ctx):
        self.sde.strong_error_experiment(ctx["model"], self.ladder[0], self.q, self.reps,
                                         ctx["warm_seed"])

    def op(self, ctx, item):
        return [self.sde.strong_error_experiment(ctx["model"], m, self.q, self.reps, item[0])
                for m in self.ladder]

    def check(self, ctx, item, out):
        errors = []
        for m, (rms, ledger) in zip(self.ladder, out):
            bits = self.PARENT_BITS * m * self.reps
            if ledger.bits != bits:
                errors.append(f"m={m}: bits {ledger.bits} != 63 m reps = {bits}")
            if not (_finite(rms) and rms >= 0.0):
                errors.append(f"m={m}: rms error {rms!r} not finite and non-negative")
        return errors

    def digest(self, out):
        return ",".join(float(rms).hex() for rms, _ in out)


CLI_TABLES = (
    # (name, arguments, CSV header, data rows); the largest exact p is 22
    ("normal-error-4-21", ["normal-error", "--pmin", "4", "--pmax", "21"],
     "p,mse,rmse,scaled_const,moment2,moment4", 18),
    ("normal-error-22", ["normal-error", "--pmin", "22", "--pmax", "22"],
     "p,mse,rmse,scaled_const,moment2,moment4", 1),
    ("bridge-error-1-11", ["bridge-error", "--lmin", "1", "--lmax", "11"],
     "level,bits,trunc_err_sq,bit_err_sq,scaled", 11),
    ("kl-error-b2-a0", ["kl-error", "--beta", "2", "--alpha", "0", "--mmin", "64", "--mmax", "2048"],
     "m,bits,err_sq,scaled", 6),
    ("kl-error-b3-a0", ["kl-error", "--beta", "3", "--alpha", "0", "--mmin", "64", "--mmax", "128"],
     "m,bits,err_sq,scaled", 2),
    ("kl-error-b1.5-a0", ["kl-error", "--beta", "1.5", "--alpha", "0", "--mmin", "64",
                          "--mmax", "16384"], "m,bits,err_sq,scaled", 9),
    ("kl-error-b2-a2", ["kl-error", "--beta", "2", "--alpha", "2", "--mmin", "64", "--mmax", "256"],
     "m,bits,err_sq,scaled", 3),
    ("kl-error-b3-a-2", ["kl-error", "--beta", "3", "--alpha", "-2", "--mmin", "64", "--mmax", "128"],
     "m,bits,err_sq,scaled", 2),
    ("rbit-1d-normal-1-21", ["rbit-1d", "--law", "normal", "--pmin", "1", "--pmax", "21"],
     "p,rbit,scaled_2p,scaled_2p_p_sq", 21),
    ("rbit-1d-normal-22", ["rbit-1d", "--law", "normal", "--pmin", "22", "--pmax", "22"],
     "p,rbit,scaled_2p,scaled_2p_p_sq", 1),
    ("rbit-1d-uniform-1-22", ["rbit-1d", "--law", "uniform", "--pmin", "1", "--pmax", "22"],
     "p,rbit,scaled_2p,scaled_2p_p_sq", 22),
    ("appendix-ratios", ["appendix-ratios", "--pmin", "10", "--pmax", "50"],
     "p,ratio1,ratio2,ratio3,ratio4,ratio5", 41),
)


class CliTables(Workload):
    """One fresh ``python -m rbitmc.cli`` process per exact-table experiment."""

    name = "cli_tables"
    round_s = 27.0
    seed_independent = True
    ops_in_children = True

    def __init__(self, tables=CLI_TABLES):
        self.tables = {t[0]: t for t in tables}
        self.round_size = self.period = len(tables)

    def load(self):
        import rbitmc  # noqa: F401  (fails early, before any child, when src is missing)

    def build(self, seed):
        OUT.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return {"seed": seed, "env": env, "tracer": None, "trace_stem": None,
                "schedule": [(name,) for name in _rounds(seed, list(self.tables), 1)]}

    def warm_up(self, ctx):
        self._run(ctx, ["normal-error", "--pmin", "4", "--pmax", "4"], "warm_up")

    def _run(self, ctx, args, tag):
        csv = OUT / f"{tag}-{os.getpid()}.csv"
        argv = [*args, "--csv", str(csv), "--seed", str(ctx["seed"]), "--fixtures", str(FIXTURES)]
        tracer = ctx["tracer"]
        if tracer is None:
            cmd = [sys.executable, "-m", "rbitmc.cli", *argv]
        else:
            stem = f"{ctx['trace_stem']}-{tag}"
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), stem, *argv]
        proc = subprocess.run(cmd, env=ctx["env"], cwd=ROOT, capture_output=True, timeout=170)
        try:
            data = csv.read_bytes()
            csv.unlink()
        except FileNotFoundError:
            data = b""
        if tracer is not None:
            tracer.merge_file(stem + ".json")
        return {"returncode": proc.returncode, "csv": data, "stderr": proc.stderr}

    def op(self, ctx, item):
        return self._run(ctx, self.tables[item[0]][1], item[0])

    def check(self, ctx, item, out):
        _, _, header, rows = self.tables[item[0]]
        if out["returncode"] != 0:
            tail = out["stderr"].decode(errors="replace").strip()[-300:]
            return [f"exit code {out['returncode']}: {tail}"]
        lines = out["csv"].decode().splitlines()
        errors = []
        if not lines or lines[0] != header:
            errors.append(f"CSV header {lines[:1]} != {header!r}")
        if len(lines) - 1 != rows:
            errors.append(f"CSV has {len(lines) - 1} rows, expected {rows}")
        try:
            if not _finite(*(v for line in lines[1:] for v in line.split(","))):
                errors.append("CSV holds non-finite values")
        except ValueError as exc:
            errors.append(f"CSV value does not parse: {exc}")
        return errors

    def digest(self, out):
        return hashlib.sha256(out["csv"]).hexdigest()

    def digest_key(self, item):
        return item[0]

    def kind(self, item):
        return item[0]


WORKLOADS = {w.name: w for w in (MlmcRuns, PlainMcDeep, SdeStrong, CliTables)}
