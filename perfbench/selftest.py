"""Tests of the benchmark itself, at toy sizes.

    python3 perfbench/selftest.py

Kept out of the repository's pytest run (the file name does not match
``test_*.py``): they test the benchmark, not the package.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

TOY = {
    "mlmc_runs": lambda: W.MlmcRuns(eps=2.0 ** -3),
    "plain_mc_deep": lambda: W.PlainMcDeep(level=5, n=64, period=2),
    "sde_strong": lambda: W.SdeStrong(ladder=(16, 32), reps=20, period=2),
    "cli_tables": lambda: W.CliTables(tables=(
        ("normal-error-4-6", ["normal-error", "--pmin", "4", "--pmax", "6"],
         "p,mse,rmse,scaled_const,moment2,moment4", 3),)),
}


def toy(name):
    wl = TOY[name]()
    wl.load()
    ctx = wl.build(3)
    return wl, ctx


def corrupt(name, out):
    """The op's output with one value changed."""
    if name == "mlmc_runs":
        res, drawn = out
        ledger = dataclasses.replace(res.ledger, bits=res.ledger.bits + 1)
        return dataclasses.replace(res, ledger=ledger), drawn
    if name == "plain_mc_deep":
        mean, stderr, ledger, drawn = out
        return math.nan, stderr, ledger, drawn
    if name == "sde_strong":
        (rms, ledger), *rest = out
        return [(rms, dataclasses.replace(ledger, bits=ledger.bits - 63)), *rest]
    return dict(out, returncode=1)


class WorkloadTest(unittest.TestCase):
    def test_each_workload_runs_one_op_end_to_end(self):
        for name in TOY:
            with self.subTest(workload=name):
                wl, ctx = toy(name)
                run = worker.run_ops(wl, ctx, 1)
                self.assertEqual(run["errors"], [[]])
                self.assertIsInstance(run["digest"][0], str)
                self.assertGreater(run["latency"][0], 0.0)

    def test_corrupted_output_is_counted_as_failed(self):
        for name in TOY:
            with self.subTest(workload=name):
                wl, ctx = toy(name)
                item = ctx["schedule"][0]
                out = wl.op(ctx, item)
                self.assertEqual(wl.check(ctx, item, out), [])
                self.assertNotEqual(wl.check(ctx, item, corrupt(name, out)), [])
                wl.op = lambda c, i, _out=corrupt(name, out): _out
                run = worker.run_ops(wl, ctx, 1)
                self.assertEqual(len(worker._failures([run])), 1)

    def test_digest_mismatch_is_counted_as_failed(self):
        wl, ctx = toy("sde_strong")
        item = ctx["schedule"][0]
        good = wl.digest(wl.op(ctx, item))
        run = worker.run_ops(wl, ctx, 1, expected={wl.digest_key(item): good})
        self.assertEqual(run["errors"], [[]])
        run = worker.run_ops(wl, ctx, 1, expected={wl.digest_key(item): "0x0p+0"})
        self.assertEqual(len(worker._failures([run])), 1)

    def test_cli_csv_change_breaks_digest(self):
        wl, ctx = toy("cli_tables")
        out = wl.op(ctx, ctx["schedule"][0])
        changed = dict(out, csv=out["csv"].replace(b"4,", b"5,", 1))
        self.assertNotEqual(wl.digest(out), wl.digest(changed))

    def test_schedule_rounds_hold_every_kind(self):
        wl = W.MlmcRuns()
        kinds = {(m, f) for m in ("bridge", "kl") for f in ("norm", "coord1")}
        order = W._rounds(7, sorted(kinds), 3)
        for k in range(3):
            self.assertEqual(set(order[4 * k:4 * k + 4]), kinds)
        self.assertEqual(order, W._rounds(7, sorted(kinds), 3))
        self.assertEqual(wl.period % wl.round_size, 0)

    def test_op_count_is_whole_rounds_and_enough_for_the_tail(self):
        for name, cls in W.WORKLOADS.items():
            wl = cls()
            for seconds in (1, 20, 60):
                n = worker.ops_for(wl, seconds, worker.MIN_OPS)
                self.assertEqual(n % wl.round_size, 0, name)
                self.assertGreaterEqual(n, worker.MIN_OPS, name)

    def test_best_latency_is_per_kind_minimum_of_passing_ops(self):
        wl = W.MlmcRuns()
        schedule = [("bridge", "norm", 0), ("kl", "norm", 1)]
        run = {"latency": [0.004, 0.010, 0.002, 0.006, 0.001],
               "errors": [[], [], [], [], ["failed"]]}
        # bridge ops: 4, 2, (1 failed) ms; kl ops: 10, 6 ms
        self.assertAlmostEqual(worker.best_ms(wl, schedule, run), (2.0 + 6.0) / 2)


class TracerTest(unittest.TestCase):
    def test_wrapper_returns_and_raises_exactly(self):
        tr = tracer_mod.Tracer()
        sentinel = object()
        self.assertIs(tr.wrap(lambda: sentinel, "x.f")(), sentinel)

        def boom():
            raise KeyError("k")

        with self.assertRaises(KeyError):
            tr.wrap(boom, "x.boom")()
        self.assertEqual(tr.calls, [1, 1])
        self.assertEqual(tr._stack, [])

    def test_self_time_excludes_children(self):
        tr = tracer_mod.Tracer()
        inner = tr.wrap(lambda: sum(range(20000)), "x.inner")
        outer = tr.wrap(lambda: inner() + inner(), "x.outer")
        outer()
        i, o = tr.names.index("x.inner"), tr.names.index("x.outer")
        self.assertAlmostEqual(tr.self_s[o] + tr.total_s[i], tr.total_s[o], places=9)
        self.assertAlmostEqual(tr.top_s, tr.total_s[o], places=12)
        self.assertEqual(list(tr.span_parent), [-1, 0, 0])

    def test_install_covers_every_import_site_and_keeps_outputs(self):
        from rbitmc import bitcore, bridge, gausskl, mlmc, normal, sde

        for name in ("mlmc_runs", "sde_strong"):
            wl, ctx = toy(name)
            items = ctx["schedule"][:2]
            plain = [wl.digest(wl.op(ctx, item)) for item in items]
            before = bitcore.BitSource(5).draw_bits_array(63, 10)
            tr = tracer_mod.Tracer()
            tr.install()
            try:
                for mod in (bridge, gausskl, mlmc, sde):
                    self.assertIs(mod.grid_normal_values, normal.grid_normal_values)
                    self.assertIs(mod.truncate_indices, bitcore.truncate_indices)
                self.assertTrue(hasattr(normal.grid_normal_values, "_perfbench_span"))
                self.assertEqual(tr.unwrapped({"bridge": bridge, "mlmc": mlmc}), [])
                src = bitcore.BitSource(5)
                after = src.draw_bits_array(63, 10)
                self.assertEqual(after.dtype, before.dtype)
                self.assertTrue((after == before).all())
                self.assertEqual(src.bits_drawn, 630)
                ctx = wl.build(3)
                traced = [wl.digest(wl.op(ctx, item)) for item in items]
            finally:
                tr.uninstall()
            self.assertEqual(traced, plain)
            self.assertFalse(hasattr(normal.grid_normal_values, "_perfbench_span"))
            self.assertFalse(hasattr(bitcore.BitSource.draw_bits_array, "_perfbench_span"))
            self.assertGreater(tr.calls[tr.names.index("bitcore.draw_bits_array")], 0)
            metrics = tr.layer_metrics(len(items))
            self.assertGreater(metrics["bitcore.draw_bits_array.bits"][0], 0)


if __name__ == "__main__":
    unittest.main()
