"""Run the benchmark's own self-test, so that a change to ``src/`` that
breaks the benchmark (a renamed, removed or re-wrapped public function, an
import site its tracer pins) fails here too."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from rbitmc import mlmc as M
from rbitmc.bitcore import BitSource

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr


def test_tracer_hooks_see_the_mlmc_layers():
    # the tracer keys its mlmc metrics on method and parameter names; a
    # rename reads 0 (or counts a hook error) rather than failing the run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    layers = ("mlmc_estimate", "plain_mc", "sample_rows", "coarsen_rows", "functional_rows", "functional")
    # both models: the coarse decode runs inside the model's coarsen_rows span on each
    for model in (M.bridge_model(), M.kl_model(M.EigenSpec(beta=2.0, alpha=0.0))):
        tr = tracer.Tracer()
        tr.install()
        try:
            f = M.lookup_functional("norm")  # built after install, so its rows are wrapped
            params = M.mlmc_params(2.0 ** -3, model.beta, model.alpha)
            M.mlmc_estimate(f, model, params, BitSource(1))
            M.plain_mc(f, model, 4, 50, BitSource(2))
        finally:
            tr.uninstall()
        metrics = tr.layer_metrics(1)
        names = ["mlmc.rows", "mlmc.coeff_ops",
                 *(f"mlmc.level.{level}.s" for level in range(1, params.L + 1)),
                 *(f"mlmc.{layer}.self_s" for layer in layers)]
        assert [name for name in names if not metrics[name][0] > 0] == [], type(model).__name__
        assert "trace.hook_errors" not in tr.counters
