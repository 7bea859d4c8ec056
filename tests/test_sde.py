import dataclasses
import math
import os

import numpy as np
import pytest

from rbitmc import bridge as BR
from rbitmc import sde as S
from rbitmc.bitcore import BitSource, dyadic_values, truncate_indices
from rbitmc.cli import load_fixtures
from rbitmc.errors import InternalInvariantError, NumericFailure
from rbitmc.normal import bit_normal_mse, grid_normal_values, phi_inv

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures", "acceptance.txt")
GM = S.geometric_model(0.05, 0.2, 1.0)
GM_FINE = dataclasses.replace(GM, exact_strong_solution=None)  # the 64x fine Milstein reference


def additive_model(x0=0.0):
    return S.SDEModel(
        drift=lambda x: 0.0 * x,
        diffusion=lambda x: np.ones_like(np.asarray(x, dtype=np.float64)),
        diffusion_deriv=lambda x: 0.0 * x,
        x0=x0,
    )


def test_degenerate_diffusion_rejected():
    with pytest.raises(ValueError):
        S.SDEModel(drift=lambda x: x, diffusion=lambda x: 0.0 * x,
                   diffusion_deriv=lambda x: 0.0 * x, x0=1.0)


@pytest.mark.parametrize("arg", ["mu", "sigma", "x0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_geometric_model_refuses_non_finite_parameters(arg, value):
    args = {"mu": 0.05, "sigma": 0.2, "x0": 1.0, arg: value}
    with pytest.raises(ValueError, match=f"{arg} must be finite"):
        S.geometric_model(**args)


def test_milstein_additive_noise():
    ys = np.array([0.3, -1.2, 0.8])
    path = S.milstein_path(additive_model(0.5), 3, ys)
    expected = 0.5 + np.concatenate([[0.0], np.cumsum(ys)]) / math.sqrt(3.0)
    assert np.allclose(path.values, expected, atol=1e-15)


def test_milstein_single_step_identities():
    p = S.milstein_path(GM, 1, [0.0])
    assert abs(p.values[1] - (1.0 + 0.05 - 0.5 * 0.2 * 0.2)) < 1e-15
    y = 0.7
    p = S.milstein_path(GM, 1, [y])
    expected = 1.0 * (1.0 + 0.05 + 0.2 * y + 0.5 * 0.04 * (y * y - 1.0))
    assert abs(p.values[1] - expected) < 1e-15


@pytest.mark.filterwarnings("ignore:overflow")
def test_milstein_numeric_failure_reports_step():
    blow = S.SDEModel(drift=lambda x: x ** 5, diffusion=lambda x: np.ones_like(x) + 0.0 * x,
                      diffusion_deriv=lambda x: 0.0 * x, x0=1e80)
    with pytest.raises(NumericFailure) as err:
        S.milstein_path(blow, 4, np.zeros(4))
    assert err.value.step is not None


def test_rbit_milstein_accounting_and_mean():
    src = BitSource(3)
    path = S.rbit_milstein_path(src, GM, 16, 5)
    assert src.bits_drawn == 16 * 5
    assert path.retained_indices is not None
    src2 = BitSource(5)
    draws = grid_normal_values(src2.draw_bits_array(8, 1_000_000) + np.uint64(1), 8)
    se = draws.std(ddof=1) / 1000.0
    assert abs(draws.mean()) < 4.0 * se


def test_rbit_large_q_matches_parent_driven_path():
    src = BitSource(2024)
    m = 64
    idx63 = src.draw_bits_array(63, m) + np.uint64(1)
    y_full = phi_inv(dyadic_values(idx63, 63))
    y52 = grid_normal_values(truncate_indices(idx63, 63, 52), 52)
    pa = S.milstein_path(GM, m, y_full)
    pb = S.milstein_path(GM, m, y52)
    assert np.max(np.abs(pa.values - pb.values)) < 1e-6


def test_q63_coupling_gap_fixture():
    src = BitSource(4048)
    m = 256
    idx63 = src.draw_bits_array(63, m) + np.uint64(1)
    extra = src.draw_bits_array(1, m)
    refined = ((2.0 * (idx63.astype(np.float64) - 1.0) + extra.astype(np.float64)) + 0.5) * 2.0 ** -64
    pa = S.milstein_path(GM, m, phi_inv(refined))
    pb = S.milstein_path(GM, m, phi_inv(dyadic_values(idx63, 63)))
    gap = float(np.max(np.abs(pa.values - pb.values)))
    assert gap < 1e-4
    assert gap <= load_fixtures(FIXTURES)["sde_q63_coupling_gap"].value


def test_bit_cost_formula():
    assert S.sde_bit_cost(2, 2, 1) == 8
    assert S.sde_bit_cost(4, 4, 2) == 48
    for level in range(1, 16):
        assert S.sde_bit_cost(1 << level, 2 * level, level) == (1 << (level + 2)) * ((1 << level) - 1)
    # strictly increasing in each argument
    base = S.sde_bit_cost(8, 6, 3)
    assert S.sde_bit_cost(9, 6, 3) > base
    assert S.sde_bit_cost(8, 7, 3) > base
    assert S.sde_bit_cost(8, 6, 4) > base


def test_refined_path_nodes_and_bits():
    src = BitSource(9)
    m, q, level = 4, 6, 2
    r = S.refined_path_sample(src, GM, m, q, level)
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(r.evaluate(GM, grid), r.skeleton.values, atol=1e-14)
    assert r.bits == S.sde_bit_cost(m, q, level) == src.bits_drawn
    with pytest.raises(ValueError):
        r.evaluate(GM, [0.5, 0.25])


def test_refined_path_bit_mismatch_is_internal(monkeypatch):
    monkeypatch.setattr(S, "sde_bit_cost", lambda m, q, level: 0)
    with pytest.raises(InternalInvariantError, match="bit accounting mismatch"):
        S.refined_path_sample(BitSource(9), GM, 4, 6, 2)


def test_refined_path_additive_closed_form():
    src = BitSource(10)
    model = additive_model(0.25)
    m, q, level = 4, 8, 3
    r = S.refined_path_sample(src, model, m, q, level)
    t = np.array([0.1, 0.3, 0.55, 0.8, 0.95])
    vals = r.evaluate(model, t)
    k = np.minimum((t * m).astype(int), m - 1)
    s = t * m - k
    lin = (1 - s) * r.skeleton.values[k] + s * r.skeleton.values[k + 1]
    bridge_term = np.array([
        BR.evaluate_coeffs(r.bridge_coeffs[kk], level, ss) for kk, ss in zip(k, s)
    ])
    assert np.allclose(vals, lin + bridge_term / math.sqrt(m), atol=1e-14)


def test_strong_error_determinism_and_modes():
    a1, _ = S.strong_error_experiment(GM, 32, 8, 1, seed=5)
    a2, _ = S.strong_error_experiment(GM, 32, 8, 1, seed=5)
    assert a1 == a2


def test_strong_error_slope_and_plateau_small():
    ms = [2 ** k for k in range(4, 9)]
    errs = [S.strong_error_experiment(GM, m, 52, 300, seed=1234)[0] for m in ms]
    x, y = np.log(ms), np.log(errs)
    slope = np.polyfit(x, y, 1)[0]
    assert -1.25 <= slope <= -0.80
    e6, _ = S.strong_error_experiment(GM, 2 ** 6, 4, 300, seed=77)
    e10, _ = S.strong_error_experiment(GM, 2 ** 10, 4, 300, seed=77)
    assert e10 > 0.5 * e6


def test_strong_error_ledger_bits():
    _, ledger = S.strong_error_experiment(GM, 16, 8, 10, seed=2)
    assert ledger.bits == S.PARENT_BITS * 16 * 10
    _, ledger = S.strong_error_experiment(GM_FINE, 8, 8, 5, seed=2)
    assert ledger.bits == 53 * S.FINE_FACTOR * 8 * 5


def test_fine_reference_agrees_with_exact():
    e_fine, _ = S.strong_error_experiment(GM_FINE, 32, 52, 300, seed=11)
    e_exact, _ = S.strong_error_experiment(GM, 32, 52, 300, seed=11)
    assert abs(e_fine - e_exact) < 0.3 * e_exact


def test_bridge_refinement_l2_consistency():
    # additive model, exact skeleton coupling: the only gap on each interval
    # is bridge replacement, so E||X - X^(q,l)||^2 = (1/m) * (per-interval
    # bridge error computed against the level-lhat node resolution)
    m, level, lhat, reps = 4, 2, 5, 20_000
    src = BitSource(31415)
    dim_hat = (1 << lhat) - 1
    alloc = BR.allocation_bridge(level)
    parent_p = 40
    total = np.zeros(reps)
    for _ in range(m):
        idx = src.draw_bits_array(parent_p, reps * dim_hat).reshape(reps, dim_hat) + np.uint64(1)
        fine = phi_inv((2.0 * idx.astype(np.float64) - 1.0) * 2.0 ** -(parent_p + 1))
        bit = np.zeros_like(fine)
        for j in range((1 << level) - 1):
            p = int(alloc.counts[j])
            bit[:, j] = grid_normal_values(truncate_indices(idx[:, j], parent_p, p), p)
        diff_nodes = BR.nodes_from_coeffs(fine - bit, lhat)
        total += BR.pl_l2_norm_sq(diff_nodes)
    observed = total / (m * m)  # per-path L2 norm: sum_k m^-2 ||d_k||^2
    expected = (BR.bridge_bit_error_sq(level) - 2.0 ** -lhat / 6.0) / m
    se = observed.std(ddof=1) / math.sqrt(reps)
    assert abs(observed.mean() - expected) < 4.0 * se


# Pinned from one draw per step; no block size or bit-layer path may move them.
@pytest.mark.parametrize("m, q, reps, seed, reference, rms_hex, bits", [
    # blocks of 436, 436 and 152 steps
    (1024, 52, 300, 1234, "auto", "0x1.f833afb2556fbp-17", 19353600),
    # 7 * 63 bits per step: step boundaries fall inside words
    (1000, 16, 7, 3, "auto", "0x1.025612b26e7bep-14", 441000),
    (32, 52, 300, 11, "fine", "0x1.c4407406875e9p-12", 32563200),
])
def test_strong_error_golden_values(m, q, reps, seed, reference, rms_hex, bits):
    rms, ledger = S.strong_error_experiment(GM if reference == "auto" else GM_FINE, m, q, reps, seed)
    assert float.hex(rms) == rms_hex
    assert ledger.bits == bits


@pytest.mark.parametrize("m", [0, -1])
def test_paths_reject_no_steps_before_drawing(m):
    # m = 0 divided by zero in the recursion; m < 0 failed inside the draw
    with pytest.raises(ValueError, match="m must be a positive integer"):
        S.milstein_path(GM, m, [])
    src = BitSource(1)
    with pytest.raises(ValueError, match="m must be a positive integer"):
        S.rbit_milstein_path(src, GM, m, 8)
    with pytest.raises(ValueError, match="m must be a positive integer"):
        S.refined_path_sample(src, GM, m, 8, 2)
    assert src.bits_drawn == 0


@pytest.mark.parametrize("q", [0, -1, 64, 2.5])
def test_rbit_milstein_rejects_q_outside_the_parent_bits(q):
    src = BitSource(1)
    with pytest.raises(ValueError, match=r"q must be an integer in \[1, 63\]"):
        S.rbit_milstein_path(src, GM, 8, q)
    assert src.bits_drawn == 0


@pytest.mark.parametrize("m", [0, -1])
def test_strong_error_rejects_no_steps(m):
    with pytest.raises(ValueError, match="m must be a positive integer"):
        S.strong_error_experiment(S.geometric_model(0.05, 0.2, 1.0), m, 8, 5, 1)


@pytest.mark.parametrize("reference", ["auto", "fine"])
@pytest.mark.parametrize("q", [0, -1, 64, 2.5])
def test_strong_error_rejects_q_outside_the_parent_bits(q, reference, monkeypatch):
    # q = 0 would give all-zero increments, q < 0 and q = 2.5 a numpy shift
    # error: all are refused before any bit is drawn
    sources = []

    class Recording(BitSource):
        def __init__(self, seed):
            super().__init__(seed)
            sources.append(self)

    monkeypatch.setattr(S, "BitSource", Recording)
    with pytest.raises(ValueError, match=r"q must be an integer in \[1, 63\]"):
        S.strong_error_experiment(GM if reference == "auto" else GM_FINE, 8, q, 5, 1)
    assert all(src.bits_drawn == 0 for src in sources)


def test_overflowing_exact_reference_raises():
    """exp(800) overflows the geometric model's exact solution: the run
    wrote rms_error inf with a numpy RuntimeWarning (an error in this suite)."""
    with pytest.raises(NumericFailure, match="non-finite exact reference"):
        S.strong_error_experiment(S.geometric_model(800.0, 0.2, 1.0), 2, 52, 3, 0)
