import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbitmc import bridge as BR
from rbitmc import normal as N
from rbitmc import sde as S
from rbitmc.bitcore import BitAllocation, BitSource, dyadic_values, truncate_indices
from rbitmc.cli import load_fixtures
from rbitmc.errors import CapacityError, InternalInvariantError, NumericFailure
from rbitmc.gausskl import sample_rows
from rbitmc.normal import bit_normal_mse, grid_normal_values, phi_inv

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures", "acceptance.txt")
GM = S.geometric_model(0.05, 0.2, 1.0)
GM_FINE = dataclasses.replace(GM, exact_strong_solution=None)  # the 64x fine Milstein reference


def milstein_path(model, m, normals):
    """The Milstein values of one driving row."""
    return S.milstein_rows(model, m, np.asarray(normals, dtype=np.float64)[np.newaxis, :])[0]


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
    path = milstein_path(additive_model(0.5), 3, ys)
    expected = 0.5 + np.concatenate([[0.0], np.cumsum(ys)]) / math.sqrt(3.0)
    assert np.allclose(path, expected, atol=1e-15)


def test_milstein_single_step_identities():
    p = milstein_path(GM, 1, [0.0])
    assert abs(p[1] - (1.0 + 0.05 - 0.5 * 0.2 * 0.2)) < 1e-15
    y = 0.7
    p = milstein_path(GM, 1, [y])
    expected = 1.0 * (1.0 + 0.05 + 0.2 * y + 0.5 * 0.04 * (y * y - 1.0))
    assert abs(p[1] - expected) < 1e-15


@pytest.mark.filterwarnings("ignore:overflow")
def test_milstein_numeric_failure_reports_step():
    blow = S.SDEModel(drift=lambda x: x ** 5, diffusion=lambda x: np.ones_like(x) + 0.0 * x,
                      diffusion_deriv=lambda x: 0.0 * x, x0=1e80)
    with pytest.raises(NumericFailure) as err:
        milstein_path(blow, 4, np.zeros(4))
    assert err.value.step is not None


def test_rbit_milstein_accounting_and_mean():
    src = BitSource(3)
    y, idx = sample_rows(src, BitAllocation(np.full(16, 5)), 1)
    path = S.milstein_rows(GM, 16, y)
    assert src.bits_drawn == 16 * 5
    assert path.shape == (1, 17) and idx.shape == (1, 16)
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
    pa, pb = S.milstein_rows(GM, m, np.stack([y_full, y52]))
    assert np.max(np.abs(pa - pb)) < 1e-6


def test_q63_coupling_gap_fixture():
    src = BitSource(4048)
    m = 256
    idx63 = src.draw_bits_array(63, m) + np.uint64(1)
    extra = src.draw_bits_array(1, m)
    refined = ((2.0 * (idx63.astype(np.float64) - 1.0) + extra.astype(np.float64)) + 0.5) * 2.0 ** -64
    pa = milstein_path(GM, m, phi_inv(refined))
    pb = milstein_path(GM, m, phi_inv(dyadic_values(idx63, 63)))
    gap = float(np.max(np.abs(pa - pb)))
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


def redrawn(seed, model, m, q, level, n):
    """The skeleton rows and the path-major bridge coefficient rows of
    refined_rows, redrawn from the same seed in its draw order."""
    src = BitSource(seed)
    y, _ = sample_rows(src, BitAllocation(np.full(m, q)), n)
    coeffs, _ = sample_rows(src, BR.allocation_bridge(level), n * m)
    return S.milstein_rows(model, m, y), coeffs.reshape(n, m, -1)


def test_refined_path_nodes_and_bits():
    src = BitSource(9)
    m, q, level = 4, 6, 2
    rows = S.refined_rows(src, GM, m, q, level, 1)
    skeleton, _ = redrawn(9, GM, m, q, level, 1)
    assert rows.shape == (1, m * 4 + 1)
    assert np.array_equal(rows[:, ::4], skeleton)
    assert src.bits_drawn == S.sde_bit_cost(m, q, level)


def test_refined_path_bit_mismatch_is_internal(monkeypatch):
    monkeypatch.setattr(S, "sde_bit_cost", lambda m, q, level: 0)
    with pytest.raises(InternalInvariantError, match="bit accounting mismatch"):
        S.refined_rows(BitSource(9), GM, 4, 6, 2, 1)


def test_refined_path_additive_closed_form():
    # b = 1: each step is the chord of the skeleton plus its bridge / sqrt(m)
    model = additive_model(0.25)
    m, q, level, n = 4, 8, 3, 2
    rows = S.refined_rows(BitSource(10), model, m, q, level, n)
    skeleton, coeffs = redrawn(10, model, m, q, level, n)
    s = np.arange(8) / 8.0
    for i in range(n):
        for k in range(m):
            lin = (1 - s) * skeleton[i, k] + s * skeleton[i, k + 1]
            bridge = BR.evaluate_coeffs(coeffs[i, k], level, s)
            assert np.allclose(rows[i, 8 * k:8 * k + 8], lin + bridge / math.sqrt(m), atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 8), q=st.integers(1, 63), level=st.integers(1, 6), n=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_refined_rows_are_the_skeleton_chords_plus_bridges(m, q, level, n, seed):
    src = BitSource(seed)
    rows = S.refined_rows(src, GM, m, q, level, n)
    skeleton, coeffs = redrawn(seed, GM, m, q, level, n)
    h = 1 << level
    assert rows.shape == (n, m * h + 1)
    assert np.array_equal(rows[:, ::h], skeleton)
    assert src.bits_drawn == n * S.sde_bit_cost(m, q, level)
    s = np.arange(1, h) / h
    for i in range(n):
        for k in range(m):
            x0, x1 = skeleton[i, k], skeleton[i, k + 1]
            want = (1 - s) * x0 + s * x1 + GM.diffusion(x0) * BR.evaluate_coeffs(coeffs[i, k], level, s) / math.sqrt(m)
            assert np.max(np.abs(rows[i, k * h + 1:(k + 1) * h] - want)) <= 1e-13


@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_refined_rows_refuse_a_bad_path_count_before_drawing(n):
    src = BitSource(1)
    with pytest.raises(ValueError, match="n must be a positive integer"):
        S.refined_rows(src, GM, 4, 8, 2, n)
    assert src.bits_drawn == 0


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
        S.milstein_rows(GM, m, np.empty((1, 0)))
    src = BitSource(1)
    with pytest.raises(ValueError, match="m must be a positive integer"):
        S.refined_rows(src, GM, m, 8, 2, 1)
    assert src.bits_drawn == 0


@pytest.mark.parametrize("shape", [(4,), (1, 3), (2, 5), (1, 1, 4)])
def test_milstein_rows_refuse_rows_of_another_length(shape):
    with pytest.raises(ValueError, match=r"shape \(rows, 4\)"):
        S.milstein_rows(GM, 4, np.zeros(shape))


@pytest.mark.parametrize("q", [0, -1, 64, 2.5])
def test_rbit_milstein_rejects_q_outside_the_parent_bits(q):
    # the increments of the random-bit scheme are rows under m q-bit counts:
    # the allocation refuses q before a bit is drawn, as the refined path does
    src = BitSource(1)
    with pytest.raises(ValueError, match=r"bit counts must be integers in \[1, 63\]"):
        sample_rows(src, BitAllocation(np.full(8, q)), 1)
    with pytest.raises(ValueError, match=r"q must be an integer in \[1, 63\]"):
        S.refined_rows(src, GM, 8, q, 2, 1)
    assert src.bits_drawn == 0


@pytest.mark.parametrize("m, q, level, error", [
    (1, 64, 2, ValueError), (1, 2.5, 2, ValueError), (1, 0, 2, ValueError),
    (0, 4, 2, ValueError), (1, 4, 0, ValueError), (1, 4, 26, CapacityError),
])
def test_bit_cost_and_refined_path_share_one_domain(m, q, level, error):
    """sde_bit_cost priced paths that cannot be drawn (72 bits at q = 64,
    10.5 at q = 2.5, 268435404 at level 26), and the refined path drew
    its skeleton before it refused the level."""
    with pytest.raises(error):
        S.sde_bit_cost(m, q, level)
    src = BitSource(1)
    with pytest.raises(error):
        S.refined_rows(src, GM, m, q, level, 1)
    assert src.bits_drawn == 0


@pytest.mark.parametrize("m", [0, -1])
def test_strong_error_rejects_no_steps(m):
    with pytest.raises(ValueError, match="m must be a positive integer"):
        S.strong_error_experiment(S.geometric_model(0.05, 0.2, 1.0), m, 8, 5, 1)


@pytest.mark.parametrize("reference", ["auto", "fine"])
@pytest.mark.parametrize("m, reps, name", [(2.5, 5, "m"), (8, 2.5, "reps")])
def test_strong_error_refuses_counts_that_are_not_integers(m, reps, name, reference, monkeypatch):
    """m = 2.5 and reps = 2.5 passed the >= 1 checks and raised numpy
    TypeErrors; both are refused before any bit is drawn."""
    sources = []

    class Recording(BitSource):
        def __init__(self, seed):
            super().__init__(seed)
            sources.append(self)

    monkeypatch.setattr(S, "BitSource", Recording)
    with pytest.raises(ValueError, match=f"{name} must be a positive integer, got 2.5"):
        S.strong_error_experiment(GM if reference == "auto" else GM_FINE, m, 8, reps, 1)
    assert all(src.bits_drawn == 0 for src in sources)


def test_refined_rows_refuse_a_step_count_that_is_not_an_integer():
    # m = 2.5 raised a numpy TypeError
    src = BitSource(1)
    with pytest.raises(ValueError, match="m must be a positive integer, got 2.5"):
        S.refined_rows(src, GM, 2.5, 8, 2, 1)
    assert src.bits_drawn == 0


def test_fine_reference_at_63_bits_takes_the_top_cell_for_phi_one(monkeypatch):
    """On the fallback path Phi(y) rounds to 1.0 from y = 8.3 on, and at
    q = 63 u * 2**63 overflowed the int64 cast (index 2**63 + 1, a numpy
    "invalid value" warning, then "phi_inv requires 0 < u < 1").  That
    entry now takes the top grid normal; every other increment is the one
    of the unpatched run."""
    seen = []
    milstein_rows = S.milstein_rows

    def recording(model, m, normals):
        if m == 4:
            seen.append(np.array(normals))
        return milstein_rows(model, m, normals)

    monkeypatch.setattr(S, "milstein_rows", recording)
    S.strong_error_experiment(GM_FINE, 4, 63, 3, 1)

    def phi_top(y):
        u = np.array(N.Phi(y))
        u.flat[0] = 1.0
        return u

    monkeypatch.setattr(S, "Phi", phi_top)
    rms, _ = S.strong_error_experiment(GM_FINE, 4, 63, 3, 1)
    assert math.isfinite(rms)
    plain, patched = seen
    assert patched.flat[0] == grid_normal_values(np.uint64(2**63), 63) == -grid_normal_values(np.uint64(1), 63)
    assert patched.reshape(-1)[1:].tobytes() == plain.reshape(-1)[1:].tobytes()


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
