import dataclasses
import hashlib
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbitmc import bitcore
from rbitmc import bridge as BR
from rbitmc import gausskl as G
from rbitmc import normal as N
from rbitmc import sde as S
from rbitmc.bitcore import BitAllocation, BitSource, dyadic_values, truncate_indices
from rbitmc.cli import load_fixtures
from rbitmc.errors import CapacityError, InternalInvariantError, NumericFailure
from rbitmc.gausskl import sample_rows
from rbitmc.normal import bit_normal_mse, grid_normal_values, phi_inv

from oracles import evaluate_coeffs

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


def milstein_columns(model, m, normals):
    """The Milstein recursion column by column on (rows, m) increments, as
    milstein_rows ran it before its step-major layout: its oracle."""
    rows = normals.shape[0]
    out = np.empty((rows, m + 1), dtype=np.float64)
    x = np.full(rows, model.x0, dtype=np.float64)
    out[:, 0] = x
    inv_m = 1.0 / m
    sq_m = math.sqrt(inv_m)
    for k in range(m):
        y = normals[:, k]
        bx = model.diffusion(x)
        x = (x + model.drift(x) * inv_m + bx * sq_m * y
             + 0.5 * bx * model.diffusion_deriv(x) * inv_m * (y * y - 1.0))
        if not np.all(np.isfinite(x)):
            raise NumericFailure(f"non-finite state at step {k + 1}", step=k + 1)
        out[:, k + 1] = x
    return out


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 40), m=st.integers(1, 70), seed=st.integers(0, 2**32 - 1),
       step_major=st.booleans())
def test_milstein_rows_are_the_column_loop_byte_for_byte(rows, m, seed, step_major):
    # rows held either way: C-contiguous (rows, m), or the transpose of step-major rows
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((m, rows)).T if step_major else rng.standard_normal((rows, m))
    for model in (GM, additive_model(0.25)):
        got = S.milstein_rows(model, m, normals)
        assert got.shape == (rows, m + 1)
        assert got.tobytes() == milstein_columns(model, m, normals).tobytes()


@pytest.mark.parametrize("c, step", [(1e200, 2), (1e20, 5), (1e5, 7)])
def test_milstein_rows_fail_at_the_column_loop_step(c, step):
    # a drift of c x^2 overflows after a few steps, later for a smaller c
    blow = S.SDEModel(drift=lambda x: c * x * x, diffusion=lambda x: np.ones_like(x),
                      diffusion_deriv=lambda x: 0.0 * x, x0=1.0)
    normals = np.random.default_rng(3).standard_normal((5, 12))
    steps = []
    for run in (S.milstein_rows, milstein_columns):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericFailure) as err:
            run(blow, 12, normals)
        steps.append((err.value.step, str(err.value)))
    assert steps[0] == steps[1] and steps[0][0] == step


def test_rbit_milstein_accounting_and_mean():
    src = BitSource(3)
    y, idx = sample_rows(src, BitAllocation(np.full(16, 5)), 1)
    path = S.milstein_rows(GM, 16, y)
    assert src.bits_drawn == 16 * 5
    assert path.shape == (1, 17) and idx.shape == (1, 16)
    src2 = BitSource(5)
    draws = grid_normal_values(src2.draw_bits_array(8, 1_000_000), 8)
    se = draws.std(ddof=1) / 1000.0
    assert abs(draws.mean()) < 4.0 * se


def test_rbit_large_q_matches_parent_driven_path():
    src = BitSource(2024)
    m = 64
    idx63 = src.draw_bits_array(63, m)
    y_full = phi_inv(dyadic_values(idx63, 63))
    y52 = grid_normal_values(truncate_indices(idx63, 63, 52), 52)
    pa, pb = S.milstein_rows(GM, m, np.stack([y_full, y52]))
    assert np.max(np.abs(pa - pb)) < 1e-6


def test_q63_coupling_gap_fixture():
    src = BitSource(4048)
    m = 256
    idx63 = src.draw_bits_array(63, m)
    extra = src.draw_bits_array(1, m)
    refined = ((2.0 * idx63.astype(np.float64) + extra.astype(np.float64)) + 0.5) * 2.0 ** -64
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
            bridge = evaluate_coeffs(coeffs[i, k], level, s)
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
            want = (1 - s) * x0 + s * x1 + GM.diffusion(x0) * evaluate_coeffs(coeffs[i, k], level, s) / math.sqrt(m)
            assert np.max(np.abs(rows[i, k * h + 1:(k + 1) * h] - want)) <= 1e-13


# (m, q, level, n) -> sha256 of the node rows' bytes, from BitSource(300 + m + q + level + n)
# with 3 bits drawn first, so every draw starts off a byte boundary
REFINED_ROWS = {
    (4, 8, 3, 5): "d852d15bc39c6c8b48dc77954321e9de27ec9d0860e92536b00fe7ffbf6b32ea",
    (16, 52, 6, 3): "e27d30c34e35f388feefd80f2557299d238cfab21eebfc79caea1b627b4d74bf",
    (1, 63, 10, 2): "28b15edd6c77f817b17dc08b68c2941c8f190a728340c42b77870a11acf76f32",
}


@pytest.mark.parametrize("case", sorted(REFINED_ROWS))
def test_refined_rows_golden(case):
    m, q, level, n = case
    src = BitSource(300 + sum(case))
    src.draw_bits(3)
    rows = S.refined_rows(src, GM, m, q, level, n)
    assert rows.shape == (n, m * (1 << level) + 1)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == REFINED_ROWS[case]
    assert src.bits_drawn == 3 + n * S.sde_bit_cost(m, q, level)


def test_refined_rows_build_no_index_rows(monkeypatch):
    """The skeleton is decoded straight from its runs: refined_rows built
    the (n, m) uint64 index rows of sample_rows and dropped them."""
    calls = []
    index_rows = G._index_rows
    monkeypatch.setattr(G, "_index_rows", lambda *args: calls.append(args) or index_rows(*args))
    case = (4, 8, 3, 5)
    src = BitSource(300 + sum(case))
    src.draw_bits(3)
    rows = S.refined_rows(src, GM, *case)
    assert calls == []
    assert hashlib.sha256(rows.tobytes()).hexdigest() == REFINED_ROWS[case]


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
        idx = src.draw_bits_array(parent_p, reps * dim_hat).reshape(reps, dim_hat)
        fine = phi_inv((2.0 * idx.astype(np.float64) + 1.0) * 2.0 ** -(parent_p + 1))
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
    # one batch; blocks of 218 steps on two CPUs (436 on one), the last of 152
    (1024, 52, 300, 1234, "auto", "0x1.f833afb2556fbp-17", 19353600),
    # 7 * 63 bits per step: step boundaries fall inside words
    (1000, 16, 7, 3, "auto", "0x1.025612b26e7bep-14", 441000),
    (32, 52, 300, 11, "fine", "0x1.c4407406875e9p-12", 32563200),
])
def test_strong_error_golden_values(m, q, reps, seed, reference, rms_hex, bits):
    rms, ledger = S.strong_error_experiment(GM if reference == "auto" else GM_FINE, m, q, reps, seed)
    assert float.hex(rms) == rms_hex
    assert ledger.bits == bits


def batch_bytes(model, reps, steps):
    """The smallest _BATCH_BYTES that holds ``steps`` steps of the scheme:
    63-bit parents per step, or 64 fine steps of 53-bit parents each."""
    bits = S.PARENT_BITS if model.exact_strong_solution is not None else S.FINE_FACTOR * 53
    return -(-steps * bits * reps // 8)


# (reference, m, q) -> (float.hex of the rms, ledger bits) at 5 replications, seed 40 + m + q
STRONG_ERROR_PINS = {
    ("exact", 1, 8): ("0x1.2c0c8cf86c32fp-7", 315),
    ("exact", 1, 52): ("0x1.0d4868538ca88p-6", 315),
    ("exact", 3, 8): ("0x1.98e302316e965p-9", 945),
    ("exact", 3, 52): ("0x1.84194704d4d12p-8", 945),
    ("exact", 16, 8): ("0x1.921b7f440cfe2p-10", 5040),
    ("exact", 16, 52): ("0x1.16e275ecc652ep-11", 5040),
    ("exact", 130, 8): ("0x1.38b80030c5fadp-7", 40950),
    ("exact", 130, 52): ("0x1.c0f978adc39e2p-14", 40950),
    ("fine", 1, 8): ("0x1.59b67b3701910p-7", 16960),
    ("fine", 1, 52): ("0x1.4e0dc607d95a1p-8", 16960),
    ("fine", 3, 8): ("0x1.d8e5be6e1c639p-9", 50880),
    ("fine", 3, 52): ("0x1.e14d755388f4bp-9", 50880),
    ("fine", 16, 8): ("0x1.e8bff2fff6a18p-9", 271360),
    ("fine", 16, 52): ("0x1.1170e6f35135cp-11", 271360),
    ("fine", 130, 8): ("0x1.6907121b118a0p-9", 2204800),
    ("fine", 130, 52): ("0x1.579e688316f7cp-14", 2204800),
}


@pytest.mark.parametrize("batch", [None, 1, 3])
@pytest.mark.parametrize("case", sorted(STRONG_ERROR_PINS), ids=lambda case: "{}-m{}-q{}".format(*case))
def test_strong_error_pins_hold_at_every_batch_size(case, batch, monkeypatch):
    """Batches of one and of three steps put a batch boundary after every
    step, or inside every run of the ladder, and give the unbatched bits."""
    reference, m, q = case
    model = GM if reference == "exact" else GM_FINE
    if batch is not None:
        monkeypatch.setattr(S, "_BATCH_BYTES", batch_bytes(model, 5, batch))
    rms, ledger = S.strong_error_experiment(model, m, q, 5, 40 + m + q)
    assert (float.hex(rms), ledger.bits) == STRONG_ERROR_PINS[case]


@pytest.mark.parametrize("model, m, batches", [(GM, 40, 5), (GM_FINE, 4, 4)], ids=["exact", "fine"])
def test_strong_error_threads_give_the_one_thread_bytes(model, m, batches, monkeypatch):
    # batches of 8 steps (of one coarse step, 64 fine steps, for the fallback),
    # each decoded in four blocks on two threads from cold tables and switching
    # threads every 10 us, give the rms and ledger bits of one CPU and of the
    # unpatched sizes; a block that raises off the calling thread propagates
    # and leaves no thread
    q, reps, seed = 12, 9, 4
    whole = S.strong_error_experiment(model, m, q, reps, seed)
    monkeypatch.setattr(S, "_BATCH_BYTES", 567)  # 8 steps of 9 63-bit parents, under one coarse step of the fallback
    pools = []
    make = bitcore.ThreadPoolExecutor

    def spy(workers):
        pools.append(workers)
        return make(workers)

    monkeypatch.setattr(bitcore, "ThreadPoolExecutor", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
            pools.clear()
            N._grid_table.cache_clear()
            rms, ledger = S.strong_error_experiment(model, m, q, reps, seed)
            assert (rms.hex(), ledger.bits) == (whole[0].hex(), whole[1].bits), cpus
            assert pools == ([1] * batches if len(cpus) == 2 else []), cpus  # one pool thread per batch
    finally:
        sys.setswitchinterval(interval)
    read = S.read_runs

    def raising(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise InternalInvariantError("worker block")
        return read(*args, **kwargs)

    monkeypatch.setattr(S, "read_runs", raising)
    before = threading.active_count()
    with pytest.raises(InternalInvariantError, match="worker block"):
        S.strong_error_experiment(model, m, q, reps, seed)
    assert threading.active_count() == before


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
    q = 63 u * 2**63 overflowed the int64 cast (field 2**63, a numpy
    "invalid value" warning, then "phi_inv requires 0 < u < 1").  That
    entry now takes the top grid normal; every other increment is the one
    of the unpatched run."""
    seen = []
    milstein_steps = S._milstein_steps

    def recording(model, m, x, steps, out, k0=0):
        if m == 4:  # the random-bit path, which overwrites its increments
            seen.append(np.array(steps))
        return milstein_steps(model, m, x, steps, out, k0)

    monkeypatch.setattr(S, "_milstein_steps", recording)
    S.strong_error_experiment(GM_FINE, 4, 63, 3, 1)

    def phi_top(y):
        u = np.array(N.Phi(y))
        u.flat[0] = 1.0
        return u

    monkeypatch.setattr(S, "Phi", phi_top)
    rms, _ = S.strong_error_experiment(GM_FINE, 4, 63, 3, 1)
    assert math.isfinite(rms)
    plain, patched = seen
    assert patched.flat[0] == grid_normal_values(np.uint64(2**63 - 1), 63) == -grid_normal_values(np.uint64(0), 63)
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


def test_a_reference_that_overflows_in_a_later_batch_raises(monkeypatch):
    """In batches of two steps, exp(800 t) overflows only at t = 1, in the
    last of four batches, after three batches of the random-bit path have
    run (its states grow only by about 101 per step)."""
    model = S.geometric_model(800.0, 0.2, 1.0)
    finite = []

    def recording(t, w):
        ref = model.exact_strong_solution(t, w)
        finite.append(bool(np.all(np.isfinite(ref))))
        return ref

    monkeypatch.setattr(S, "_BATCH_BYTES", batch_bytes(model, 3, 2))
    with pytest.raises(NumericFailure, match="non-finite exact reference"):
        S.strong_error_experiment(dataclasses.replace(model, exact_strong_solution=recording), 8, 52, 3, 0)
    assert finite == [True, True, True, False]


def blowing_model(c, exact):
    """Drift c x^2 from x0 = 1 overflows the Milstein state after a few steps,
    with a finite exact reference w + t, or with the fine one."""
    return S.SDEModel(drift=lambda x: c * x * x, diffusion=lambda x: np.ones_like(x),
                      diffusion_deriv=lambda x: 0.0 * x, x0=1.0,
                      exact_strong_solution=(lambda t, w: w + t) if exact else None)


# steps as the run before batching named them, at seed 1 and 5 replications
@pytest.mark.parametrize("c, exact, m, step", [(1e5, True, 12, 7), (2.0, False, 8, 201)], ids=["exact", "fine"])
def test_a_milstein_failure_in_a_later_batch_names_its_step(c, exact, m, step, monkeypatch):
    """In batches of two steps the state overflows in a later batch: step 7
    of 12 in the fourth, or fine step 201 of 512 in the second batch of 128
    fine steps; the failure names the step of the unbatched run."""
    model = blowing_model(c, exact)
    for batch in (None, 2):
        if batch is not None:
            monkeypatch.setattr(S, "_BATCH_BYTES", batch_bytes(model, 5, batch))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericFailure) as err:
            S.strong_error_experiment(model, m, 8, 5, 1)
        assert (err.value.step, str(err.value)) == (step, f"non-finite state at step {step}"), batch


def _watched_model(case, returned):
    """GM with a read-only exact solution, or the additive model from 0, whose
    exact solution X = W returns a view of its w argument; each call records
    the array it returned and a copy of it."""
    def read_only(t, w):
        ref = GM.exact_strong_solution(t, w)
        ref.flags.writeable = False
        returned.append((ref, ref.copy()))
        return ref

    def view_of_w(t, w):
        ref = w[:, :]
        assert np.shares_memory(ref, w)
        returned.append((ref, ref.copy()))
        return ref

    if case == "read_only":
        return dataclasses.replace(GM, exact_strong_solution=read_only)
    return dataclasses.replace(additive_model(), exact_strong_solution=view_of_w)


@pytest.mark.parametrize("case, rms_hex", [("read_only", "0x1.48837ef113512p-8"),
                                           ("view_of_w", "0x1.aa1a598d84c7bp-6")])
def test_strong_error_tail_never_writes_the_models_array(case, rms_hex, monkeypatch):
    """|ref - bit| is formed in the Milstein path's own buffer, never in the
    array the model returned: a read-only reference and a view of the
    Brownian path give the rms of the out-of-place tail, bit for bit, and
    keep their values, also in batches of two steps, where each batch
    builds its Brownian path and its Milstein path in buffers of its own."""
    for batch in (None, 2):
        returned = []
        if batch is not None:
            monkeypatch.setattr(S, "_BATCH_BYTES", batch_bytes(GM, 50, batch))
        rms, _ = S.strong_error_experiment(_watched_model(case, returned), 64, 8, 50, 7)
        assert float.hex(rms) == rms_hex
        assert len(returned) == (1 if batch is None else 32)  # one call per batch
        for ref, copy in returned:
            assert ref.tobytes() == copy.tobytes()


def traced_peak(model, m):
    """tracemalloc peak of one q = 52, 1000-replication run, in bytes."""
    tracemalloc.start()
    try:
        S.strong_error_experiment(model, m, 52, 1000, 1234)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_strong_error_tail_holds_three_step_arrays():
    """One m = 1024, 1000-replication run holds, per batch of about 1 MiB of
    words (133 steps), the parents (then the Brownian path), the q-bit
    increments (then the Milstein path) and the reference, three batch
    arrays besides the batch's words and the blocks in flight: its
    tracemalloc peak is about 7 MiB.  Three whole (m, reps) arrays made it
    24.5 MiB, and the tail's temporaries before them 54.7 MiB."""
    S.strong_error_experiment(GM, 16, 52, 1000, 1)  # builds the decode's cached tables
    assert traced_peak(GM, 1024) < 12 * 2**20


def test_strong_error_memory_does_not_grow_with_m():
    """The run holds a batch's arrays at any m: with the exact reference
    m = 1024 (eight batches) peaks within 1.25x of m = 128 (one batch), about
    7 and 6 MiB; the fallback at m = 64 peaks at about 6 MiB, where its
    (64 m, reps) fine increments and their copies made it 65.5 MiB."""
    S.strong_error_experiment(GM, 16, 52, 1000, 1)  # builds the decode's cached tables
    assert traced_peak(GM, 1024) <= 1.25 * traced_peak(GM, 128)
    assert traced_peak(GM_FINE, 64) < 12 * 2**20
