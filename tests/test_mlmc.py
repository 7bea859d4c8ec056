import inspect
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbitmc import gausskl as G
from rbitmc import mlmc as M
from rbitmc.bitcore import BitAllocation, BitSource, CostLedger, child_source
from rbitmc.bridge import allocation_bridge, allocation_bridge_total, nodes_from_coeffs, pl_l2_norm_sq
from rbitmc.errors import CapacityError, ConfigurationError, InternalInvariantError
from rbitmc.gausskl import EigenSpec, allocation_kl

BRIDGE = M.bridge_model()
KL_SPEC = EigenSpec(beta=2.0, alpha=0.0)


def _decode(model, level, drawn):
    """(coefficient rows, index rows) of every row drawn by ``model.sample_rows``."""
    return G.decode_rows(drawn, 0, drawn.n, model.scale(level), len(drawn.alloc))


def test_params_reference_case():
    p = M.mlmc_params(math.exp(-2.0), 2.0, 0.0)
    assert abs(p.z - (1.0 + math.exp(2.0))) < 1e-12
    assert p.L == 7
    assert abs(p.K - 2.0 * math.exp(4.0)) < 1e-9
    assert p.N == [55, 28, 14, 7, 4, 2, 1]
    assert M.theoretical_cost(p) == 830.0


def test_params_k_cases():
    assert abs(M.mlmc_params(math.exp(-2.0), 3.0, 0.0).K - math.exp(4.0)) < 1e-9
    # beta < 2 uses exponent beta/(beta-1) and the negative-log-power factor
    p = M.mlmc_params(math.exp(-2.0), 1.5, 1.0)
    assert abs(p.K - math.exp(-2.0) ** -3.0 * 2.0 ** -1.0) < 1e-9
    # beta = 2, alpha = 2 uses ln ln
    p = M.mlmc_params(math.exp(-3.0), 2.0, 2.0)
    assert abs(p.K - math.exp(6.0) * math.log(3.0)) < 1e-9


def test_params_validation_and_nl():
    with pytest.raises(ValueError):
        M.mlmc_params(0.2, 2.0, 0.0)  # above e^-2
    with pytest.raises(ValueError):
        M.mlmc_params(0.01, 1.0, 0.0)
    for eps, beta in ((1e-200, 2.0), (1e-154, 2.0), (0.1, 1.0001)):  # K(eps) overflows
        with pytest.raises(ValueError, match="too small"):
            M.mlmc_params(eps, beta, 0.0)
    for beta, alpha, name in ((math.inf, 0.0, "beta"), (math.nan, 0.0, "beta"),
                              (2.0, math.inf, "alpha"), (2.0, -math.inf, "alpha"), (2.0, math.nan, "alpha")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):  # beta = inf gave L = 0
            M.mlmc_params(0.1, beta, alpha)
    for eps in (2.0 ** -3, 2.0 ** -6, 1e-4):
        p = M.mlmc_params(eps, 2.0, 0.0)
        assert all(n >= 1 for n in p.N)


def test_params_keep_one_level_when_z_rounds_to_one():
    # the increment of z, 100 (ln 100)**-27.5 ~ 6e-17, is below half an ulp of 1,
    # so z rounds to 1.0; the schedule still has the level that exact z > 1 gives
    p = M.mlmc_params(0.01, 3.0, 55.0)
    assert p.z == 1.0
    assert p.L == 1
    assert p.N == [3536]


def test_cost_monotone_as_eps_shrinks():
    costs = [M.theoretical_cost(M.mlmc_params(2.0 ** -k, 2.0, 0.0)) for k in range(3, 9)]
    assert all(b >= a for a, b in zip(costs, costs[1:]))


def test_ledger_bits_identity_bridge_and_kl():
    params = M.mlmc_params(2.0 ** -3, 2.0, 0.0)
    res = M.mlmc_estimate(M.lookup_functional("norm"), BRIDGE, params, BitSource(1))
    expected = sum(n * allocation_bridge_total(l)
                   for l, n in zip(range(1, params.L + 1), params.N))
    assert res.ledger.bits == expected
    km = M.kl_model(KL_SPEC)
    res = M.mlmc_estimate(M.lookup_functional("norm"), km, params, BitSource(2))
    expected = sum(n * allocation_kl(1 << l, KL_SPEC).total
                   for l, n in zip(range(1, params.L + 1), params.N))
    assert res.ledger.bits == expected


@pytest.mark.parametrize("beta,alpha", [(2.0, 0.0), (1.5, 2.0), (3.0, -2.0)])
def test_explicit_analytic_spectrum_is_the_analytic_model(beta, alpha):
    """Explicit spectra take the one KL path: written out as the analytic
    formula, a spectrum gives the analytic spec's allocations, scale bytes,
    estimate and ledger at the same seed."""
    analytic = EigenSpec(beta, alpha)
    explicit = EigenSpec(beta, alpha, explicit=lambda i: i ** -beta * np.log(i + 1.0) ** -alpha)
    params = M.mlmc_params(2.0 ** -3, beta, alpha)
    a, e = M.KLModel(analytic), M.KLModel(explicit)
    for level in range(1, params.L + 1):
        assert np.array_equal(allocation_kl(1 << level, explicit).counts, allocation_kl(1 << level, analytic).counts)
        assert e.scale(level).tobytes() == a.scale(level).tobytes()
    f = M.lookup_functional("soft_linear")
    got, want = M.mlmc_estimate(f, e, params, BitSource(5)), M.mlmc_estimate(f, a, params, BitSource(5))
    assert got.estimate.hex() == want.estimate.hex()
    assert got.ledger == want.ledger


def test_bridge_spectrum_runs_as_a_kl_model():
    """The Brownian bridge in its eigenbasis, lambda_i = (i pi)**-2 with
    declared rates (2, 0), runs the estimator; the ledger holds the bit
    budget sum_l N_l |p(l)| of the declared-rate allocations."""
    spec = EigenSpec(2.0, 0.0, explicit=lambda i: (math.pi * i) ** -2.0)
    params = M.mlmc_params(2.0 ** -3, spec.beta, spec.alpha)
    res = M.mlmc_estimate(M.lookup_functional("norm"), M.KLModel(spec), params, BitSource(3))
    assert res.ledger.bits == sum(n * allocation_kl(1 << l, spec).total
                                  for l, n in zip(range(1, params.L + 1), params.N))
    assert abs(res.estimate - 0.378131963726) <= 2.0 ** -3  # E||B||, the exact bridge norm mean


def test_bit_budget_mismatch_is_internal():
    class OverDrawing(M.BridgeModel):
        def sample_rows(self, src, level, n):
            src.draw_bits(1)
            return super().sample_rows(src, level, n)

    params = M.mlmc_params(2.0 ** -3, 2.0, 0.0)
    with pytest.raises(InternalInvariantError, match="bit budget mismatch"):
        M.mlmc_estimate(M.lookup_functional("norm"), OverDrawing(), params, BitSource(1))


def test_capped_level_raises_before_drawing():
    # the bit budget is summed from the top level down before the first draw
    params = M.MLMCParams(2.0 ** -4, 2.0, 0.0, 0.0, 26, 0.0, [1] * 26)
    src = BitSource(1)
    with pytest.raises(CapacityError):
        M.mlmc_estimate(M.lookup_functional("norm"), M.BridgeModel(), params, src)
    assert src.bits_drawn == 0


def test_models_check_min_bits():
    for min_bits in (-5, 64, 2.5, "4", None):
        with pytest.raises(ValueError, match="min_bits"):
            M.BridgeModel(min_bits)
        with pytest.raises(ValueError, match="min_bits"):
            M.KLModel(KL_SPEC, min_bits=min_bits)
    for min_bits in (0, np.int64(4), 63):
        assert M.BridgeModel(min_bits).allocation(3).counts.min() == max(2, min_bits)
        assert M.KLModel(KL_SPEC, min_bits).allocation(3).counts.min() >= min_bits


def test_only_the_model_constructors_take_min_bits():
    """A level's allocation is the model's: no function or method of mlmc but
    the model constructors takes ``min_bits``, and none takes ``base_seed``
    or ``batch``."""
    takers = set()
    for name, obj in vars(M).items():
        if getattr(obj, "__module__", None) != M.__name__:
            continue
        if inspect.isfunction(obj):
            members = {name: obj}
        elif inspect.isclass(obj):
            members = {f"{name}.{k}": v for k, v in vars(obj).items() if inspect.isfunction(v)}
        else:
            continue
        for qualname, fn in members.items():
            params = inspect.signature(fn).parameters
            assert "base_seed" not in params and "batch" not in params, qualname
            if "min_bits" in params:
                takers.add(qualname)
    assert takers == {"ExpansionModel.__init__", "KLModel.__init__"}


def test_oracle_cost_uses_exact_dimensions():
    params = M.mlmc_params(math.exp(-2.0), 2.0, 0.0)
    res = M.mlmc_estimate(M.lookup_functional("coord1"), BRIDGE, params, BitSource(3))
    expected = 0
    for l, n in zip(range(1, params.L + 1), params.N):
        expected += n * ((1 << l) - 1)
        if l >= 2:
            expected += n * ((1 << (l - 1)) - 1)
    assert res.ledger.oracle_cost == expected


def test_estimator_deterministic():
    params = M.mlmc_params(2.0 ** -3, 2.0, 0.0)
    f = M.lookup_functional("coord1")
    a = M.mlmc_estimate(f, BRIDGE, params, BitSource(100))
    b = M.mlmc_estimate(f, BRIDGE, params, BitSource(100))
    assert a.estimate == b.estimate
    assert a.ledger.bits == b.ledger.bits


def test_coupling_bit_exact():
    src = BitSource(8)
    _, idx = _decode(BRIDGE, 5, BRIDGE.sample_rows(src, 5, 64))
    c1, i1 = BRIDGE.coarsen_rows(idx, 5)
    c2, i2 = BRIDGE.coarsen_rows(idx, 5)
    assert np.array_equal(i1, i2)
    assert np.array_equal(c1, c2)


def test_zero_mean_estimator_200_runs():
    params = M.mlmc_params(math.exp(-2.0), 2.0, 0.0)
    f = M.lookup_functional("coord1")
    ests = np.array([M.mlmc_estimate(f, BRIDGE, params, child_source(40, r)).estimate
                     for r in range(200)])
    se = ests.std(ddof=1) / math.sqrt(len(ests))
    assert abs(ests.mean()) < 4.0 * se


def test_telescoping_matches_single_level():
    params = M.mlmc_params(2.0 ** -3, 2.0, 0.0)
    f = M.lookup_functional("norm")
    runs = np.array([M.mlmc_estimate(f, BRIDGE, params, child_source(41, r)).estimate
                     for r in range(60)])
    ref_mean, ref_se, _ = M.plain_mc(f, BRIDGE, params.L, 100_000, BitSource(4242))
    se = runs.std(ddof=1) / math.sqrt(len(runs))
    assert abs(runs.mean() - ref_mean) < 4.0 * math.sqrt(se * se + ref_se * ref_se)


def test_min_bits_mode():
    params = M.mlmc_params(2.0 ** -3, 2.0, 0.0)
    f = M.lookup_functional("norm")
    res = M.mlmc_estimate(f, M.BridgeModel(min_bits=20), params, BitSource(50))
    expected = sum(n * int(np.maximum(allocation_bridge(l).counts, 20).sum())
                   for l, n in zip(range(1, params.L + 1), params.N))
    assert res.ledger.bits == expected


def test_variance_decay_slope():
    f = M.lookup_functional("norm")
    levels = list(range(2, 9))
    variances = []
    for level in levels:
        src = BitSource(900 + level)
        coeffs, idx = _decode(BRIDGE, level, BRIDGE.sample_rows(src, level, 2000))
        y = (f.rows(BRIDGE.functional_rows(coeffs, level))
             - f.rows(BRIDGE.functional_rows(BRIDGE.coarsen_rows(idx, level)[0], level - 1)))
        variances.append(float(np.var(y, ddof=1)))
    slope = np.polyfit(levels, np.log2(variances), 1)[0]
    assert slope <= -0.8


def test_builtin_functionals_lipschitz_spot_check():
    rng = np.random.default_rng(6)
    catalog = M.builtin_functionals()
    kl = M.kl_model(KL_SPEC)
    # trivial values
    assert catalog["norm"].rows(kl.functional_rows(np.zeros((2, 4)), 2)).tolist() == [0.0, 0.0]
    v = rng.standard_normal(8)
    assert catalog["coord1"].rows(kl.functional_rows(v[np.newaxis, :], 3))[0] == v[0]
    pairs = rng.standard_normal((1000, 2, 8))
    x, y = pairs[:, 0], pairs[:, 1]
    dist = np.linalg.norm(x - y, axis=1)
    for f in catalog.values():
        gap = np.abs(f.rows(kl.functional_rows(x, 3)) - f.rows(kl.functional_rows(y, 3)))
        assert np.all(gap <= dist + 1e-9), f.name
    pairs = rng.standard_normal((200, 2, 15))
    x, y = pairs[:, 0], pairs[:, 1]
    dist = np.sqrt(pl_l2_norm_sq(nodes_from_coeffs(x - y, 4)))
    for f in catalog.values():
        gap = np.abs(f.rows(BRIDGE.functional_rows(x, 4)) - f.rows(BRIDGE.functional_rows(y, 4)))
        assert np.all(gap <= dist + 1e-9), f.name


def test_unknown_functional_rejected():
    with pytest.raises(ConfigurationError):
        M.lookup_functional("nope")


def test_cost_ratio_bracket():
    # theoretical cost vs the total of all ledger counters stays within the
    # recorded [1/8, 8] bracket over the acceptance eps grid
    f = M.lookup_functional("norm")
    for k in range(3, 7):
        params = M.mlmc_params(2.0 ** -k, 2.0, 0.0)
        res = M.mlmc_estimate(f, BRIDGE, params, BitSource(600 + k))
        ledger_total = res.ledger.bits + res.ledger.oracle_cost + res.ledger.coeff_ops
        ratio = M.theoretical_cost(params) / ledger_total
        assert 0.125 <= ratio <= 8.0


MODELS = {"bridge": BRIDGE, "kl": M.kl_model(KL_SPEC)}


@pytest.mark.parametrize("n", [204, 205])
@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("name", sorted(M.builtin_functionals()))
def test_blocked_evaluation_equals_whole_batch(model_name, name, n, monkeypatch):
    model, f = MODELS[model_name], M.lookup_functional(name)
    fine = model.sample_rows(BitSource(17), 5, n)
    coeffs, idx = _decode(model, 5, fine)
    for k, (rows, level) in enumerate(((coeffs, 5), (model.coarsen_rows(idx, 5)[0], 4))):
        whole = f.rows(model.functional_rows(rows, level)).tobytes()
        width = len(model.allocation(4))
        assert M._evaluate(f, model, 5, fine, width)[k].tobytes() == whole  # one block
        for budget in (8 * 34 * 7, 8 * 34 * 5, 1):  # blocks of 5-14 rows, and of 2-3 rows
            monkeypatch.setattr(M, "_EVAL_BYTES", budget)
            assert M._evaluate(f, model, 5, fine, width)[k].tobytes() == whole, budget
        monkeypatch.undo()


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_estimators_do_not_depend_on_the_block_size(model_name, monkeypatch):
    model = MODELS[model_name]
    params = M.mlmc_params(2.0 ** -3, model.beta, model.alpha)
    f = M.lookup_functional("norm")

    monkeypatch.setattr(M, "_BATCH_ROWS", 128)

    def run():
        mean, stderr, ledger = M.plain_mc(f, model, 8, 301, BitSource(5))
        est = M.mlmc_estimate(f, model, params, BitSource(6))
        return mean.hex(), stderr.hex(), ledger.bits, est.estimate.hex(), est.stderr.hex()

    default = run()
    monkeypatch.setattr(M, "_EVAL_BYTES", 1)
    assert run() == default


def test_plain_mc_draws_no_index_rows(monkeypatch):
    # a batch is held as its drawn words: no index rows are decoded, and no
    # coefficient block has more rows than one evaluation block
    seen, decoded = [], []
    sample = M.ExpansionModel.sample_rows

    def spy(self, *args, **kwargs):
        drawn = sample(self, *args, **kwargs)
        seen.append((type(drawn), drawn.n))
        return drawn

    decode = G.decode_rows

    def blocks(drawn, a, b, *args, **kwargs):
        coeffs, idx = decode(drawn, a, b, *args, **kwargs)
        decoded.append((b - a, idx))
        return coeffs, idx

    monkeypatch.setattr(M.ExpansionModel, "sample_rows", spy)
    monkeypatch.setattr(G, "decode_rows", blocks)
    monkeypatch.setattr(M, "_EVAL_BYTES", 8 * 65 * 4)  # level 6: 4 rows in flight, split among the threads
    monkeypatch.setattr(M, "_BATCH_ROWS", 20)
    M.plain_mc(M.lookup_functional("norm"), BRIDGE, 6, 50, BitSource(3))
    assert seen == [(G.DrawnRows, 20), (G.DrawnRows, 20), (G.DrawnRows, 10)]
    threads = min(2, len(os.sched_getaffinity(0)))
    assert sum(rows for rows, _ in decoded) == 50 and max(rows for rows, _ in decoded) == 4 // threads
    assert all(idx is None for _, idx in decoded)


class _PoolSpy:
    """Records the thread count of each pool ``mlmc._evaluate`` makes."""

    def __init__(self, monkeypatch):
        self.pools = []
        make = M.ThreadPoolExecutor

        def spy(workers):
            self.pools.append(workers)
            return make(workers)

        monkeypatch.setattr(M, "ThreadPoolExecutor", spy)


def _fresh_model(model_name):
    return M.BridgeModel() if model_name == "bridge" else M.KLModel(KL_SPEC)


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_threaded_blocks_give_the_one_block_bytes(model_name, monkeypatch):
    # a batch of many blocks, evaluated on two threads from cold tables and
    # switching threads every 10 us, gives the bytes of one block on one
    # thread; so does one CPU, serially
    from rbitmc import bitcore, normal

    level, n = 6, 203
    width = len(MODELS[model_name].allocation(level - 1))
    one_block = {}
    for name, f in M.builtin_functionals().items():
        drawn = MODELS[model_name].sample_rows(BitSource(23), level, n)
        y, y_coarse = M._evaluate(f, MODELS[model_name], level, drawn, width)
        one_block[name] = y.tobytes(), y_coarse.tobytes()
    plain = M.plain_mc(M.lookup_functional("norm"), MODELS[model_name], level, n, BitSource(24))
    monkeypatch.setattr(M, "_EVAL_BYTES", 8 * 66 * 16)  # 8 rows a block on two threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            pools = _PoolSpy(monkeypatch)
            for name, f in M.builtin_functionals().items():
                for table in (normal._grid_table, normal.grid_normal_byte_table, bitcore.byte_fields):
                    table.cache_clear()
                model = _fresh_model(model_name)
                drawn = model.sample_rows(BitSource(23), level, n)
                y, y_coarse = M._evaluate(f, model, level, drawn, width)
                assert (y.tobytes(), y_coarse.tobytes()) == one_block[name], (name, cpus)
            mean, stderr, ledger = M.plain_mc(M.lookup_functional("norm"), _fresh_model(model_name),
                                              level, n, BitSource(24))
            assert (mean.hex(), stderr.hex(), ledger.bits) == (plain[0].hex(), plain[1].hex(), plain[2].bits)
            assert pools.pools == ([1] * 6 if len(cpus) == 2 else []), cpus  # one pool thread beside the caller
    finally:
        sys.setswitchinterval(interval)


def test_worker_exception_propagates_and_leaves_no_thread(monkeypatch):
    # a block evaluated off the calling thread raises: plain_mc and
    # mlmc_estimate raise it, and every pool thread has ended
    base = M.lookup_functional("norm")

    def rows(batch):
        if threading.current_thread() is not threading.main_thread():
            raise InternalInvariantError("worker block")
        return base.rows(batch)

    f = M.LipFunctional("raises_off_main", rows)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(M, "_EVAL_BYTES", 1)  # blocks of 2 rows
    pools = _PoolSpy(monkeypatch)
    before = threading.active_count()
    with pytest.raises(InternalInvariantError, match="worker block"):
        M.plain_mc(f, BRIDGE, 6, 100, BitSource(5))
    assert threading.active_count() == before
    with pytest.raises(InternalInvariantError, match="worker block"):
        M.mlmc_estimate(f, BRIDGE, M.mlmc_params(2.0 ** -3, 2.0, 0.0), BitSource(5))
    assert threading.active_count() == before
    assert pools.pools == [1, 1]


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_one_block_batches_start_no_thread(model_name, monkeypatch):
    # every level of the estimator at eps 2^-6 fits in one block of a thread
    model = MODELS[model_name]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pools = _PoolSpy(monkeypatch)
    before = threading.active_count()
    M.mlmc_estimate(M.lookup_functional("norm"), model, M.mlmc_params(2.0 ** -6, model.beta, model.alpha),
                    BitSource(8))
    assert pools.pools == [] and threading.active_count() == before


@pytest.mark.parametrize("kwargs", [{"n": 0}, {"n": -3}])
def test_plain_mc_rejects_empty_runs_and_batches(kwargs):
    src = BitSource(3)
    with pytest.raises(ValueError, match="positive integer"):
        M.plain_mc(M.lookup_functional("norm"), BRIDGE, 4, src=src, **kwargs)
    assert src.bits_drawn == 0


def test_plain_mc_refuses_a_count_that_is_not_an_integer():
    """n = 2.5 passed the n >= 1 check and was refused by the draw as
    "bit count must be a non-negative integer, got 55.0"."""
    src = BitSource(3)
    with pytest.raises(ValueError, match="n must be a positive integer, got 2.5"):
        M.plain_mc(M.lookup_functional("norm"), BRIDGE, 4, 2.5, src)
    assert src.bits_drawn == 0


@pytest.mark.parametrize("name, target", [("coord2", 2), ("soft_linear", 3)])
@pytest.mark.parametrize("level", [1, 2])
def test_bridge_functionals_refine_coarse_meshes(name, target, level):
    # the rows give the same bits as the same coefficients zero-padded to the
    # level of the functional's finest hat and put through nodes_from_coeffs
    f = M.lookup_functional(name)
    coeffs, _ = _decode(BRIDGE, level, BRIDGE.sample_rows(BitSource(40 + level), level, 9))
    padded = np.zeros((coeffs.shape[0], (1 << max(level, target)) - 1))
    padded[:, :coeffs.shape[1]] = coeffs
    fine = M.BridgeRows(nodes_from_coeffs(padded, max(level, target)))
    got = f.rows(BRIDGE.functional_rows(coeffs, level))
    assert got.tobytes() == f.rows(fine).tobytes()
    assert np.all(np.isfinite(got)) and np.any(got != 0.0)


def test_plain_mc_memory_is_bounded_by_the_drawn_words():
    # a 4096-row level-12 batch is held as its n |p| / 8 bytes of stream
    # words plus cache-sized blocks; the (4096, 4095) float64 coefficient
    # rows alone would take 134 MB
    import tracemalloc

    f, n = M.lookup_functional("norm"), 4096
    M.plain_mc(f, BRIDGE, 12, 8, BitSource(1))  # fill the lazily built tables
    tracemalloc.start()
    try:
        M.plain_mc(f, BRIDGE, 12, n, BitSource(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    words = n * allocation_bridge_total(12) // 8
    assert peak < 2 * words + 8 * M._EVAL_BYTES


def test_plain_mc_memory_is_bounded_by_the_batch_bytes(monkeypatch):
    # level 12 rows hold 2 kB of words each: 512 rows are 4 batches of 128
    # rows, and only one batch's words are held at a time
    import tracemalloc

    f, n, budget = M.lookup_functional("norm"), 512, 256 << 10
    monkeypatch.setattr(M, "_BATCH_BYTES", budget)
    monkeypatch.setattr(M, "_EVAL_BYTES", 64 << 10)
    M.plain_mc(f, BRIDGE, 12, 8, BitSource(1))  # fill the lazily built tables
    tracemalloc.start()
    try:
        M.plain_mc(f, BRIDGE, 12, n, BitSource(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n * allocation_bridge_total(12) // 8 > 3 * budget
    assert peak < 2 * budget + 8 * M._EVAL_BYTES


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_allocations_and_scales_are_computed_once(model_name):
    model = MODELS[model_name]
    min4 = M.BridgeModel(min_bits=4) if model_name == "bridge" else M.KLModel(KL_SPEC, min_bits=4)
    for level in (1, 6):
        for m in (model, min4):
            alloc = m.allocation(level)
            assert m.allocation(level) is alloc
            assert not alloc.counts.flags.writeable
        scale = model.scale(level)
        assert model.scale(level) is scale
        assert scale is None or not scale.flags.writeable


def test_stderr_sums_left_to_right():
    """The built-in sum() of floats compensates its rounding from Python 3.12
    on, which gives 1 + 2**-51 here and a stderr of 1 + 2**-52."""
    result = M.MLMCResult(0.0, CostLedger(), [], [1.0, 1e-16, 1e-16, 1e-16, 1e-16], [1] * 5)
    assert result.stderr == 1.0


def test_overflowing_replication_constant_names_eps_beta_and_the_exponent():
    # at beta 1.001 the exponent beta/(beta-1) = 1001 overflows K(eps), not eps 0.1 itself
    with pytest.raises(ValueError, match=r"^eps 0\.1 is too small for beta 1\.001: the replication constant "
                                         r"K\(eps\) overflows, as eps is raised to -max\(2, beta/\(beta-1\)\) = -1001$"):
        M.mlmc_params(0.1, 1.001, 0.0)


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_a_functional_of_the_row_methods_runs_on_both_models(model_name):
    # written only against linear(w), it runs on either row type; negation
    # is exact, so it gives the bits of -coord1 and the same stderr
    neg = M.LipFunctional("neg", lambda r: -r.linear(np.array([1.0])))
    coord1 = M.lookup_functional("coord1")
    model = MODELS[model_name]
    (mean, stderr, _), (mean1, stderr1, _) = (M.plain_mc(f, model, 5, 300, BitSource(11)) for f in (neg, coord1))
    assert (mean.hex(), stderr.hex()) == ((-mean1).hex(), stderr1.hex())
    params = M.mlmc_params(2.0 ** -4, model.beta, model.alpha)
    res, res1 = (M.mlmc_estimate(f, model, params, BitSource(12)) for f in (neg, coord1))
    assert (res.estimate.hex(), res.stderr.hex()) == ((-res1.estimate).hex(), res1.stderr.hex())


@settings(max_examples=60, deadline=None)
@given(model_name=st.sampled_from(sorted(MODELS)), beta=st.sampled_from([1.5, 2.0, 3.0]),
       alpha=st.sampled_from([-2.0, 0.0, 2.0]), min_bits=st.sampled_from([0, 5, 21, 52]),
       level=st.integers(2, 8), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@example(model_name="kl", beta=1.5, alpha=0.0, min_bits=0, level=8, n=3, seed=1)  # coarse counts vary inside a fine run
@example(model_name="kl", beta=2.0, alpha=2.0, min_bits=21, level=6, n=2, seed=2)  # every coarse run past 20 bits
@example(model_name="bridge", beta=2.0, alpha=0.0, min_bits=52, level=5, n=4, seed=3)
@example(model_name="bridge", beta=2.0, alpha=0.0, min_bits=0, level=13, n=2, seed=4)  # coarse runs at p = 22, 24
def test_model_coarsening_equals_coarsen_rows_on_fresh_allocations(model_name, beta, alpha, min_bits, level, n, seed):
    """A model's coarsen_rows, on its cached allocations and scales, gives
    the bytes of gausskl.coarsen_rows on allocations and scales built afresh."""
    spec = EigenSpec(beta, alpha)
    model = M.BridgeModel(min_bits) if model_name == "bridge" else M.KLModel(spec, min_bits)

    def fresh(l):
        base = allocation_bridge(l) if model_name == "bridge" else allocation_kl(1 << l, spec)
        return BitAllocation(np.maximum(base.counts, min_bits))

    fine, coarse = fresh(level), fresh(level - 1)
    scale = None if model_name == "bridge" else np.sqrt(spec.eigenvalues(np.arange(1, len(coarse) + 1)))
    _, idx = G.decode_rows(model.sample_rows(BitSource(seed), level, n), 0, n, model.scale(level), len(coarse))
    want_coeffs, want_idx = G.coarsen_rows(idx, fine, coarse, scale)
    for _ in range(2):  # the second call reuses the cached allocations, runs and scale
        coeffs, got_idx = model.coarsen_rows(idx, level)
        assert coeffs.tobytes() == want_coeffs.tobytes()
        assert got_idx.tobytes() == want_idx.tobytes()


def _phi_inv_calls_per_block(monkeypatch, run):
    """(phi_inv calls, phi_inv calls within each decoded and each coarsened
    block) of ``run()``, counted through normal.phi_inv patched at every
    module of the package that binds it, one count per thread."""
    import rbitmc
    from rbitmc import normal

    phi_inv, local, calls, per_block = normal.phi_inv, threading.local(), [], []

    def counted(u):
        calls.append(1)
        local.calls = getattr(local, "calls", 0) + 1
        return phi_inv(u)

    for mod in [rbitmc, *(m for name, m in sys.modules.items() if name.startswith("rbitmc."))]:
        for attr, obj in list(vars(mod).items()):
            if obj is phi_inv:
                monkeypatch.setattr(mod, attr, counted)

    def block(fn):
        def counting(*args, **kwargs):
            local.calls = 0
            out = fn(*args, **kwargs)
            per_block.append(local.calls)
            return out
        return counting

    monkeypatch.setattr(G, "decode_rows", block(G.decode_rows))
    monkeypatch.setattr(M.ExpansionModel, "coarsen_rows", block(M.ExpansionModel.coarsen_rows))
    run()
    return len(calls), per_block


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_mlmc_calls_phi_inv_at_most_once_per_block(model_name, monkeypatch):
    """The runs above the p <= 20 grid tables of a decoded block go through
    one phi_inv call, and so do those of a coarsened block (levels 11-13 at
    eps = 2^-6; the 2^-6 schedule of the benchmark's mlmc_runs)."""
    model, f = MODELS[model_name], M.lookup_functional("norm")
    params = M.mlmc_params(2.0 ** -6, model.beta, model.alpha)
    M.mlmc_estimate(f, model, params, BitSource(1))  # builds the grid tables, which call phi_inv once each
    calls, per_block = _phi_inv_calls_per_block(monkeypatch, lambda: M.mlmc_estimate(f, model, params, BitSource(2)))
    assert calls == sum(per_block) > 0
    assert max(per_block) == 1


def test_plain_mc_calls_phi_inv_at_most_once_per_block(monkeypatch):
    """A 4096-row level-13 bridge batch has three runs above the grid tables
    (p = 22, 24, 26) in every block: one phi_inv call per block."""
    f = M.lookup_functional("norm")
    M.plain_mc(f, BRIDGE, 13, 2, BitSource(1))
    calls, per_block = _phi_inv_calls_per_block(monkeypatch, lambda: M.plain_mc(f, BRIDGE, 13, 4096, BitSource(2)))
    assert calls == len(per_block) > 1
    assert set(per_block) == {1}
