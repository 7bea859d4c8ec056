import math

import numpy as np
import pytest

from rbitmc import gausskl as G
from rbitmc import mlmc as M
from rbitmc.bitcore import BitSource, child_source
from rbitmc.bridge import BridgePath, allocation_bridge, allocation_bridge_total, pl_l2_norm_sq
from rbitmc.errors import ConfigurationError, InternalInvariantError
from rbitmc.gausskl import EigenSpec, KLVector, allocation_kl

BRIDGE = M.bridge_model()
KL_SPEC = EigenSpec(beta=2.0, alpha=0.0)


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
    for eps in (2.0 ** -3, 2.0 ** -6, 1e-4):
        p = M.mlmc_params(eps, 2.0, 0.0)
        assert all(n >= 1 for n in p.N)


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


def test_bit_budget_mismatch_is_internal():
    class UnderReporting(M.BridgeModel):
        def bits_per_fine(self, level, min_bits=0):
            return super().bits_per_fine(level, min_bits) - 1

    params = M.mlmc_params(2.0 ** -3, 2.0, 0.0)
    with pytest.raises(InternalInvariantError, match="bit budget mismatch"):
        M.mlmc_estimate(M.lookup_functional("norm"), UnderReporting(), params, BitSource(1))


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
    state = BRIDGE.sample_rows(src, 5, 64)
    c1 = BRIDGE.coarsen_rows(state)
    c2 = BRIDGE.coarsen_rows(state)
    assert np.array_equal(c1["idx"], c2["idx"])
    assert np.array_equal(c1["coeffs"], c2["coeffs"])


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
    res = M.mlmc_estimate(f, BRIDGE, params, BitSource(50), min_bits=20)
    expected = sum(n * int(np.maximum(allocation_bridge(l).counts, 20).sum())
                   for l, n in zip(range(1, params.L + 1), params.N))
    assert res.ledger.bits == expected


def test_parallel_mode_reproducible():
    params = M.mlmc_params(2.0 ** -3, 2.0, 0.0)
    f = M.lookup_functional("coord1")
    a = M.mlmc_estimate(f, BRIDGE, params, BitSource(0), base_seed=99)
    b = M.mlmc_estimate(f, BRIDGE, params, BitSource(0), base_seed=99)
    assert a.estimate == b.estimate
    assert a.ledger.bits == b.ledger.bits
    # the per-level child sources replace the given one, which stays untouched
    src = BitSource(1)
    assert M.mlmc_estimate(f, BRIDGE, params, src, base_seed=99).estimate == a.estimate
    assert src.bits_drawn == 0


def test_variance_decay_slope():
    f = M.lookup_functional("norm")
    levels = list(range(2, 9))
    variances = []
    for level in levels:
        src = BitSource(900 + level)
        state = BRIDGE.sample_rows(src, level, 2000)
        y = (f.rows(BRIDGE.functional_rows(state))
             - f.rows(BRIDGE.functional_rows(BRIDGE.coarsen_rows(state))))
        variances.append(float(np.var(y, ddof=1)))
    slope = np.polyfit(levels, np.log2(variances), 1)[0]
    assert slope <= -0.8


def _random_bridge_path(rng, level):
    dim = (1 << level) - 1
    coeffs = rng.standard_normal(dim)
    return BridgePath(level, coeffs, np.ones(dim, dtype=np.uint64),
                      allocation_bridge(level))


def _random_kl_vector(rng, m):
    coeffs = rng.standard_normal(m)
    return KLVector(m, coeffs, np.ones(m, dtype=np.uint64), allocation_kl(m, KL_SPEC))


def test_builtin_functionals_lipschitz_spot_check():
    rng = np.random.default_rng(6)
    catalog = M.builtin_functionals()
    # trivial values
    zero = KLVector(4, np.zeros(4), np.ones(4, dtype=np.uint64), allocation_kl(4, KL_SPEC))
    assert catalog["norm"].evaluate(zero) == 0.0
    v = _random_kl_vector(rng, 8)
    assert catalog["coord1"].evaluate(v) == v.coeffs[0]
    for _ in range(1000):
        x = _random_kl_vector(rng, 8)
        y = _random_kl_vector(rng, 8)
        dist = float(np.linalg.norm(x.coeffs - y.coeffs))
        for f in catalog.values():
            assert abs(f.evaluate(x) - f.evaluate(y)) <= dist + 1e-9
    from rbitmc.bridge import nodes_from_coeffs
    for _ in range(200):
        x = _random_bridge_path(rng, 4)
        y = _random_bridge_path(rng, 4)
        diff = nodes_from_coeffs((x.coeffs - y.coeffs)[np.newaxis, :], 4)
        dist = math.sqrt(float(pl_l2_norm_sq(diff)[0]))
        for f in catalog.values():
            assert abs(f.evaluate(x) - f.evaluate(y)) <= dist + 1e-9


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
    for k, state in enumerate((fine, model.coarsen_rows(fine))):
        whole = f.rows(model.functional_rows(state)).tobytes()
        assert M._evaluate(f, model, fine, True)[k].tobytes() == whole  # one block
        for budget in (8 * 34 * 7, 8 * 34 * 5, 1):  # blocks of 5-14 rows, and of 2-3 rows
            monkeypatch.setattr(M, "_EVAL_BYTES", budget)
            assert M._evaluate(f, model, fine, True)[k].tobytes() == whole, budget
        monkeypatch.undo()


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_estimators_do_not_depend_on_the_block_size(model_name, monkeypatch):
    model = MODELS[model_name]
    params = M.mlmc_params(2.0 ** -3, model.beta, model.alpha)
    f = M.lookup_functional("norm")

    def run():
        mean, stderr, ledger = M.plain_mc(f, model, 8, 301, BitSource(5), batch=128)
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
        state = sample(self, *args, **kwargs)
        seen.append(("idx" in state, "coeffs" in state, state["drawn"].n))
        return state

    decode = G.decode_rows

    def blocks(drawn, a, b, *args, **kwargs):
        coeffs, idx = decode(drawn, a, b, *args, **kwargs)
        decoded.append((b - a, idx))
        return coeffs, idx

    monkeypatch.setattr(M.ExpansionModel, "sample_rows", spy)
    monkeypatch.setattr(G, "decode_rows", blocks)
    monkeypatch.setattr(M, "_EVAL_BYTES", 8 * 65 * 4)  # level 6: blocks of 4 rows
    M.plain_mc(M.lookup_functional("norm"), BRIDGE, 6, 50, BitSource(3), batch=20)
    assert seen == [(False, False, 20), (False, False, 20), (False, False, 10)]
    assert sum(rows for rows, _ in decoded) == 50 and max(rows for rows, _ in decoded) == 4
    assert all(idx is None for _, idx in decoded)


@pytest.mark.parametrize("kwargs", [{"n": 0}, {"n": -3}, {"n": 10, "batch": 0}, {"n": 10, "batch": -1}])
def test_plain_mc_rejects_empty_runs_and_batches(kwargs):
    src = BitSource(3)
    with pytest.raises(ValueError, match="positive integer"):
        M.plain_mc(M.lookup_functional("norm"), BRIDGE, 4, src=src, **kwargs)
    assert src.bits_drawn == 0


@pytest.mark.parametrize("name, target", [("coord2", 2), ("soft_linear", 3)])
@pytest.mark.parametrize("level", [1, 2])
def test_bridge_functionals_refine_coarse_meshes(name, target, level):
    # the rows give the same bits as the same coefficients zero-padded to the
    # level of the functional's finest hat and put through nodes_from_coeffs
    from rbitmc.bridge import nodes_from_coeffs
    f = M.lookup_functional(name)
    state = BRIDGE.sample_rows(BitSource(40 + level), level, 9)
    coeffs = state["coeffs"]
    padded = np.zeros((coeffs.shape[0], (1 << max(level, target)) - 1))
    padded[:, :coeffs.shape[1]] = coeffs
    fine = {"kind": "bridge", "nodes": nodes_from_coeffs(padded, max(level, target)), "coeffs": padded}
    got = f.rows(BRIDGE.functional_rows(state))
    assert got.tobytes() == f.rows(fine).tobytes()
    assert np.all(np.isfinite(got)) and np.any(got != 0.0)


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_evaluate_equals_batch_rows(model_name):
    # a single vector gets the value its row gets inside the batch, also for
    # the KL soft_linear, whose one-row matmul rounds differently
    model, level, n = MODELS[model_name], 5, 205
    state = model.sample_rows(BitSource(7), level, n)
    coeffs, idx, alloc = state["coeffs"], state["idx"], state["alloc"]
    for name, f in M.builtin_functionals().items():
        batch = f.rows(model.functional_rows(state))
        for i in range(n):
            if model_name == "kl":
                x = KLVector(1 << level, coeffs[i], idx[i], alloc)
            else:
                x = BridgePath(level, coeffs[i], idx[i], alloc)
            assert f.evaluate(x) == batch[i], (name, i)


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


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_allocations_and_scales_are_computed_once(model_name):
    model = MODELS[model_name]
    for level in (1, 6):
        for min_bits in (0, 4):
            alloc = model.allocation(level, min_bits)
            assert model.allocation(level, min_bits) is alloc
            assert not alloc.counts.flags.writeable
        scale = model.scale(level)
        assert model.scale(level) is scale
        assert scale is None or not scale.flags.writeable
