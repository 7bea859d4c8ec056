import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbitmc import bridge as BR
from rbitmc import normal as N
from rbitmc import sde as S
from rbitmc.bitcore import BitSource, truncate
from rbitmc.errors import CapacityError
from rbitmc.gausskl import sample_rows


def test_schauder_index_decomposition():
    assert BR.schauder_level(1) == (0, 1)
    assert BR.schauder_level(2) == (1, 1)
    assert BR.schauder_level(3) == (1, 2)
    assert BR.schauder_level(12) == (3, 5)
    with pytest.raises(ValueError):
        BR.schauder_level(0)


def test_schauder_values():
    assert BR.schauder(1, 0.5) == 0.5
    assert abs(BR.schauder(2, 0.25) - 2.0 ** -1.5) < 1e-16
    # zero outside the support
    assert BR.schauder(2, 0.75) == 0.0
    assert BR.schauder(5, 0.9) == 0.0
    m, k = BR.schauder_level(5)
    lo, hi = (k - 1) / 2.0**m, k / 2.0**m
    assert BR.schauder(5, lo) == 0.0 and BR.schauder(5, hi) == 0.0


def test_schauder_norms():
    assert BR.schauder_norm_sq(1) == 1.0 / 12.0
    assert BR.schauder_norm_sq(2) == 1.0 / 48.0
    assert BR.schauder_norm_sq(3) == 1.0 / 48.0
    total = math.fsum(BR.schauder_norm_sq(np.arange(1, 1 << 22)))
    assert abs(total - (1.0 / 6.0 - BR.bridge_truncation_error_sq(22))) < 1e-15
    # the level m = floor(log2 i) is exact on both sides of every power of two
    for k in range(1, 53):
        i = np.array([(1 << k) - 1, 1 << k, (1 << k) + 1], dtype=np.int64)
        m = np.array([k - 1, k, k])
        assert BR.schauder_norm_sq(i).tobytes() == (2.0 ** (-2.0 * m - 2.0) / 3.0).tobytes(), k


def test_allocation_examples_and_identity():
    assert list(BR.allocation_bridge(1).counts) == [2]
    assert list(BR.allocation_bridge(2).counts) == [4, 2, 2]
    assert list(BR.allocation_bridge(3).counts) == [6, 4, 4, 2, 2, 2, 2]
    for level in range(1, 21):
        total = BR.allocation_bridge(level).total
        assert total == BR.allocation_bridge_total(level) == (1 << (level + 2)) - 2 * level - 4


def test_sample_bridge_bit_accounting():
    for level in range(1, 21):
        src = BitSource(100 + level)
        BR.sample_bridge(src, level)
        assert src.bits_drawn == BR.allocation_bridge_total(level)


def test_bridge_path_endpoints_vanish():
    src = BitSource(4)
    path = BR.sample_bridge(src, 5)
    assert path.value(0.0) == 0.0 and path.value(1.0) == 0.0
    nodes = path.node_values()
    assert nodes[0] == 0.0 and nodes[-1] == 0.0


def test_node_values_match_direct_sum():
    src = BitSource(42)
    path = BR.sample_bridge(src, 8)
    grid = np.arange(0, (1 << 8) + 1, dtype=np.float64) / (1 << 8)
    direct = path.value(grid)
    assert np.max(np.abs(direct - path.node_values())) < 1e-12


@settings(max_examples=100, deadline=None)
@given(level=st.integers(1, 10), rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_nodes_from_coeffs_matches_evaluate_coeffs(level, rows, seed):
    coeffs = np.random.default_rng(seed).standard_normal((rows, (1 << level) - 1))
    grid = np.arange((1 << level) + 1, dtype=np.float64) / (1 << level)
    nodes = BR.nodes_from_coeffs(coeffs, level)
    assert nodes.shape == (rows, len(grid))
    for row, got in zip(coeffs, nodes):
        assert np.max(np.abs(got - BR.evaluate_coeffs(row, level, grid))) < 1e-12


def test_coarsen_chain_and_coefficients():
    src = BitSource(42)
    path = BR.sample_bridge(src, 6)
    bits_after = src.bits_drawn
    c4 = BR.coarsen(path, 4)
    c2a = BR.coarsen(c4, 2)
    c2b = BR.coarsen(path, 2)
    assert np.array_equal(c2a.retained_indices, c2b.retained_indices)
    assert np.array_equal(c2a.coeffs, c2b.coeffs)
    assert src.bits_drawn == bits_after  # coarsening draws nothing
    # first coefficient identity under one-level coarsening
    c5 = BR.coarsen(path, 5)
    u1 = (2.0 * float(path.retained_indices[0]) - 1.0) * 2.0 ** -(2 * 6 + 1)
    assert c5.coeffs[0] == N.phi_inv(truncate(u1, 2 * 5).value)
    with pytest.raises(ValueError):
        BR.coarsen(path, 6)


def test_level_cap_applies_to_every_sampler():
    level = BR.MAX_LEVEL + 1
    for call in (lambda: BR.allocation_bridge(level),
                 lambda: BR.sample_bridge(BitSource(1), level),
                 lambda: S.refined_path_sample(BitSource(1), S.geometric_model(0.05, 0.2), 1, 4, level),
                 lambda: BR.bridge_truncation_error_sq(level),
                 lambda: BR.bridge_bit_error_sq(level),
                 lambda: BR.precision_sum(level)):
        with pytest.raises(CapacityError, match="capped"):
            call()


def test_truncation_error_closed_form():
    assert BR.bridge_truncation_error_sq(1) == 1.0 / 12.0
    assert BR.bridge_truncation_error_sq(10) == 2.0 ** -10 / 6.0
    for level in range(1, 20):
        ratio = BR.bridge_truncation_error_sq(level) / BR.bridge_truncation_error_sq(level + 1)
        assert ratio == 2.0


def test_bit_error_level_one():
    expected = N.bit_normal_mse(2) / 12.0 + 1.0 / 12.0
    assert abs(BR.bridge_bit_error_sq(1) - expected) < 1e-16


# level -> float.hex of bridge_bit_error_sq(level); levels above 13 use the
# mse surrogate for their p > 26 counts
BIT_ERROR_SQ = {
    1: '0x1.876c9a7266f3bp-4', 2: '0x1.978b3268ec2a0p-5', 3: '0x1.9d3ea97eccf4ep-6',
    4: '0x1.9f6c7d42b889cp-7', 5: '0x1.a04dd2091e262p-8', 6: '0x1.a0ac5e68a9d65p-9',
    7: '0x1.a0d51d122429bp-10', 8: '0x1.a0e70491b3722p-11', 9: '0x1.a0ef00cf58bacp-12',
    10: '0x1.a0f29b48be6ddp-13', 11: '0x1.a0f43f870b943p-14', 12: '0x1.a0f5007c7b806p-15',
    13: '0x1.a0f559acb3b42p-16', 14: '0x1.a0f5831560154p-17', 15: '0x1.a0f596685b318p-18',
    16: '0x1.a0f59f7740e6cp-19', 17: '0x1.a0f5a3ba7fd2ap-20', 18: '0x1.a0f5a5bdcf504p-21',
    19: '0x1.a0f5a6b1e77e4p-22', 20: '0x1.a0f5a725d960fp-23', 21: '0x1.a0f5a75d0f9c2p-24',
    22: '0x1.a0f5a777697e3p-25', 23: '0x1.a0f5a78403c8ep-26', 24: '0x1.a0f5a78a0db76p-27',
    25: '0x1.a0f5a78cf3c37p-28',
}


def test_bit_error_matches_golden_at_every_level():
    assert sorted(BIT_ERROR_SQ) == list(range(1, BR.MAX_LEVEL + 1))
    got = {level: BR.bridge_bit_error_sq(level).hex() for level in BIT_ERROR_SQ}
    assert got == BIT_ERROR_SQ


def test_precision_inequality():
    for level in range(1, 21):
        assert BR.precision_sum(level) <= 2.0 ** -level


def test_empirical_second_moment_level4():
    level, n = 4, 100_000
    src = BitSource(77)
    coeffs, _ = sample_rows(src, BR.allocation_bridge(level), n)
    norm_sq = BR.pl_l2_norm_sq(BR.nodes_from_coeffs(coeffs, level))
    alloc = BR.allocation_bridge(level)
    i = np.arange(1, (1 << level), dtype=np.int64)
    expected = math.fsum(N.bit_normal_mse_moments(int(p))[1] * BR.schauder_norm_sq(int(j))
                         for j, p in zip(i, alloc.counts))
    se = norm_sq.std(ddof=1) / math.sqrt(n)
    assert abs(norm_sq.mean() - expected) < 4.0 * se


def test_coupled_difference_matches_exact_formula():
    # || B^(l) - B^(l,p) ||^2 over coupled draws vs the pointwise-variance sum
    level, n = 6, 100_000
    src = BitSource(123)
    parent_p = 40
    dim = (1 << level) - 1
    alloc = BR.allocation_bridge(level)
    idx = src.draw_bits_array(parent_p, n * dim).reshape(n, dim) + np.uint64(1)
    fine = N.phi_inv((2.0 * idx.astype(np.float64) - 1.0) * 2.0 ** -(parent_p + 1))
    coarse = np.empty_like(fine)
    from rbitmc.bitcore import truncate_indices
    for j in range(dim):
        p = int(alloc.counts[j])
        coarse[:, j] = N.grid_normal_values(truncate_indices(idx[:, j], parent_p, p), p)
    diff_sq = BR.pl_l2_norm_sq(BR.nodes_from_coeffs(fine - coarse, level))
    # expectation: sum_i E(Y^(40) - Y^(p_i))^2 ||s_i||^2; p=40 side adds ~2^-40
    expected = BR.bridge_bit_error_sq(level) - BR.bridge_truncation_error_sq(level)
    se = diff_sq.std(ddof=1) / math.sqrt(n)
    assert abs(diff_sq.mean() - expected) < 4.0 * se


def test_scaled_bit_error_stabilizes():
    vals = [2.0 ** level * BR.bridge_bit_error_sq(level) for level in range(6, 14)]
    assert max(vals) / min(vals) < 1.01
    assert all(v >= 1.0 / 6.0 for v in vals)


def test_pl_integrals():
    # exact piecewise-linear integrals on a known function: f(t) = t on [0,1]
    nodes = np.linspace(0.0, 1.0, 9)[np.newaxis, :]
    assert abs(BR.pl_l2_norm_sq(nodes)[0] - 1.0 / 3.0) < 1e-15
    g = np.ones((1, 9))
    assert abs(BR.pl_inner(nodes, g)[0] - 0.5) < 1e-15


@pytest.mark.parametrize("j", range(1, 9))
def test_normalized_hats_have_unit_norm_on_their_own_mesh(j):
    # BridgeRows.linear rescales g only when its computed norm is above 1, so
    # a unit weight on one hat (coord1, coord2) is the plain inner product
    hat = BR._hat_on_nodes(j, (1 << j.bit_length()) + 1)
    assert BR.pl_l2_norm_sq(hat[np.newaxis, :])[0] == 1.0
