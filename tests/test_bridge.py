import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbitmc import bridge as BR
from rbitmc import normal as N
from rbitmc import sde as S
from rbitmc.bitcore import BitAllocation, BitSource, dyadic_values
from rbitmc.errors import CapacityError
from rbitmc.gausskl import RunDecoder, coarsen_rows, draw_rows, read_runs, sample_rows

from oracles import decode_block, evaluate_coeffs


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
        coeffs, idx = sample_rows(src, BR.allocation_bridge(level), 1)
        assert coeffs.shape == idx.shape == (1, (1 << level) - 1)
        assert src.bits_drawn == BR.allocation_bridge_total(level)


def test_bridge_path_endpoints_vanish():
    src = BitSource(4)
    coeffs, _ = sample_rows(src, BR.allocation_bridge(5), 1)
    assert evaluate_coeffs(coeffs[0], 5, 0.0) == 0.0 and evaluate_coeffs(coeffs[0], 5, 1.0) == 0.0
    nodes = BR.nodes_from_coeffs(coeffs, 5)[0]
    assert nodes[0] == 0.0 and nodes[-1] == 0.0


def test_node_values_match_direct_sum():
    src = BitSource(42)
    coeffs, _ = sample_rows(src, BR.allocation_bridge(8), 1)
    grid = np.arange(0, (1 << 8) + 1, dtype=np.float64) / (1 << 8)
    direct = evaluate_coeffs(coeffs[0], 8, grid)
    assert np.max(np.abs(direct - BR.nodes_from_coeffs(coeffs, 8)[0])) < 1e-12


@pytest.mark.parametrize("shape", [(2, 7), (1, 7), (6,), (8,), (9,), ()])
def test_evaluate_coeffs_takes_one_row_of_the_level(shape):
    """A 2-d batch hit a numpy broadcast error, a short row a bare
    IndexError, and a long row was evaluated from its first 2**level - 1
    coefficients."""
    with pytest.raises(ValueError, match="expected one row of 7 coefficients at level 3"):
        evaluate_coeffs(np.ones(shape), 3, 0.3)


def test_evaluate_coeffs_refuses_a_level_outside_the_bridge_levels():
    """The oracle takes the domain 1..MAX_LEVEL of the bridge level
    functions: a level that is not an integer is refused by name, and a
    level above the cap as a capacity error."""
    with pytest.raises(ValueError, match=r"^level must be a positive integer, got 2\.0$"):
        evaluate_coeffs(np.zeros(3), 2.0, 0.5)
    with pytest.raises(CapacityError, match="capped"):
        evaluate_coeffs(np.zeros(7), BR.MAX_LEVEL + 1, 0.5)


@settings(max_examples=100, deadline=None)
@given(level=st.integers(1, 10), rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_nodes_from_coeffs_matches_evaluate_coeffs(level, rows, seed):
    coeffs = np.random.default_rng(seed).standard_normal((rows, (1 << level) - 1))
    grid = np.arange((1 << level) + 1, dtype=np.float64) / (1 << level)
    nodes = BR.nodes_from_coeffs(coeffs, level)
    assert nodes.shape == (rows, len(grid))
    for row, got in zip(coeffs, nodes):
        assert np.max(np.abs(got - evaluate_coeffs(row, level, grid))) < 1e-12


def _nodes_oracle(rows, level):
    """nodes_from_coeffs as one expression per refinement step."""
    vals = np.zeros((rows.shape[0], 2))
    for m in range(level):
        mids = 0.5 * (vals[:, :-1] + vals[:, 1:]) + rows[:, (1 << m) - 1:(1 << (m + 1)) - 1] * 2.0 ** (-m / 2.0 - 1.0)
        refined = np.empty((rows.shape[0], 2 * vals.shape[1] - 1))
        refined[:, 0::2], refined[:, 1::2] = vals, mids
        vals = refined
    return vals


def _norm_sq_oracle(nodes):
    """pl_l2_norm_sq as one expression."""
    a, b = nodes[:, :-1], nodes[:, 1:]
    return (1.0 / (nodes.shape[1] - 1) / 3.0) * np.sum(a * a + a * b + b * b, axis=1)


@settings(max_examples=100, deadline=None)
@given(level=st.integers(1, 11), rows=st.integers(1, 6), spread=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
def test_in_place_refinement_and_norm_give_the_bytes_of_the_expressions(level, rows, spread, seed):
    """nodes_from_coeffs builds each step's midpoints in place and
    pl_l2_norm_sq squares each node once; both keep the elementwise
    operations and the summed array of the one-expression forms, so their
    bytes (coefficients over 2**±spread in magnitude, and a view of a
    wider buffer as the decode hands over)."""
    rng = np.random.default_rng(seed)
    dim = (1 << level) - 1
    buf = rng.standard_normal((rows, dim + 3)) * 2.0 ** rng.uniform(-spread, spread, (rows, dim + 3))
    coeffs = buf[:, 1:dim + 1]
    nodes = BR.nodes_from_coeffs(coeffs, level)
    assert nodes.tobytes() == _nodes_oracle(coeffs, level).tobytes()
    assert BR.pl_l2_norm_sq(nodes).tobytes() == _norm_sq_oracle(nodes).tobytes()
    view = buf[:, 1:]  # rows that are not contiguous
    assert BR.pl_l2_norm_sq(view).tobytes() == _norm_sq_oracle(view).tobytes()


@settings(max_examples=60, deadline=None)
@given(level=st.integers(1, 13), min_bits=st.sampled_from([0, 3, 4, 20]), n=st.integers(1, 9),
       head=st.integers(0, 63), coarse=st.booleans(), step=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
@example(level=13, min_bits=0, n=5, head=3, coarse=True, step=2, seed=1)  # one run per hat level
@example(level=13, min_bits=4, n=4, head=5, coarse=True, step=3, seed=2)  # a p = 4 byte run over levels 11, 12
@example(level=13, min_bits=20, n=3, head=1, coarse=False, step=2, seed=3)  # a p = 20 run over levels 3..12
@example(level=2, min_bits=4, n=5, head=7, coarse=True, step=2, seed=4)  # rows of 12 bits in one p = 4 byte run
def test_nodes_from_drawn_are_the_nodes_of_the_decoded_rows(level, min_bits, n, head, coarse, step, seed):
    """nodes_from_drawn builds no coefficient rows, and gives the bytes of
    nodes_from_coeffs over the block's coefficient rows (decode_block, the
    decode of sample_rows) for every block of a batch: the blocks of a step
    (the last one partial), one-row blocks and empty ones, drawn after
    ``head`` bits so the runs start off byte boundaries, under counts raised
    to ``min_bits`` (runs over several hat levels).  The same runs, read
    once, decode to those rows and, one level down, to coarsen_rows' rows of
    the block's index rows; nodes_from_drawn then drops their fields,
    keeping only the stream bytes of the byte runs."""
    alloc = BitAllocation(np.maximum(BR.allocation_bridge(level).counts, min_bits))
    src = BitSource(seed)
    if head:
        src.draw_bits(head)
    drawn = draw_rows(src, alloc, n)
    step = min(step, n)
    for a, b in [*((a, min(a + step, n)) for a in range(0, n, step)), (n - 1, n), (0, 0), (n, n)]:
        coeffs, idx = decode_block(drawn, a, b)
        runs = read_runs(drawn, a, b)
        assert RunDecoder(alloc, alloc)(runs, b - a).tobytes() == coeffs.tobytes()
        if coarse and level > 1:  # level 1 has no level below
            below = BitAllocation(np.maximum(BR.allocation_bridge(level - 1).counts, min_bits))
            assert RunDecoder(alloc, below)(runs, b - a).tobytes() == coarsen_rows(idx, alloc, below)[0].tobytes()
        nodes = BR.nodes_from_drawn(runs, b - a)
        assert nodes.shape == (b - a, (1 << level) + 1)
        assert nodes.tobytes() == BR.nodes_from_coeffs(coeffs, level).tobytes(), (a, b)
        assert [data is None for *_, data in runs] == [p not in (1, 2, 4, 8) for *_, p, _ in runs]  # fields dropped
    with pytest.raises(ValueError, match="row stop b"):
        BR.nodes_from_drawn(read_runs(drawn, 0, n + 1), n + 1)


def test_linear_builds_its_weights_once_per_weights_and_mesh():
    # g of BridgeRows.linear is cached read-only per (weights, node count):
    # the same weights as a tuple or an array reuse it, and the values are
    # those of a fresh build
    rows = BR.BridgeRows(BR.nodes_from_coeffs(np.random.default_rng(5).standard_normal((3, 15)), 4))
    BR._hat_weights.cache_clear()
    first = rows.linear((0.6, 0.48, 0.384))
    assert rows.linear(np.array([0.6, 0.48, 0.384])).tobytes() == first.tobytes()
    info = BR._hat_weights.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    g = BR._hat_weights((0.6, 0.48, 0.384), 17)
    assert not g.flags.writeable
    BR._hat_weights.cache_clear()
    assert rows.linear((0.6, 0.48, 0.384)).tobytes() == first.tobytes()


def test_coarsen_chain_and_coefficients():
    src = BitSource(42)
    a6, a5, a4, a2 = (BR.allocation_bridge(level) for level in (6, 5, 4, 2))
    coeffs, idx = sample_rows(src, a6, 1)
    bits_after = src.bits_drawn
    c4 = coarsen_rows(idx, a6, a4)
    c2a = coarsen_rows(c4[1], a4, a2)
    c2b = coarsen_rows(idx, a6, a2)
    assert np.array_equal(c2a[1], c2b[1])
    assert np.array_equal(c2a[0], c2b[0])
    assert src.bits_drawn == bits_after  # coarsening draws nothing
    # first coefficient identity under one-level coarsening: 12 -> 10 bits
    c5, _ = coarsen_rows(idx, a6, a5)
    assert c5[0, 0] == N.phi_inv(dyadic_values([int(idx[0, 0]) >> 2], 2 * 5))[0]
    with pytest.raises(ValueError, match="coarse dimension exceeds fine dimension"):
        coarsen_rows(idx, a6, BR.allocation_bridge(7))


def test_level_cap_applies_to_every_sampler():
    level = BR.MAX_LEVEL + 1
    for call in (lambda: BR.allocation_bridge(level),
                 lambda: BR.allocation_bridge_total(level),
                 lambda: S.refined_rows(BitSource(1), S.geometric_model(0.05, 0.2), 1, 4, level, 1),
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
    idx = src.draw_bits_array(parent_p, n * dim).reshape(n, dim)
    fine = N.phi_inv((2.0 * idx.astype(np.float64) + 1.0) * 2.0 ** -(parent_p + 1))
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
