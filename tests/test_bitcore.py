import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from rbitmc.bitcore import (
    BitAllocation,
    BitSource,
    DyadicValue,
    child_source,
    dyadic_values,
    sample_dyadic_uniform,
    sample_dyadic_uniform_array,
    truncate,
    truncate_indices,
)


def test_draw_bits_range_and_counter():
    src = BitSource(1)
    for _ in range(200):
        assert src.draw_bits(1) in (0, 1)
    assert src.bits_drawn == 200
    before = src.bits_drawn
    src.draw_bits(5)
    assert src.bits_drawn == before + 5


def test_equal_seeds_equal_streams():
    a, b = BitSource(12345), BitSource(12345)
    assert [a.draw_bits(3) for _ in range(50)] == [b.draw_bits(3) for _ in range(50)]


def test_scalar_and_array_draws_share_the_stream():
    a, b = BitSource(77), BitSource(77)
    scalars = [a.draw_bits(13) for _ in range(257)]
    array = b.draw_bits_array(13, 257)
    assert scalars == [int(v) for v in array]
    assert a.bits_drawn == b.bits_drawn == 13 * 257
    # continue scalar after an array draw: stream position must agree
    assert a.draw_bits(7) == b.draw_bits(7)


def test_array_draw_wide_words():
    a, b = BitSource(5), BitSource(5)
    wide = [a.draw_bits(63) for _ in range(65)]
    assert wide == [int(v) for v in b.draw_bits_array(63, 65)]


@settings(max_examples=400, deadline=None)
@given(p=st.integers(1, 63), n=st.integers(0, 300), head=st.integers(0, 63),
       after=st.integers(1, 63), seed=st.integers(0, 2**32 - 1))
@example(p=54, n=1, head=10, after=5, seed=3)    # fills the leftover bits exactly
@example(p=27, n=1, head=10, after=5, seed=3)    # fits inside the leftover bits
@example(p=53, n=1, head=10, after=63, seed=3)   # 53 of 54 leftover bits
@example(p=63, n=65, head=1, after=63, seed=4)   # 63 + 63*64 bits: ends on a word
@example(p=32, n=6, head=0, after=1, seed=4)     # aligned head, ends on a word
@example(p=63, n=300, head=17, after=63, seed=5)
def test_draw_bits_array_matches_scalar_draws(p, n, head, after, seed):
    a, b = BitSource(seed), BitSource(seed)
    if head:
        a.draw_bits(head)
        b.draw_bits(head)
    array = a.draw_bits_array(p, n)
    assert array.dtype == np.uint64 and array.shape == (n,)
    assert [int(v) for v in array] == [b.draw_bits(p) for _ in range(n)]
    assert a.bits_drawn == b.bits_drawn == head + p * n
    assert a.draw_bits(after) == b.draw_bits(after)


def test_invalid_bit_counts():
    src = BitSource(0)
    for p in (0, -1, 64, 100):
        with pytest.raises(ValueError):
            src.draw_bits(p)


def test_dyadic_grid_small_p():
    src = BitSource(3)
    vals1 = {sample_dyadic_uniform(src, 1).value for _ in range(64)}
    assert vals1 <= {0.25, 0.75}
    vals2 = {sample_dyadic_uniform(src, 2).value for _ in range(256)}
    assert vals2 <= {0.125, 0.375, 0.625, 0.875}
    assert vals2 == {0.125, 0.375, 0.625, 0.875}


def test_dyadic_value_invariants():
    v = DyadicValue(3, 2)
    assert v.value == 0.625
    # grid is symmetric about 1/2: the mirror index gives 1 - value
    mirror = DyadicValue((1 << 2) + 1 - 3, 2)
    assert mirror.value == 1.0 - v.value
    with pytest.raises(ValueError):
        DyadicValue(0, 2)
    with pytest.raises(ValueError):
        DyadicValue(5, 2)


def test_truncate_examples():
    assert truncate(0.3, 2).value == 0.375
    for p in (1, 3, 10):
        assert truncate(0.0, p).value == 2.0 ** -(p + 1)
    assert truncate(0.75, 1).value == 0.75
    with pytest.raises(ValueError):
        truncate(1.0, 3)
    with pytest.raises(ValueError):
        truncate(-0.1, 3)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20))
def test_truncation_nesting(u, p_a, p_b):
    p_small, p_big = sorted((p_a, p_b))
    direct = truncate(u, p_small)
    nested = truncate(truncate(u, p_big).value, p_small)
    assert nested == direct
    assert truncate(u, p_big).truncate_to(p_small) == direct


def test_truncate_indices_matches_scalar():
    rng = np.random.default_rng(0)
    idx = rng.integers(1, 1 << 16, size=1000).astype(np.uint64)
    out = truncate_indices(idx, 16, 9)
    for i, o in zip(idx[:50], out[:50]):
        assert DyadicValue(int(i), 16).truncate_to(9).index == int(o)


@pytest.mark.parametrize("p", [1, 4, 8])
def test_chi_square_uniformity(p):
    n = 100_000
    src = BitSource(1000 + p)
    idx = sample_dyadic_uniform_array(src, p, n)
    counts = np.bincount(idx.astype(np.int64) - 1, minlength=1 << p)
    expected = n / (1 << p)
    stat = float(np.sum((counts - expected) ** 2) / expected)
    threshold = chi2.ppf(1.0 - 1e-6, df=(1 << p) - 1)
    assert stat < threshold


def test_dyadic_mean_clt():
    n = 1_000_000
    src = BitSource(42)
    vals = dyadic_values(sample_dyadic_uniform_array(src, 4, n), 4)
    sd = math.sqrt((1.0 - 2.0 ** -8) / 12.0)  # closed-form sd of uniform on D(4)
    assert abs(vals.mean() - 0.5) < 3.0 * sd / 1000.0


def test_composite_bit_accounting():
    src = BitSource(9)
    src.draw_bits(5)
    src.draw_bits_array(7, 11)
    sample_dyadic_uniform(src, 3)
    assert src.bits_drawn == 5 + 7 * 11 + 3


def test_child_sources_are_deterministic_and_distinct():
    a = child_source(123, 4, 5)
    b = child_source(123, 4, 5)
    c = child_source(123, 4, 6)
    sa = [a.draw_bits(8) for _ in range(16)]
    assert sa == [b.draw_bits(8) for _ in range(16)]
    assert sa != [c.draw_bits(8) for _ in range(16)]


def test_allocation_validation():
    alloc = BitAllocation(np.array([3, 2, 1]))
    assert alloc.total == 6 and len(alloc) == 3
    with pytest.raises(ValueError):
        BitAllocation(np.array([0, 1]))
    with pytest.raises(ValueError):
        BitAllocation(np.array([], dtype=np.int64))
