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
    byte_fields,
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
@given(p=st.integers(1, 63), n=st.one_of(st.integers(0, 300), st.integers(301, 4000)),
       head=st.integers(0, 63), after=st.integers(1, 63), seed=st.integers(0, 2**32 - 1))
@example(p=2, n=3001, head=3, after=7, seed=1)   # byte path, stream 3 bits off a byte
@example(p=1, n=4099, head=0, after=9, seed=2)   # byte path, aligned, tail inside a word
@example(p=4, n=2001, head=4, after=5, seed=3)   # byte path, half-byte offset
@example(p=8, n=1000, head=63, after=63, seed=4)  # byte path from the last leftover bit
@example(p=8, n=7, head=8, after=1, seed=5)      # byte draw of exactly the leftover bits
@example(p=2, n=3, head=61, after=2, seed=6)     # byte draw across a word boundary
@example(p=6, n=6000, head=5, after=3, seed=7)   # gather at p <= 8 (36000 bits)
@example(p=5, n=6554, head=1, after=3, seed=8)   # first gathered length at p = 5
@example(p=9, n=3640, head=9, after=3, seed=9)   # last unpacked length at p = 9
@example(p=9, n=3641, head=9, after=3, seed=9)   # first gathered length at p = 9
@example(p=3, n=4000, head=2, after=3, seed=10)  # p = 3 always unpacks
@example(p=52, n=631, head=12, after=52, seed=11)  # gather below p = 53
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


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_byte_fields_split_every_byte(p):
    table = byte_fields(p)
    assert table.shape == (256, 8 // p) and table.dtype == np.uint64
    for b in range(256):
        bits = format(b, "08b")
        assert [int(v) for v in table[b]] == [int(bits[j:j + p], 2) for j in range(0, 8, p)]
    assert np.array_equal(byte_fields(p, 1), table + np.uint64(1))


@pytest.mark.parametrize("head", [0, 3, 8, 61])
@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_draw_bytes_hold_the_scalar_draws(p, head):
    a, b = BitSource(31), BitSource(31)
    if head:
        a.draw_bits(head)
        b.draw_bits(head)
    n = 1001
    codes = a.draw_bytes(p, n)
    assert codes.dtype == np.uint8 and codes.shape == (-(-p * n // 8),)
    values = byte_fields(p)[codes].reshape(-1)[:n]
    assert [int(v) for v in values] == [b.draw_bits(p) for _ in range(n)]
    assert a.bits_drawn == b.bits_drawn == head + p * n
    assert a.draw_bits(13) == b.draw_bits(13)
    with pytest.raises(ValueError):
        a.draw_bytes(3, 4)


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


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_truncate_indices_matches_truncate_to(data):
    p_from = data.draw(st.integers(1, 63), label="p_from")
    p_to = data.draw(st.integers(1, p_from), label="p_to")
    # the end cells 1 and 2**p_from go in every batch
    idx = [1, 1 << p_from, *data.draw(st.lists(st.integers(1, 1 << p_from), max_size=30))]
    out = truncate_indices(np.array(idx, dtype=np.uint64), p_from, p_to)
    assert out.dtype == np.uint64
    assert [int(o) for o in out] == [DyadicValue(i, p_from).truncate_to(p_to).index for i in idx]


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
