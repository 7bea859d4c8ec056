import ast
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from rbitmc import bitcore
from rbitmc.bitcore import (
    MAX_BITS,
    BitAllocation,
    BitSource,
    byte_fields,
    child_source,
    dyadic_values,
    exact_sum,
    exact_sum_chunks,
    read_bytes,
    truncate_indices,
)
from rbitmc.bridge import allocation_bridge
from rbitmc.gausskl import sample_rows


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


def test_take_words_fill_the_stream_once():
    # a draw over several random_raw chunks holds the unchunked stream words,
    # leaves the stream where it was, and holds those words about once
    import tracemalloc

    nwords = 3 * 2 ** 16 + 5
    src = BitSource(9)
    head = src.draw_bits(3)
    w, start = src.take_words(61 + 64 * nwords - 7)  # the 61 leftover bits, then 7 unread
    raw = np.random.PCG64(9).random_raw(nwords + 2)
    assert head == int(raw[0]) >> 61 and start == 3
    assert np.array_equal(w[1:nwords + 1], raw[1:nwords + 1]) and w[-1] == 0
    assert src.draw_bits(10) == (int(raw[nwords]) & 0x7F) << 3 | int(raw[nwords + 1]) >> 61
    total = 64 << 21  # 16 MiB of words
    tracemalloc.start()
    try:
        BitSource(10).take_words(total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * total / 8


def test_array_draw_wide_words():
    a, b = BitSource(5), BitSource(5)
    wide = [a.draw_bits(63) for _ in range(65)]
    assert wide == [int(v) for v in b.draw_bits_array(63, 65)]


@settings(max_examples=400, deadline=None)
@given(p=st.integers(1, 63), n=st.one_of(st.integers(0, 300), st.integers(301, 4000)),
       head=st.integers(0, 63), after=st.integers(1, 63), seed=st.integers(0, 2**32 - 1))
@example(p=2, n=3001, head=3, after=7, seed=1)   # stream 3 bits off a byte
@example(p=1, n=4099, head=0, after=9, seed=2)   # aligned, tail inside a word
@example(p=4, n=2001, head=4, after=5, seed=3)   # half-byte offset
@example(p=8, n=1000, head=63, after=63, seed=4)  # from the last leftover bit
@example(p=8, n=7, head=8, after=1, seed=5)      # exactly the leftover bits
@example(p=2, n=3, head=61, after=2, seed=6)     # across a word boundary
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


@pytest.mark.parametrize("head", [0, 3, 8, 61])
@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_draw_bytes_hold_the_scalar_draws(p, head):
    a, b = BitSource(31), BitSource(31)
    if head:
        a.draw_bits(head)
        b.draw_bits(head)
    n = 1001
    codes = read_bytes(*a.take_words(p * n), p, n)
    assert codes.dtype == np.uint8 and codes.shape == (-(-p * n // 8),)
    values = byte_fields(p)[codes].reshape(-1)[:n]
    assert [int(v) for v in values] == [b.draw_bits(p) for _ in range(n)]
    assert a.bits_drawn == b.bits_drawn == head + p * n
    assert a.draw_bits(13) == b.draw_bits(13)


@pytest.mark.parametrize("make, message", [
    (lambda: BitSource(2.5), "seed must be a non-negative integer, got 2.5"),
    (lambda: BitSource(-1), "seed must be a non-negative integer, got -1"),
    (lambda: child_source(2.5), "base_seed must be a non-negative integer, got 2.5"),
    (lambda: child_source(-1, 0), "base_seed must be a non-negative integer, got -1"),
    (lambda: child_source(1, 0, 2.5), "key must be a non-negative integer, got 2.5"),
    (lambda: child_source(1, -1), "key must be a non-negative integer, got -1"),
], ids=["seed-2.5", "seed-minus-1", "base-2.5", "base-minus-1", "key-2.5", "key-minus-1"])
def test_seeds_and_keys_are_counts(make, message):
    """BitSource(2.5) drew the stream of seed 2 without a word, and
    BitSource(-1) failed with numpy's "expected non-negative integer", which
    does not name the seed."""
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_numpy_integer_seeds_draw_the_stream_of_the_int():
    assert BitSource(np.int64(5)).draw_bits(40) == BitSource(5).draw_bits(40)
    assert BitSource(np.uint64(2**64 - 1)).draw_bits(40) == BitSource(2**64 - 1).draw_bits(40)
    assert child_source(np.int64(3), np.int64(1), np.uint8(2)).seed == child_source(3, 1, 2).seed


def test_invalid_bit_counts():
    src = BitSource(0)
    for p in (0, -1, 64, 100):
        with pytest.raises(ValueError):
            src.draw_bits(p)


def test_dyadic_grid_small_p():
    src = BitSource(3)
    vals1 = set(dyadic_values(src.draw_bits_array(1, 64), 1))
    assert vals1 <= {0.25, 0.75}
    vals2 = set(dyadic_values(src.draw_bits_array(2, 256), 2))
    assert vals2 == {0.125, 0.375, 0.625, 0.875}


def test_dyadic_value_invariants():
    assert dyadic_values([2], 2)[0] == 0.625
    # grid is symmetric about 1/2: the mirror field gives 1 - value
    for p in (1, 2, 5, 20):
        f = np.arange(1 << p)
        assert np.array_equal(dyadic_values((1 << p) - 1 - f, p), 1.0 - dyadic_values(f, p))


def _truncate_to(i: int, p_from: int, p_to: int) -> int:
    """Exact scalar re-truncation of a grid index (p-bit field), in Python ints."""
    return i >> (p_from - p_to)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_truncation_nesting(data):
    p_small, p_mid, p_big = sorted(data.draw(st.lists(st.integers(1, 63), min_size=3, max_size=3), label="p"))
    idx = np.array(data.draw(st.lists(st.integers(0, (1 << p_big) - 1), min_size=1, max_size=30), label="idx"),
                   dtype=np.uint64)
    direct = truncate_indices(idx, p_big, p_small)
    assert np.array_equal(truncate_indices(truncate_indices(idx, p_big, p_mid), p_mid, p_small), direct)
    with pytest.raises(ValueError, match="cannot refine"):
        truncate_indices(idx, p_small, p_small + 1)


def test_truncate_indices_matches_scalar():
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 1 << 16, size=1000).astype(np.uint64)
    out = truncate_indices(idx, 16, 9)
    for i, o in zip(idx[:50], out[:50]):
        assert _truncate_to(int(i), 16, 9) == int(o)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_truncate_indices_matches_truncate_to(data):
    p_from = data.draw(st.integers(1, 63), label="p_from")
    p_to = data.draw(st.integers(1, p_from), label="p_to")
    # the end cells 0 and 2**p_from - 1 go in every batch
    idx = [0, (1 << p_from) - 1, *data.draw(st.lists(st.integers(0, (1 << p_from) - 1), max_size=30))]
    out = truncate_indices(np.array(idx, dtype=np.uint64), p_from, p_to)
    assert out.dtype == np.uint64
    assert [int(o) for o in out] == [_truncate_to(i, p_from, p_to) for i in idx]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_truncate_indices_with_a_count_per_column_is_one_call_per_column(data):
    """One call with a count per column of index rows gives the columns of
    one scalar-count call each, and refuses a column it would refine."""
    p_from = np.array(data.draw(st.lists(st.integers(1, 63), min_size=1, max_size=8), label="p_from"))
    p_to = np.array([data.draw(st.integers(1, int(p)), label="p_to") for p in p_from])
    rows = np.array([[data.draw(st.integers(0, (1 << int(p)) - 1)) for p in p_from] for _ in range(3)], dtype=np.uint64)
    out = truncate_indices(rows, p_from, p_to)
    assert out.dtype == np.uint64 and out.shape == rows.shape
    for j, (pf, pt) in enumerate(zip(p_from, p_to)):
        assert np.array_equal(out[:, j], truncate_indices(rows[:, j], int(pf), int(pt)))
    with pytest.raises(ValueError, match="cannot refine"):
        truncate_indices(rows, p_from, p_from + (np.arange(len(p_from)) == len(p_from) - 1))


@pytest.mark.parametrize("p", [1, 4, 8])
def test_chi_square_uniformity(p):
    n = 100_000
    src = BitSource(1000 + p)
    idx = src.draw_bits_array(p, n)
    counts = np.bincount(idx.astype(np.int64), minlength=1 << p)
    expected = n / (1 << p)
    stat = float(np.sum((counts - expected) ** 2) / expected)
    threshold = chi2.ppf(1.0 - 1e-6, df=(1 << p) - 1)
    assert stat < threshold


def test_dyadic_mean_clt():
    n = 1_000_000
    src = BitSource(42)
    vals = dyadic_values(src.draw_bits_array(4, n), 4)
    sd = math.sqrt((1.0 - 2.0 ** -8) / 12.0)  # closed-form sd of uniform on D(4)
    assert abs(vals.mean() - 0.5) < 3.0 * sd / 1000.0


def test_composite_bit_accounting():
    src = BitSource(9)
    src.draw_bits(5)
    src.draw_bits_array(7, 11)
    sample_rows(src, BitAllocation([3, 1]), 2)
    assert src.bits_drawn == 5 + 7 * 11 + 2 * 4


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
    # fractional and non-finite counts are refused, not truncated
    for counts in ([2.5, 3.9], [1.5, 1.5], [np.nan], [3.0, np.inf], [64.0]):
        with pytest.raises(ValueError):
            BitAllocation(counts)
    # integral floats, as np.ceil gives them, are counts
    assert BitAllocation(np.ceil([1.2, 3.0])).counts.tolist() == [2, 3]


@pytest.mark.parametrize("draw", [
    lambda src: sample_rows(src, allocation_bridge(3), -1),
    lambda src: sample_rows(src, allocation_bridge(3), 2.5),
    lambda src: src.take_words(-7),
    lambda src: src.take_words(22.0),
    lambda src: src.draw_bits_array(5, -1),
], ids=["rows_n=-1", "rows_n=2.5", "take_words=-7", "take_words=22.0", "draw_bits_array_n=-1"])
def test_a_bad_count_leaves_the_stream_untouched(draw):
    """A negative or non-integer count moved the stream before numpy refused
    it: bits_drawn read -22 and the next draw_bits(5) returned 0."""
    src = BitSource(1)
    with pytest.raises(ValueError, match="non-negative integer"):
        draw(src)
    assert src.bits_drawn == 0
    assert src.draw_bits(5) == BitSource(1).draw_bits(5)


def _sum_or_error(total, x):
    """``total(x)`` as float.hex, or the type of the exception it raised."""
    try:
        return total(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


# any finite float64, m 2**e over the whole exponent range, and the edge values
_SUMMANDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_SUMMANDS, max_size=40))
@example([])
@example([-0.0])
@example([-0.0, -0.0])
@example([1.0, -1.0, -0.0])
@example([5e-324])
@example([1e308, 1e308])                # the sum overflows
@example([1e308, 1e308, -1e308])        # fsum's intermediate overflow
@example([1.0, 2.0 ** -53, 2.0 ** -106])  # a tie broken by the last value
def test_exact_sum_is_fsum_bit_for_bit(values):
    x = np.array(values, dtype=np.float64)
    assert _sum_or_error(exact_sum, x) == _sum_or_error(math.fsum, x)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_SUMMANDS, min_size=1, max_size=8),
       special=st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1.5e308, 2.0 ** 984]),
       at=st.integers(0, 8))
@example(values=[-math.inf, 1.0], special=math.inf, at=0)  # fsum's ValueError for inf - inf
def test_exact_sum_keeps_fsums_nan_inf_and_overflow(values, special, at):
    """Non-finite values and exponents near overflow go to math.fsum whole:
    its NaN or inf, or its OverflowError or ValueError, is the result."""
    x = np.array(values[:at] + [special] + values[at:], dtype=np.float64)
    assert _sum_or_error(exact_sum, x) == _sum_or_error(math.fsum, x)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5]),
       seed=st.integers(0, 2**32 - 1), lo=st.integers(-1074, 963), width=st.integers(0, 60))
@example(n=(1 << 16) - 1, seed=1, lo=959, width=60)  # fsum's intermediate overflow
def test_exact_sum_of_long_arrays_is_fsum_bit_for_bit(n, seed, lo, width):
    """Arrays around the 2**16-value block, with exponents in a band of
    ``width`` from 2**lo on, so every bin is filled across several blocks."""
    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, lo + width + 1, n))
    assert _sum_or_error(exact_sum, x) == _sum_or_error(math.fsum, x)


def test_exact_sum_restarts_its_bins(monkeypatch):
    """The running bins start afresh every _SUM_BIN_VALUES values (2**26, more
    than a test can hold): with 2**17 the 5-block array takes three runs."""
    monkeypatch.setattr(bitcore, "_SUM_BIN_VALUES", 1 << 17)
    rng = np.random.default_rng(7)
    for x in (rng.standard_normal(5 << 16), np.ldexp(rng.uniform(-1.0, 1.0, 5 << 16), -1060),
              np.ldexp(rng.uniform(0.5, 1.0, 5 << 16), 900)):
        assert exact_sum(x).hex() == math.fsum(x).hex()


def test_exact_sum_takes_any_float_sequence():
    """A list, a strided view and a 2-d array are summed as their flat values."""
    x = np.random.default_rng(3).standard_normal((4, 5))
    assert exact_sum(x[:, ::2]).hex() == math.fsum(x[:, ::2].ravel()).hex()
    assert exact_sum(x.tolist()[0]).hex() == math.fsum(x[0]).hex()


def _concat(chunks):
    return np.concatenate([np.asarray(c, dtype=np.float64).reshape(-1) for c in chunks] or [np.empty(0)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_SUMMANDS, max_size=12), max_size=6))
@example([])              # an empty stream: fsum's 0.0
@example([[], []])        # empty chunks only
@example([[-0.0], [], [-0.0]])
@example([[1.0], [-1.0], [-0.0]])
@example([[1e308], [1e308, -1e308]])                 # fsum's intermediate overflow in a later chunk
@example([[2.0 ** 983], [2.0 ** 983] * 3, [1e308]])  # binned chunks, then one above the bins
@example([[1.0], [2.0 ** -53], [2.0 ** -106]])       # a tie broken by the last chunk
def test_exact_sum_chunks_is_fsum_of_the_concatenation(chunks):
    """The streaming sum is fsum of the chunks read as one sequence, bit for
    bit, with empty chunks anywhere and its sign of zero."""
    arrays = [np.array(c, dtype=np.float64) for c in chunks]
    assert _sum_or_error(exact_sum_chunks, iter(arrays)) == _sum_or_error(math.fsum, _concat(arrays))


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.sampled_from([0, 1, 5, (1 << 16) - 1, (1 << 16) + 1, 3 * (1 << 16) + 5]),
                      min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), lo=st.integers(-1074, 963), width=st.integers(0, 60))
def test_exact_sum_chunks_of_long_chunks_is_fsum(sizes, seed, lo, width):
    """Chunks whose lengths are not multiples of the 2**16-value block, so a
    chunk's last block is short, with exponents in a band as in
    test_exact_sum_of_long_arrays_is_fsum_bit_for_bit."""
    rng = np.random.default_rng(seed)
    chunks = [np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, lo + width + 1, n)) for n in sizes]
    assert _sum_or_error(exact_sum_chunks, chunks) == _sum_or_error(math.fsum, _concat(chunks))


def test_exact_sum_chunks_restarts_its_bins_across_chunks(monkeypatch):
    """With 2**17 values per run, a 3 * 2**16 + 5-value chunk restarts its bins
    within itself, away from any chunk boundary, and the next chunk starts
    afresh after a short last run."""
    monkeypatch.setattr(bitcore, "_SUM_BIN_VALUES", 1 << 17)
    rng = np.random.default_rng(8)
    n = 3 * (1 << 16) + 5
    for chunks in ([rng.standard_normal(n) for _ in range(3)],
                   [np.ldexp(rng.uniform(-1.0, 1.0, n), -1060), np.ldexp(rng.uniform(-1.0, 1.0, 7), -1074)],
                   [np.ldexp(rng.uniform(0.5, 1.0, n), 900), rng.standard_normal(1 << 16), np.ldexp(rng.uniform(0.5, 1.0, n), 900)]):
        assert exact_sum_chunks(chunks).hex() == math.fsum(_concat(chunks)).hex()


@settings(max_examples=80, deadline=None)
@given(first=st.lists(_SUMMANDS, max_size=8), values=st.lists(_SUMMANDS, max_size=8),
       special=st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1.5e308, 2.0 ** 984]),
       at=st.integers(0, 8), tail=st.lists(st.sampled_from([1.0, -math.inf, math.nan, 1e308]), max_size=3))
@example(first=[-math.inf], values=[1.0], special=math.inf, at=0, tail=[])  # fsum's ValueError for inf - inf
@example(first=[2.0 ** 983, 2.0 ** 983], values=[], special=1e308, at=0, tail=[1e308])
def test_exact_sum_chunks_keeps_fsums_nan_inf_and_overflow_in_a_later_chunk(first, values, special, at, tail):
    """A non-finite value or an exponent near overflow in a later chunk sends
    that chunk and the rest of the stream to math.fsum after the bins of
    the chunks before it: its NaN or inf, or its OverflowError or
    ValueError, is the result."""
    chunks = [np.array(first), np.array(values[:at] + [special] + values[at:]), np.array(tail)]
    assert _sum_or_error(exact_sum_chunks, chunks) == _sum_or_error(math.fsum, _concat(chunks))


_DRAW_METHODS = {"draw_bits", "draw_bits_array", "take_words"}


def test_only_bitcore_and_gausskl_draw_from_the_stream():
    """Every sampler draws through gausskl.draw_rows: no other module of
    the package calls a BitSource draw method itself."""
    callers = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DRAW_METHODS):
                callers.add(path.name)
    assert callers == {"bitcore.py", "gausskl.py"}


def test_only_bitcore_states_the_bit_limit():
    """The 63-bit limit is bitcore.MAX_BITS: no other module of the package
    binds a module-level name to it."""
    binders = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Constant)
                    and type(node.value.value) is int and node.value.value == MAX_BITS):
                binders.add(path.name)
    assert binders == {"bitcore.py"}


def test_only_normal_and_cli_decide_about_the_surrogate():
    """The exact-or-surrogate mse is chosen in normal (bit_normal_mse_extended,
    summed by coefficient_error_sq) and flagged in cli: no other module calls
    bit_normal_mse_extended or reads MSE_EXACT_MAX_P, so no expansion module
    writes its own exact-or-surrogate sum."""
    names = {"bit_normal_mse_extended", "MSE_EXACT_MAX_P"}
    users = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in names:
                users.add(path.name)
    assert users == {"normal.py", "cli.py"}


def test_only_normal_chooses_between_the_grid_table_and_phi_inv():
    """Sampled grid indices become normals in normal.grid_normal_runs alone:
    no other module reads GRID_TABLE_MAX_P or calls _grid_table, so no
    sampler writes its own table-or-phi_inv choice."""
    names = {"GRID_TABLE_MAX_P", "_grid_table"}
    users = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in names:
                users.add(path.name)
    assert users == {"normal.py"}


def test_only_check_count_asks_for_an_integer_type():
    """Integer counts are refused in one place, bitcore.check_count: an
    isinstance test against np.integer appears in src/ only there and in
    cli.format_value, which formats a value and refuses none."""
    users = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and any(getattr(sub, "attr", None) == "integer" for arg in node.args[1:] for sub in ast.walk(arg))):
                continue
            scope = parents.get(node)
            while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parents.get(scope)
            users.add((path.stem, getattr(scope, "name", None)))
    assert users == {("bitcore", "check_count"), ("cli", "format_value")}


_THREAD_NAMES = {"sched_getaffinity", "cpu_count", "ThreadPoolExecutor"}


def test_only_run_blocks_decides_about_threads():
    """The thread count and the blocks of a batch are chosen in one place,
    bitcore.run_blocks: no other function in src/ takes a ``threads``
    parameter, reads os.sched_getaffinity or os.cpu_count, or names
    ThreadPoolExecutor (bitcore imports it at module level)."""
    users = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if not (name in _THREAD_NAMES or isinstance(node, ast.arg) and node.arg == "threads"):
                continue
            scope = parents.get(node)
            while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parents.get(scope)
            users.add((path.stem, getattr(scope, "name", None)))
    assert users == {("bitcore", "run_blocks"), ("bitcore", None)}


class _Pools:
    """Records the blocks each thread's ``run`` gets from ``bitcore.run_blocks``
    and the thread count of every pool it makes, with the usable CPUs set to
    ``cpus`` (None: no affinity set, and os.cpu_count() unknown)."""

    def __init__(self, monkeypatch, cpus):
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        self.pools, self.calls = [], []
        make = bitcore.ThreadPoolExecutor

        def spy(workers):
            self.pools.append(workers)
            return make(workers)

        monkeypatch.setattr(bitcore, "ThreadPoolExecutor", spy)

    def run(self, n, rows):
        self.pools.clear()
        self.calls.clear()
        bitcore.run_blocks(n, rows, lambda blocks: self.calls.append((threading.current_thread(), blocks)))
        return sorted(block for _, blocks in self.calls for block in blocks)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_run_blocks_cuts_the_batch_once_in_order(monkeypatch, cpus):
    """The blocks cover rows 0..n once, in order; each has max(2, rows //
    threads) rows but the last, which takes in a single row left over, and
    none has one row unless the batch has."""
    pools = _Pools(monkeypatch, cpus)
    for rows in (0, 1, 2, 3, 4, 5, 8, 13, 40, 100):
        step = max(2, rows // len(cpus))
        for n in range(1, 41):
            blocks = pools.run(n, rows)
            assert [a for a, _ in blocks] == [0, *(b for _, b in blocks[:-1])] and blocks[-1][1] == n
            assert all(own == sorted(own) for _, own in pools.calls)
            sizes = [b - a for a, b in blocks]
            assert all(size == step for size in sizes[:-1]), (n, rows)
            assert (sizes[-1] == 1) == (n == 1) and sizes[-1] <= step + 1, (n, rows)


def test_run_blocks_starts_one_pool_thread_for_two_or_more_blocks(monkeypatch):
    pools = _Pools(monkeypatch, {0, 1})
    for rows in (0, 4, 16):
        for n in range(1, 41):
            blocks = pools.run(n, rows)
            mine = [b for t, b in pools.calls if t is threading.current_thread()]
            other = [b for t, b in pools.calls if t is not threading.current_thread()]
            assert mine == [blocks[::2]] and other == ([blocks[1::2]] if len(blocks) >= 2 else [])
            assert pools.pools == ([1] if len(blocks) >= 2 else [])


@pytest.mark.parametrize("cpus", [{0}, None], ids=["one_cpu", "no_affinity_no_count"])
def test_run_blocks_on_one_cpu_starts_no_thread(monkeypatch, cpus):
    pools = _Pools(monkeypatch, cpus)
    for n in (1, 2, 5, 40):
        blocks = pools.run(n, 4)
        assert pools.pools == [] and pools.calls == [(threading.current_thread(), blocks)]


def test_run_blocks_pool_exception_propagates_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seen = []

    def run(blocks):
        seen.append(blocks)
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("pool block")

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="pool block"):
        bitcore.run_blocks(10, 4, run)
    assert threading.active_count() == before
    assert sorted(seen) == [[(0, 2), (4, 6), (8, 10)], [(2, 4), (6, 8)]]


@pytest.mark.parametrize("args, message", [
    (("n", 2.5, 1), "n must be a positive integer, got 2.5"),
    (("n", -1, 0), "n must be a non-negative integer, got -1"),
    (("p", 64, 1, MAX_BITS), "p must be an integer in [1, 63], got 64"),
    (("p", np.float64(3), 1, MAX_BITS), f"p must be an integer in [1, 63], got {np.float64(3)!r}"),
    (("p", "4", 1), "p must be a positive integer, got '4'"),
])
def test_check_count_messages(args, message):
    with pytest.raises(ValueError) as info:
        bitcore.check_count(*args)
    assert str(info.value) == message
    for ok in (0 if args[2] == 0 else 1, np.int64(args[2]), np.uint8(args[2])):
        bitcore.check_count(args[0], ok, *args[2:])


def test_check_finite_names_the_first_bad_value():
    bitcore.check_finite(a=1.0, b=-1e308, c=3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as info:
            bitcore.check_finite(a=1.0, b=bad, c=math.nan)
        assert str(info.value) == f"b must be finite, got {bad!r}"


_FSUM_OF_SCALARS = {("normal", "coefficient_error_sq")}


def test_math_fsum_sums_no_array():
    """Arrays are summed by bitcore.exact_sum, at a fraction of fsum's cost:
    math.fsum appears in src/ only inside its streaming form
    exact_sum_chunks, and as the sum of a generator of Python floats in
    coefficient_error_sq."""
    uses = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if "fsum" not in {getattr(node, name, None) for name in ("attr", "id", "name")}:
                continue
            call = scope = parents.get(node)
            while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parents.get(scope)
            where = (path.stem, getattr(scope, "name", None))
            summand = call.args[0] if isinstance(call, ast.Call) and call.func is node and call.args else None
            uses.add((*where, "scalars" if isinstance(summand, ast.GeneratorExp) else "other"))
    assert uses == {("bitcore", "exact_sum_chunks", "other"), *((*where, "scalars") for where in _FSUM_OF_SCALARS)}


def test_quadrature_runs_only_where_no_closed_form_exists():
    """Every law the package ships gives its cells in closed form, so no
    quadrature route comes back for them: scipy's quad and checked_quad are
    called in src/ only by the tail sum of an explicit KL spectrum
    (gausskl.tail_sum), by normal.func_h and inside checked_quad itself."""
    callers = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and
                    {getattr(node.func, name, None) for name in ("attr", "id")} & {"quad", "checked_quad"}):
                continue
            scope = parents.get(node)
            while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parents.get(scope)
            callers.add((path.stem, getattr(scope, "name", None)))
    assert callers == {("gausskl", "tail_sum"), ("normal", "func_h"), ("normal", "checked_quad")}


_PINNED_IMPORTS = {"grid_normal_values", "truncate_indices"}  # re-exports perfbench/selftest.py asserts


def test_every_imported_name_is_used():
    """No linter runs here, so this is the unused-import check: each module
    of the package (``__init__`` re-exports, so it is left out) uses every
    name it imports, except the pinned re-exports on a ``# noqa: F401`` line."""
    unused = []
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and not (noqa and name in _PINNED_IMPORTS):
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_private_module_name_is_read():
    """The dead-code check for private names: every module-level function,
    class or constant of the package whose name starts with one underscore
    is read somewhere in its own module (no other module may use it)."""
    unread = []
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            unread += [f"{path.name}:{node.lineno} {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unread == []


# public functions and classes that src/ does not read and rbitmc.__all__ does
# not list, each kept for a reason
_UNREAD_PUBLIC = {
    "precision_sum": "the allocation's precision inequality of criterion 4",
    "kl_error_interval": "kl_error_sq with its tail's certified bracket, checked in test_gausskl",
    "plain_mc": "the plain Monte Carlo reference of criterion 7b and of the plain_mc_deep benchmark",
    "bit_normal_support": "the support of the p-bit normal, pinned in test_normal_golden",
}


def test_every_public_function_or_class_is_used():
    """The dead-code check for public functions and classes: each one a
    module of the package defines at top level is read somewhere in src/
    outside ``__init__`` (by name in its own module, through an import from
    it, or as an attribute), is listed in ``rbitmc.__all__``, or is kept in
    _UNREAD_PUBLIC with its reason."""
    import rbitmc

    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py"))
             if path.name != "__init__.py"}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    imported = {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = attributes | imported | set(rbitmc.__all__)
    unread = set()
    for tree in trees.values():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread |= {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not node.name.startswith("_") and node.name not in loaded | used}
    assert unread == set(_UNREAD_PUBLIC)


def test_every_module_constant_is_read():
    """The dead-code check for module-level assignments, public ones too: each
    name a module of the package assigns at top level (dunders aside) is read
    somewhere in src/, by name in its own module, through an import from it,
    or as an attribute."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    imported = {(node.module, alias.name) for node in nodes
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = []
    for module, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
            unread += [f"{module}.py:{node.lineno} {t.id}" for t in targets
                       if isinstance(t, ast.Name) and not t.id.startswith("__")
                       and t.id not in loaded and (module, t.id) not in imported and t.id not in attributes]
    assert unread == []


# parameters that src/ does not read, each fixed by the call protocol it serves
_UNREAD_PARAMETERS = {
    ("cli", "_check_normal_error", "a"): "cli fixture checks take (fixtures, records, typed parameters)",
    ("cli", "_check_bridge_error", "a"): "cli fixture checks take (fixtures, records, typed parameters)",
    ("cli", "_check_appendix_ratios", "a"): "cli fixture checks take (fixtures, records, typed parameters)",
    ("cli", "_MODELS['bridge']", "beta"): "mlmc --model builds a model from (beta, alpha); the bridge's are fixed",
    ("cli", "_MODELS['bridge']", "alpha"): "mlmc --model builds a model from (beta, alpha); the bridge's are fixed",
    ("mlmc", "ExpansionModel.scale", "level"): "the unit scale of every level; KLModel.scale reads it",
    ("mlmc", "KLModel.functional_rows", "level"): "KL rows need no level; BridgeModel.functional_rows reads it",
}


def test_every_parameter_is_read():
    """The dead-code check for parameters: every parameter of every function,
    method and lambda of the package (``self`` aside) is read in its body,
    or is kept in _UNREAD_PARAMETERS because a call protocol fixes it.  A
    lambda is named by the dict entry that holds it."""
    unread = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            outer = parents.get(node)
            if isinstance(node, ast.Lambda):
                holder = parents.get(outer)
                key = outer.keys[outer.values.index(node)] if isinstance(outer, ast.Dict) else None
                name = (f"{holder.targets[0].id}[{key.value!r}]" if isinstance(holder, ast.Assign) and key is not None
                        else "<lambda>")
            else:
                name = f"{outer.name}.{node.name}" if isinstance(outer, ast.ClassDef) else node.name
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *(a for a in (args.vararg, args.kwarg) if a)]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for part in body for n in ast.walk(part) if isinstance(n, ast.Name)}
            unread |= {(path.stem, name, a.arg) for a in params if a.arg != "self" and a.arg not in read}
    assert unread == set(_UNREAD_PARAMETERS)


def test_export_list_is_the_import_list():
    """``rbitmc.__all__`` has no duplicates, every name in it resolves on
    the package, and it lists exactly the names ``__init__`` imports: a name
    kept there after its object went would fail only ``from rbitmc import *``,
    and test_every_public_function_or_class_is_used counts a listing as use."""
    import rbitmc

    init = Path(rbitmc.__file__)
    imported = {alias.asname or alias.name for node in ast.parse(init.read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(rbitmc.__all__) == len(set(rbitmc.__all__))
    assert [name for name in rbitmc.__all__ if not hasattr(rbitmc, name)] == []
    assert set(rbitmc.__all__) == imported
