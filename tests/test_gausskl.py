import math
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbitmc import gausskl as G
from rbitmc import mlmc as M
from rbitmc.bridge import allocation_bridge
from rbitmc.bitcore import (BitAllocation, BitSource, byte_fields, child_source, dyadic_values, read_bytes, read_fields,
                            truncate_indices)
from rbitmc.errors import CapacityError, InternalInvariantError
from rbitmc.mlmc import KLModel
from rbitmc.normal import (bit_normal_mse, bit_normal_mse_moments, grid_normal_byte_table, grid_normal_values,
                           phi_inv)

from oracles import HeldWords, decode_block
from test_wasserstein import w2_empirical

SPEC = G.EigenSpec(beta=2.0, alpha=0.0)


def _sample_batch(src, m, n):
    """n KL rows of dimension m: (coeff rows, index rows, allocation)."""
    alloc = G.allocation_kl(m, SPEC)
    coeffs, idx = G.sample_rows(src, alloc, n, np.sqrt(SPEC.eigenvalues(np.arange(1, m + 1))))
    return coeffs, idx, alloc


@settings(max_examples=150, deadline=None)
@given(counts=st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 52, 53, 63]), min_size=1, max_size=24),
       n=st.integers(1, 40), head=st.integers(0, 63), seed=st.integers(0, 2**32 - 1))
@example(counts=[2] * 8 + [4] * 6 + [8] * 3 + [1] * 5, n=37, head=3, seed=1)
@example(counts=[6] * 5 + [2] * 3, n=9, head=0, seed=2)
@example(counts=[63] * 5, n=7, head=3, seed=3)  # the rows of sde's 63-bit parents
def test_sample_rows_matches_scalar_draws(counts, n, head, seed):
    """Both sampling paths give the rows of run-by-run scalar draws: the
    index rows of sample_rows, and its coefficient rows, which the runs of
    the drawn words decode to with no index rows built."""
    alloc = BitAllocation(np.array(counts))
    srcs = [BitSource(seed) for _ in range(3)]
    for src in srcs:
        if head:
            src.draw_bits(head)
    ref = srcs[0]
    idx_ref = np.empty((n, len(alloc)), dtype=np.uint64)
    for a, b, p in alloc.runs:
        values = [ref.draw_bits(p) for _ in range(n * (b - a))]
        idx_ref[:, a:b] = np.array(values, dtype=np.uint64).reshape(n, b - a)
    coeffs, idx = G.sample_rows(srcs[1], alloc, n)
    bare = G.RunDecoder(alloc, alloc)(G.read_runs(G.draw_rows(srcs[2], alloc, n), 0, n), n)
    assert isinstance(bare, np.ndarray) and idx.dtype == np.uint64
    assert np.array_equal(idx, idx_ref)
    for j, p in enumerate(alloc.counts):
        assert np.array_equal(coeffs[:, j], grid_normal_values(idx_ref[:, j], int(p)))
    assert coeffs.tobytes() == bare.tobytes()
    assert ref.bits_drawn == srcs[1].bits_drawn == srcs[2].bits_drawn == head + n * alloc.total
    assert ref.draw_bits(17) == srcs[1].draw_bits(17) == srcs[2].draw_bits(17)


@pytest.mark.parametrize("p", [1, 3, 8, 12, 20, 21, 52, 53, 63])
def test_grid_indices_are_the_stream_fields(p):
    """A grid index is the p-bit field the stream holds, 0..2**p - 1: the
    index rows of sample_rows are the values draw_bits returns for the same
    stream, truncate_indices is the plain shift f >> (p - q),
    grid_normal_values is phi_inv(dyadic_values(f, p)) at every field
    (minus the value of the mirror field 2**p - 1 - f where the midpoint
    rounds to 1.0, from p = 53 on), and field 2**p raises."""
    n = 40
    _, idx = G.sample_rows(BitSource(7), BitAllocation([p]), n)
    ref = BitSource(7)
    assert [int(f) for f in idx[:, 0]] == [ref.draw_bits(p) for _ in range(n)]
    top = (1 << p) - 1
    ends = np.arange(1 << p) if p <= 12 else [0, 1, top >> 1, (top >> 1) + 1, top - 1, top]
    fields = np.concatenate([np.asarray(ends, dtype=np.uint64), idx[:, 0]])
    for q in sorted({1, p // 2 + 1, p - 1, p} - {0}):
        assert [int(f) for f in truncate_indices(fields, p, q)] == [int(f) >> (p - q) for f in fields]
    u = dyadic_values(fields, p)
    mirror = u == 1.0
    assert mirror.any() == (p >= 53)
    want = phi_inv(np.where(mirror, dyadic_values(np.uint64(top) - fields, p), u))
    assert grid_normal_values(fields, p).tobytes() == np.where(mirror, -want, want).tobytes()
    with pytest.raises((IndexError, ValueError)):
        grid_normal_values(np.array([1 << p], dtype=np.uint64), p)


_RUN_PS = [1, 2, 3, 4, 6, 8, 9, 52, 53, 63]


@settings(max_examples=120, deadline=None)
@given(runs=st.lists(st.tuples(st.sampled_from(_RUN_PS), st.integers(1, 5)), min_size=1, max_size=8),
       n=st.integers(1, 9), head=st.integers(0, 130), seed=st.integers(0, 2**32 - 1), data=st.data())
@example(runs=[(2, 3), (63, 1), (3, 2)], n=1, head=3, seed=3, data=None)
@example(runs=[(52, 2), (53, 1), (8, 5), (1, 4)], n=7, head=64, seed=4, data=None)
@example(runs=[(9, 5), (6, 4), (4, 3)], n=9, head=67, seed=5, data=None)
def test_blocked_decode_equals_whole_batch(runs, n, head, seed, data):
    """Blocks of rows decoded from the drawn words, for every block size down
    to one row, give the rows of one whole-batch sample_rows and, re-truncated
    from their first m2 index columns, of coarsen_rows; so do blocks decoded
    into a buffer.  Sources start off a byte or word boundary."""
    counts = np.repeat([p for p, _ in runs], [k for _, k in runs])
    alloc = BitAllocation(counts)
    m = len(counts)
    if data is None:
        m2, drops = m, [0] * m
    else:
        m2 = data.draw(st.integers(1, m), label="m2")
        drops = data.draw(st.lists(st.integers(0, 62), min_size=m2, max_size=m2), label="drops")
    coarse = BitAllocation(np.maximum(counts[:m2] - np.array(drops[:m2]), 1))
    scale = np.sqrt(SPEC.eigenvalues(np.arange(1, m + 1)))
    whole_src, block_src = BitSource(seed), BitSource(seed)
    for src in (whole_src, block_src):
        src.draw_bits_array(1, head)
    coeffs, idx = G.sample_rows(whole_src, alloc, n, scale)
    coarse_coeffs, coarse_idx = G.coarsen_rows(idx, alloc, coarse, scale[:m2])
    drawn = G.draw_rows(block_src, alloc, n)
    assert block_src.bits_drawn == whole_src.bits_drawn == head + n * alloc.total
    assert block_src.draw_bits(63) == whole_src.draw_bits(63)
    buf = np.empty((n, m))
    for step in range(1, n + 1):
        for a in range(0, n, step):
            b = min(a + step, n)
            c = G.RunDecoder(alloc, alloc)(G.read_runs(drawn, a, b), b - a, scale)
            assert isinstance(c, np.ndarray) and c.tobytes() == coeffs[a:b].tobytes()
            c, i = decode_block(drawn, a, b, scale, buf[:b - a])
            assert c.tobytes() == coeffs[a:b].tobytes() and np.array_equal(i, idx[a:b])
            c, i = G.coarsen_rows(i, alloc, coarse, scale[:m2])
            assert c.tobytes() == coarse_coeffs[a:b].tobytes()
            assert np.array_equal(i, coarse_idx[a:b])


@settings(max_examples=120, deadline=None)
@given(p=st.sampled_from([1, 2, 4, 8]), w=st.integers(1, 9), n=st.integers(1, 12), start=st.integers(0, 200),
       seed=st.integers(0, 2**32 - 1), data=st.data())
@example(p=2, w=3, n=5, start=67, seed=1, data=None)  # 30 bits: a partial last byte, off a byte and a word
@example(p=1, w=5, n=3, start=130, seed=2, data=None)
def test_byte_runs_decode_as_the_fields_of_their_bytes(p, w, n, start, seed, data):
    """A run at p in {1, 2, 4, 8} is decoded by np.take on the (256, 8/p)
    tables; its values and index rows equal grid_normal_values(byte_fields(p)[codes], p)
    of the same stream bytes and the read_fields of the same bits."""
    a = 0 if data is None else data.draw(st.integers(0, n - 1), label="a")
    b = n if data is None else data.draw(st.integers(a + 1, n), label="b")
    nb = b - a
    words = np.random.default_rng(seed).integers(0, 2**64, -(-(start + n * w * p) // 64) + 1, dtype=np.uint64)
    drawn = G.DrawnRows(HeldWords(words, start), n, BitAllocation([p] * w))
    coeffs, idx = decode_block(drawn, a, b)
    at = start + a * w * p
    codes = read_bytes(words, at, p, nb * w)
    assert len(codes) == -(-nb * w * p // 8)
    fields = byte_fields(p)[codes].reshape(-1)[:nb * w]
    assert coeffs.tobytes() == grid_normal_values(fields, p).reshape(nb, w).tobytes()
    assert np.array_equal(idx, fields.reshape(nb, w))
    assert np.array_equal(idx.reshape(-1), read_fields(words, at, p, nb * w))


def test_top_63_bit_fields_decode_and_coarsen_to_the_mirror_values():
    """All-ones 63-bit fields are field 2**63 - 1, whose midpoint rounds to
    1.0; the decode and the coarsening to 53 bits (field 2**53 - 1, the same
    case) raised "phi_inv requires 0 < u < 1" and give minus the bottom
    values."""
    drawn = G.DrawnRows(HeldWords(np.full(4, 2**64 - 1, dtype=np.uint64), 0), 3, BitAllocation([63]))
    coeffs, idx = decode_block(drawn, 0, 3)
    assert np.all(idx == (np.uint64(1) << np.uint64(63)) - np.uint64(1))
    assert np.all(coeffs == -grid_normal_values(np.zeros(3, np.uint64), 63))
    coarse, coarse_idx = G.coarsen_rows(idx, BitAllocation([63]), BitAllocation([53]))
    assert np.all(coarse_idx == (np.uint64(1) << np.uint64(53)) - np.uint64(1))
    assert np.all(coarse == -grid_normal_values(np.zeros(3, np.uint64), 53))


@pytest.mark.parametrize("a, b, message", [
    (0, 9, "row stop b must be an integer in [0, 4], got 9"),
    (3, 1, "row stop b must be an integer in [3, 4], got 1"),
    (-1, 2, "row start a must be an integer in [0, 4], got -1"),
    (5, 5, "row start a must be an integer in [0, 4], got 5"),
    (0, 2.0, "row stop b must be an integer in [0, 4], got 2.0"),
], ids=["stop-past-the-draw", "stop-before-start", "negative-start", "start-past-the-draw", "float-stop"])
def test_read_runs_refuses_a_row_range_outside_the_draw(a, b, message):
    """Rows 0..9 of 4 drawn rows came back, 5 of them read from other runs'
    bits and the zero pad, and rows 3..1 failed with numpy's "negative
    dimensions are not allowed".  The range is refused before any word is
    read: here there are no words to read."""
    drawn = G.draw_rows(BitSource(1), allocation_bridge(3), 4)
    for rows in (drawn, G.DrawnRows(None, 4, drawn.alloc)):
        with pytest.raises(ValueError, match=re.escape(message)):
            G.read_runs(rows, a, b)
    assert [G._index_rows(G.read_runs(drawn, a, b), b - a).shape for a, b in ((0, 4), (4, 4), (1, 3))] == \
        [(4, 7), (0, 7), (2, 7)]


def _run_bytes(runs: list) -> list:
    """The runs of a read_runs call as comparable values: (c0, c1, p, dtype, shape, bytes)."""
    return [(c0, c1, p, data.dtype, data.shape, data.tobytes()) for c0, c1, p, data in runs]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), before=st.integers(0, 200), head=st.lists(st.integers(1, 63), max_size=4),
       counts=st.lists(st.integers(1, 63), min_size=1, max_size=6), n=st.integers(1, 30),
       cuts=st.lists(st.integers(0, 30), max_size=4))
@example(seed=1, before=0, head=[], counts=[8, 8, 4, 1], n=9, cuts=[4])  # a fresh stream: no partial word
@example(seed=2, before=0, head=[63, 1], counts=[63, 5], n=3, cuts=[1, 2])  # a whole word used up: partial 0
@example(seed=3, before=3, head=[61], counts=[1], n=2, cuts=[1])  # the draw ends inside the partial word
def test_read_runs_generate_the_words_take_words_holds(seed, before, head, counts, n, cuts):
    """After earlier draws and scalar draws have left a partial word, every
    row range of a draw reads the bytes that the same draw's take_words
    words hold: the whole draw (from word 0 to the last word, one
    generation), and blocks that start in word 0 and end on the last word,
    read in reverse order by one thread's generator."""
    drawn_src, held_src = BitSource(seed), BitSource(seed)
    for src in (drawn_src, held_src):
        src.draw_bits_array(7, before)
        for p in head:
            src.draw_bits(p)
    alloc = BitAllocation(counts)
    drawn = G.draw_rows(drawn_src, alloc, n)
    held = G.DrawnRows(HeldWords(*held_src.take_words(n * alloc.total)), n, alloc)
    assert drawn_src.bits_drawn == held_src.bits_drawn and drawn_src.draw_bits(63) == held_src.draw_bits(63)
    assert _run_bytes(G.read_runs(drawn, 0, n)) == _run_bytes(G.read_runs(held, 0, n))
    bounds = sorted({min(c, n) for c in cuts} | {0, n})
    for a, b in reversed(list(zip(bounds, bounds[1:]))):
        assert _run_bytes(G.read_runs(drawn, a, b)) == _run_bytes(G.read_runs(held, a, b))


def test_threads_reading_one_draw_give_the_one_thread_bytes():
    """Two threads read interleaved blocks of one draw, as mlmc._evaluate's
    and the strong-error experiment's threads do, while the interpreter
    switches threads every microsecond: every block reads the bytes of a
    one-thread read.  Threads that shared a generator would read from each
    other's positions."""
    alloc = BitAllocation([63] * 3 + [9] * 5 + [4] * 6 + [1] * 3)  # wide, field, byte runs
    drawn = G.draw_rows(BitSource(8), alloc, 4000)
    blocks = [(a, a + 2) for a in range(0, 4000, 2)]
    expected = [_run_bytes(G.read_runs(drawn, a, b)) for a, b in blocks]
    got = [None] * len(blocks)

    def read(first: int) -> None:
        for k in range(first, len(blocks), 2):
            got[k] = _run_bytes(G.read_runs(drawn, *blocks[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(first,)) for first in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
def test_coarsen_rows_refuses_index_rows_that_are_not_integers(dtype):
    """Float index rows were truncated without a word: [[1.5, 2, 3]] gave
    coarse index 1."""
    rows = np.array([[1.5, 2, 3]]).astype(dtype)
    with pytest.raises(ValueError, match=re.escape(f"index rows must hold integer fields, got dtype {np.dtype(dtype)}")):
        G.coarsen_rows(rows, allocation_bridge(2), allocation_bridge(1))


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_grid_normal_byte_table_matches_grid_normal_values(p):
    table = grid_normal_byte_table(p, p)
    assert table.shape == (256, 8 // p)
    assert np.array_equal(table, grid_normal_values(byte_fields(p), p))
    for q in range(1, p):  # the coarse tables: the q-bit normals at the top q bits of each field
        truncated = grid_normal_byte_table(p, q)
        assert truncated.shape == (256, 8 // p) and not truncated.flags.writeable
        assert truncated.tobytes() == grid_normal_values(truncate_indices(byte_fields(p), p, q), q).tobytes()
    for q in (0, p + 1):
        with pytest.raises(ValueError, match=f"cannot truncate {p}-bit fields to {q} bits"):
            grid_normal_byte_table(p, q)


def test_allocation_examples():
    assert list(G.allocation_kl(4, SPEC).counts) == [4, 2, 1, 1]
    assert G.allocation_kl(4, SPEC).total == 8
    assert list(G.allocation_kl(1, SPEC).counts) == [1]
    # an explicit spectrum is allocated by its declared rates, not refused
    explicit = G.EigenSpec(beta=2.0, alpha=0.0, explicit=lambda i: 7.0 * i ** -3.0)
    assert list(G.allocation_kl(4, explicit).counts) == [4, 2, 1, 1]


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("alpha", [-2.0, 0.0, 2.0])
def test_allocation_monotone_and_linear(beta, alpha):
    spec = G.EigenSpec(beta=beta, alpha=alpha)
    bound = 1.0 + beta * math.log2(math.e) + 2.0 * abs(alpha)
    prev = None
    for level in range(1, 17):
        counts = G.allocation_kl(1 << level, spec).counts
        if prev is not None:
            assert np.all(prev <= counts[: len(prev)])
        ratio = counts.sum() / (1 << level)
        assert 1.0 <= ratio <= bound
        prev = counts


def test_sampling_accounting_and_norm():
    src = BitSource(17)
    alloc = G.allocation_kl(32, SPEC)
    coeffs, idx = G.sample_rows(src, alloc, 1, np.sqrt(SPEC.eigenvalues(np.arange(1, 33))))
    assert coeffs.shape == idx.shape == (1, 32)
    assert src.bits_drawn == alloc.total
    norm_sq = float(G.KLRows(coeffs).norm()[0]) ** 2
    assert abs(norm_sq - float(np.sum(coeffs ** 2))) <= 1e-12 * norm_sq


def test_coarsen_nesting_and_no_bits():
    src = BitSource(18)
    a64, a16, a4 = (G.allocation_kl(m, SPEC) for m in (64, 16, 4))
    _, idx = G.sample_rows(src, a64, 1)
    drawn = src.bits_drawn
    mid = G.coarsen_rows(idx, a64, a16)
    a = G.coarsen_rows(mid[1], a16, a4)
    b = G.coarsen_rows(idx, a64, a4)
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[0], b[0])
    assert src.bits_drawn == drawn
    with pytest.raises(ValueError, match="coarse dimension exceeds fine dimension"):
        G.coarsen_rows(idx, a64, G.allocation_kl(128, SPEC))


def test_coarsen_rejects_non_nested_allocation():
    src = BitSource(19)
    alloc = G.allocation_kl(4, SPEC)
    _, idx = G.sample_rows(src, alloc, 1)
    bigger = BitAllocation(np.array([60, 60]))
    with pytest.raises(InternalInvariantError):
        G.coarsen_rows(idx, alloc, bigger)


@pytest.mark.parametrize("shape", [(3,), (8,), (2, 7)])
def test_sample_rows_refuses_a_scale_of_another_length_before_drawing(shape):
    """A scale of 3 values for 7 coefficients raised numpy's broadcast error
    after the draw, with 44 bits gone from the stream."""
    src = BitSource(1)
    with pytest.raises(ValueError, match="scale must hold 7 values"):
        G.sample_rows(src, allocation_bridge(3), 2, np.ones(shape))
    assert src.bits_drawn == 0


@pytest.mark.parametrize("n", [2.5, 2.0, np.float64(3.0), -1, "2"])
@pytest.mark.parametrize("draw", [G.sample_rows, G.draw_rows], ids=["sample_rows", "draw_rows"])
def test_a_row_count_that_is_not_a_count_is_refused_by_name(draw, n):
    """n = 2.5 was refused only by take_words, as "bit count ... got 55.0",
    which names the product n |alloc| and not n."""
    src = BitSource(1)
    with pytest.raises(ValueError, match=re.escape(f"row count n must be a non-negative integer, got {n!r}")):
        draw(src, allocation_bridge(3), n)
    assert src.bits_drawn == 0


@pytest.mark.parametrize("shape", [(1,), (), (4, 3), (4,)], ids=["one", "scalar", "rows-by-m2", "m2-plus-1"])
def test_coarsen_rows_refuses_a_scale_of_another_shape(shape):
    """coarsen_rows multiplied every value by a scale of shape (1,) or () and
    took one of shape (rows, m2), all of which sample_rows refuses; here
    rows = 4 and m2 = 3."""
    fine, coarse = allocation_bridge(3), allocation_bridge(2)
    _, idx = G.sample_rows(BitSource(1), fine, 4)
    with pytest.raises(ValueError, match=r"scale must hold 3 values, one per coefficient, got shape"):
        G.coarsen_rows(idx, fine, coarse, np.ones(shape))


def test_coarsen_rows_refuse_index_rows_narrower_than_the_coarse_level():
    """Two index columns against the three of bridge level 2 were broadcast
    into three coarse columns."""
    with pytest.raises(ValueError, match="index rows have 2 columns, fewer than the 3 coarse coordinates"):
        G.coarsen_rows(np.ones((1, 2), np.uint64), allocation_bridge(3), allocation_bridge(2))


@pytest.mark.parametrize("rows, fine, coarse, match", [
    # field 2**p at an unchanged count is past the end of the p = 4 grid table
    (np.full((1, 1), 16, np.uint64), BitAllocation([4]), BitAllocation([4]), r"index 16 in column 1 is outside 0\.\.2\*\*4 - 1"),
    # a bare IndexError from the p <= 20 grid table
    (np.full((1, 7), 64, np.uint64), allocation_bridge(3), allocation_bridge(2), r"index 64 in column 1 "),
    # "phi_inv requires 0 < u < 1" above the table
    (np.full((1, 1), 1 << 30, np.uint64), BitAllocation([30]), BitAllocation([25]),
     r"index 1073741824 in column 1 is outside 0\.\.2\*\*30 - 1"),
    (np.array([[63, 15, 16, 3]], np.uint64), allocation_bridge(3), allocation_bridge(2), r"index 16 in column 3 is outside 0\.\.2\*\*4 - 1"),
    (np.array([[64, 0, 0]], np.uint64), allocation_bridge(3), allocation_bridge(2), r"index 64 in column 1 is outside 0\.\.2\*\*6 - 1"),
    (np.array([[2, -1, 1]], np.int64), allocation_bridge(2), allocation_bridge(2), r"index -1 in column 2 "),
], ids=["top-same-p", "top-table", "top-above-table", "high-later-run", "high-first-run", "negative"])
def test_coarsen_rows_refuse_an_index_outside_the_fine_grid(rows, fine, coarse, match):
    with pytest.raises(ValueError, match=match):
        G.coarsen_rows(rows, fine, coarse)


def test_coarsen_rows_take_both_ends_of_the_fine_grid():
    rows = np.array([[0, 15, 0, 3, 3, 0, 3], [63, 0, 15, 0, 0, 3, 0]], np.uint64)
    coeffs, idx = G.coarsen_rows(rows, allocation_bridge(3), allocation_bridge(2))
    assert np.array_equal(idx, [[0, 3, 0], [15, 0, 3]])
    assert np.all(np.isfinite(coeffs))


@pytest.mark.parametrize("m2,counts", [(1, [3, 2, 1]), (1, [3, 2]), (2, [3]), (3, [3, 2, 1, 1])])
def test_allocation_override_of_the_wrong_length_is_refused(m2, counts):
    """An allocation override must have length m."""
    alloc = BitAllocation(np.array(counts))
    with pytest.raises(ValueError, match="allocation length must equal m"):
        G.kl_error_sq(m2, SPEC, allocation=alloc)


def test_empirical_norm_matches_moment_sum():
    m, n = 64, 100_000
    src = BitSource(21)
    coeffs, _, alloc = _sample_batch(src, m, n)
    lam = SPEC.eigenvalues(np.arange(1, m + 1))
    expected = math.fsum(lam[i] * bit_normal_mse_moments(int(alloc.counts[i]))[1]
                         for i in range(m))
    norm_sq = np.einsum("ij,ij->i", coeffs, coeffs)
    se = norm_sq.std(ddof=1) / math.sqrt(n)
    assert abs(norm_sq.mean() - expected) < 4.0 * se


def test_coordinates_have_zero_mean():
    m, n = 8, 200_000
    src = BitSource(22)
    coeffs, _, _ = _sample_batch(src, m, n)
    means = coeffs.mean(axis=0)
    ses = coeffs.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(means) < 4.0 * ses)


def test_coupling_law_two_sample():
    # coordinate 1 of a coarsened fine sample has exactly the coarse law
    m, m2, n = 16, 4, 100_000
    src = BitSource(23)
    _, idx_rows, alloc_f = _sample_batch(src, m, n)
    alloc_c = G.allocation_kl(m2, SPEC)
    _, idx_c = G.coarsen_rows(idx_rows, alloc_f, alloc_c)
    lam1 = math.sqrt(float(SPEC.eigenvalues(np.array([1.0]))[0]))
    from rbitmc.normal import grid_normal_values
    coarse_coord1 = lam1 * grid_normal_values(idx_c[:, 0], int(alloc_c.counts[0]))
    fresh_src = BitSource(24)
    fresh, _, _ = _sample_batch(fresh_src, m2, n)
    observed = w2_empirical(coarse_coord1, fresh[:, 0]) ** 2
    # simulated null: distances between independent samples of the same law
    null = []
    for r in range(60):
        s1 = child_source(900, r, 0)
        s2 = child_source(900, r, 1)
        a, _, _ = _sample_batch(s1, m2, n)
        b, _, _ = _sample_batch(s2, m2, n)
        null.append(w2_empirical(a[:, 0], b[:, 0]) ** 2)
    null = np.array(null)
    assert observed <= null.mean() + 3.0 * null.std(ddof=1)


def test_tail_sum_matches_trigamma():
    from scipy.special import polygamma
    lo, hi = G.tail_sum(64, SPEC)
    exact = float(polygamma(1, 65))
    assert lo <= exact <= hi
    assert (hi - lo) <= 1e-5 * lo


@pytest.mark.parametrize("eig", [lambda i: 1.0 - 1.0 / i, lambda i: i ** -0.5, lambda i: 1.0 / i],
                         ids=["rising", "inverse_sqrt", "harmonic"])
def test_tail_sum_rejects_non_summable_spectrum(eig):
    # the rising spectrum used to hang, the other two returned finite wrong tails
    spec = G.EigenSpec(beta=2.0, alpha=0.0, explicit=eig)
    start = time.perf_counter()
    with pytest.raises(ValueError):
        G.tail_sum(16, spec)
    assert time.perf_counter() - start < 5.0


def test_kl_error_explicit_bridge_spectrum():
    pspec = G.EigenSpec(beta=2.0, alpha=0.0, explicit=lambda i: (math.pi * i) ** -2.0)
    for p1 in (1, 4):
        got = G.kl_error_sq(1, pspec, allocation=BitAllocation(np.array([p1])))
        want = bit_normal_mse(p1) * math.pi ** -2 + (1.0 / 6.0 - math.pi ** -2)
        assert abs(got - want) <= 1e-9 * want


def test_kl_error_decreasing_in_m():
    errs = [G.kl_error_sq(1 << level, SPEC) for level in range(1, 11)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_kl_error_interval_contains_value():
    lo, hi = G.kl_error_interval(256, SPEC)
    val = G.kl_error_sq(256, SPEC)
    assert lo <= val <= hi
    assert (hi - lo) <= 1e-5 * val


def test_explicit_spec_needs_beta_above_one():
    """Every spec declares summable rates, which the allocation and the MLMC
    schedule read; an explicit spectrum with beta <= 1 was accepted."""
    for beta in (1.0, 0.5):
        with pytest.raises(ValueError, match="beta must exceed 1"):
            G.EigenSpec(beta=beta, alpha=0.0, explicit=lambda i: i ** -2.0)


@pytest.mark.parametrize("index,value", [(2, -1.0), (3, math.nan), (4, math.inf)])
def test_explicit_eigenvalues_must_be_finite_and_non_negative(index, value):
    """A negative or non-finite explicit eigenvalue was used silently:
    lambda_2 = -1 gave kl_error_sq(4) = 0.198 and lambda_3 = nan gave nan.
    It now raises naming its index, before the error or a model's scale
    (whose sqrt would make the rows nan) is formed."""
    spec = G.EigenSpec(beta=2.0, alpha=0.0, explicit=lambda i: np.where(i == index, value, i ** -2.0))
    message = f"explicit eigenvalue at i = {index} is {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        G.kl_error_sq(4, spec, allocation=BitAllocation(np.array([4, 2, 1, 1])))
    with pytest.raises(ValueError, match=re.escape(message)):
        KLModel(spec).scale(2)


@pytest.mark.parametrize("explicit, shape", [(lambda i: 0.5, lambda m: ()), (lambda i: np.ones(1), lambda m: (1,)),
                                             (lambda i: i[:, np.newaxis] ** -2.0, lambda m: (m, 1))],
                         ids=["scalar", "one", "column"])
def test_explicit_eigenvalues_must_have_the_shape_of_their_indices(explicit, shape):
    """A scalar explicit result made kl_error_sq(8, spec) raise "IndexError:
    too many indices for array" and mlmc_estimate on KLModel(spec) "Cannot
    set flags on array scalars"; a broadcastable shape summed wrong values.
    Each is refused naming both shapes."""
    spec = G.EigenSpec(2.0, 0.0, explicit=explicit)
    with pytest.raises(ValueError, match=re.escape(f"explicit eigenvalues have shape {shape(8)}, not the shape (8,) of")):
        G.kl_error_sq(8, spec)
    model = KLModel(spec)  # level 1 reads the eigenvalues at i = 1, 2
    with pytest.raises(ValueError, match=re.escape(f"explicit eigenvalues have shape {shape(2)}, not the shape (2,) of")):
        M.mlmc_estimate(M.lookup_functional("norm"), model, M.mlmc_params(2.0 ** -3, model.beta, model.alpha),
                        BitSource(1))


def test_invalid_spec():
    with pytest.raises(ValueError):
        G.EigenSpec(beta=1.0, alpha=0.0)
    # non-finite rates were accepted: beta = inf gave nan bit counts (inf * 0)
    for kwargs in ({"beta": math.inf, "alpha": 0.0}, {"beta": math.nan, "alpha": 0.0},
                   {"beta": 2.0, "alpha": math.inf}, {"beta": 2.0, "alpha": -math.inf},
                   {"beta": 2.0, "alpha": math.nan}):
        name = next(k for k, v in kwargs.items() if not math.isfinite(v))
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            G.EigenSpec(**kwargs)


def test_allocation_refuses_m_above_the_level_cap():
    import tracemalloc

    from rbitmc.bitcore import MAX_LEVEL

    assert len(G.allocation_kl(1 << 10, SPEC)) == 1 << 10
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="capped"):
            G.allocation_kl(1 << (MAX_LEVEL + 1), SPEC)  # about 2.2 GB if built
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("beta, alpha, m", [(2.0, 0.0, 1), (2.0, 0.0, (1 << 16) + 1), (1.5, 2.0, 3 << 16),
                                            (3.0, -2.0, 100_003), (2.5, 1.0, 1 << 18)])
def test_allocation_blocks_give_the_whole_array_counts(beta, alpha, m):
    # ptilde is evaluated in blocks of indices; every count is the one of
    # the formula on the whole index array
    spec = G.EigenSpec(beta=beta, alpha=alpha)
    i = np.arange(1, m + 1, dtype=np.float64)
    ptilde = beta * np.log2(m / i)
    if alpha > 0.0:
        ptilde = ptilde + alpha * np.log2(np.log2(m + 1.0) / np.log2(i + 1.0))
    expected = np.ceil(np.maximum(ptilde, 1.0)).astype(np.int64)
    counts = G.allocation_kl(m, spec).counts
    assert counts.dtype == np.int64 and np.array_equal(counts, expected)


def test_allocation_memory_is_nine_bytes_per_count():
    # one byte per count while ptilde is evaluated, then the int64 counts;
    # the whole-array formula peaked at 33 bytes per count
    import tracemalloc

    m = 1 << 20
    G.allocation_kl(1 << 10, SPEC)
    tracemalloc.start()
    try:
        alloc = G.allocation_kl(m, SPEC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(alloc) == m and peak <= 10 * m


def test_allocation_refuses_counts_above_the_bit_limit():
    # beta 300 asks for 300 bits at i = 1 of m = 2, more than a byte holds:
    # BitAllocation still refuses it
    with pytest.raises(ValueError, match="bit counts must be integers"):
        G.allocation_kl(2, G.EigenSpec(beta=300.0, alpha=0.0))
