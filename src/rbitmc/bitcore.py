"""Counted random-bit generation and dyadic-grid utilities.

Every sampler in this package obtains its randomness exclusively through a
:class:`BitSource`, which hands out independent fair bits and counts them.
The dyadic midpoint grid

    D(p) = { k * 2**-p - 2**-(p+1) : k = 1, ..., 2**p }

is the set of p-bit values in [0, 1), shifted by half a cell so that it is
symmetric about 1/2.  A value of D(p) is kept as the p-bit field
f = k - 1 in 0..2**p - 1 that the stream holds (its grid index);
:func:`dyadic_values` is the one map from a field to its point of D(p), and
re-truncating a field to a coarser grid is the exact shift
f >> (p_from - p_to) of :func:`truncate_indices`.  Truncations to decreasing
precision nest, which is what makes coupled coarse/fine sampling possible
downstream.

:func:`exact_sum` is the package's one sum of a float64 array that must be
exact: ``math.fsum``'s value, bit for bit, at a fraction of its cost;
:func:`exact_sum_chunks` is the same sum over a stream of arrays.
:func:`check_count` and :func:`check_finite` are its argument checks: every
integer count and every real parameter of the package is refused by name
through them.  :func:`run_blocks` is its one thread policy: it cuts a
batch into blocks of rows and runs them on min(2, usable CPUs) threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Callable

import numpy as np

MAX_BITS = 63  # grid index must fit one machine word
MAX_LEVEL = 25  # a level's dimension is at most 2**MAX_LEVEL (bridge and KL alike)
_GATHER_MIN_BITS = 1 << 15  # draws this long at 4 < p <= 52 gather rather than unpack
_RAW_CHUNK = 1 << 16  # words per random_raw call of take_words: a draw holds its words once
_SUM_BLOCK = 1 << 16  # values per exponent binning of exact_sum: its temporaries stay small
_SUM_BIN_VALUES = 1 << 26  # values whose split parts a float64 bin sums exactly (27 + 26 bits)
_SUM_MAX_EXPONENT = 2006  # largest exponent field binned: 2**26 such values stay below 2**1011
_SUM_HIGH = np.int64(-1 << 26)  # clears the low 26 mantissa bits of a float64's int64 view


def check_count(name: str, value, lo: int, hi: int | None = None) -> None:
    """Refuse a count ``value`` that is not an int or np.integer in [lo, hi]
    (no top when hi is None, where lo is 0 or 1), or is a bool, with
    ValueError naming it; the one integer check of the package, run before
    anything is drawn or built."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi)):
        return
    what = (f"an integer in [{lo}, {hi}]" if hi is not None
            else "a positive integer" if lo == 1 else "a non-negative integer")
    raise ValueError(f"{name} must be {what}, got {value!r}")


def check_finite(**values) -> None:
    """Refuse the first of the named real ``values`` that is not finite with
    ValueError naming it."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class BitSource:
    """Counted stream of independent fair bits with deterministic seeding.

    Bits are the 64-bit output words of a PCG64 generator (period 2**128),
    read straight from ``PCG64(seed).random_raw`` and consumed
    most-significant-first, so the leading bits of any multi-bit draw
    coincide with what a coarser draw from the same stream position would
    have returned.  :meth:`take_words` is the draw of every batch sampler
    (through :func:`gausskl.draw_rows`, which the public
    :func:`gausskl.sample_rows` also calls); :meth:`draw_bits` draws single
    values and is the scalar oracle the tests hold the batch draws against.

    A BitSource is single-owner: parallel replications should each construct
    their own source, e.g. via :func:`child_source`.
    """

    def __init__(self, seed: int):
        check_count("seed", seed, 0)
        self.seed = int(seed)
        self.bits_drawn = 0
        self._raw = np.random.PCG64(self.seed).random_raw
        self._partial = 0  # unconsumed bits of the current word, right-aligned
        self._avail = 0

    def draw_bits(self, p: int) -> int:
        """Return p fresh bits packed as an integer in [0, 2**p)."""
        check_count("bit count p", p, 1, MAX_BITS)
        p = int(p)  # the stream state stays Python ints, which do not overflow
        if self._avail >= p:
            self._avail -= p
            out = (self._partial >> self._avail) & ((1 << p) - 1)
            self._partial &= (1 << self._avail) - 1
        else:
            need = p - self._avail
            word = self._raw()
            out = (self._partial << need) | (word >> (64 - need))
            self._partial = word & ((1 << (64 - need)) - 1)
            self._avail = 64 - need
        self.bits_drawn += p
        return out

    def draw_bits_array(self, p: int, n: int) -> np.ndarray:
        """Draw ``n`` values of ``p`` bits each from the same bit stream.

        Equivalent to ``n`` successive :meth:`draw_bits` calls, in the same
        stream order: the words that hold the p n bits are taken
        (:meth:`take_words`) and decoded whole by :func:`read_fields`.  No
        sampler of the package calls it; they draw rows through
        :func:`gausskl.draw_rows`.  A p or n out of range, or not an
        integer, raises ValueError before the stream moves.
        """
        check_count("bit count p", p, 1, MAX_BITS)
        check_count("n", n, 0)
        return read_fields(*self.take_words(p * n), p, n)

    def take_words(self, total: int) -> tuple[np.ndarray, int]:
        """The words that hold the next ``total`` stream bits, and the bit
        offset of the first of them; advances the stream by ``total`` bits.

        w[0] is the unconsumed partial word, right-aligned, so the stream
        starts at bit 64 - _avail of w; a zero word pads the end, as
        :func:`read_fields` and :func:`read_bytes` need.  The words hold
        ``total`` / 8 bytes plus at most 24: nothing is decoded yet.  They
        are filled _RAW_CHUNK words at a time, in stream order, so the draw
        holds at most one chunk beyond them.  A ``total`` that is negative or
        not an integer raises ValueError before the stream moves.
        """
        check_count("bit count", total, 0)
        total = int(total)  # the stream state stays Python ints, which do not overflow
        nwords = -(-max(total - self._avail, 0) // 64)
        w = np.zeros(nwords + 2, dtype=np.uint64)
        w[0] = self._partial
        for a in range(1, nwords + 1, _RAW_CHUNK):
            b = min(a + _RAW_CHUNK, nwords + 1)
            w[a:b] = self._raw(b - a)
        start = 64 - self._avail
        self._avail += 64 * nwords - total
        self._partial = int(w[nwords]) & ((1 << self._avail) - 1)
        self.bits_drawn += total
        return w, start


def read_fields(words: np.ndarray, start: int, p: int, n: int) -> np.ndarray:
    """The ``n`` values of ``p`` bits each (uint64) held by bits ``start``,
    ``start + p``, ... of ``words``, most significant bit first.

    A pure function of its arguments: any block of values of a stream taken
    by :meth:`BitSource.take_words` can be decoded on its own, in any order.
    ``words`` must hold one word past the last bit read.  Two paths give
    the same values, selected by p and n (runs at p in {1, 2, 4, 8} of a
    sampled expansion are read by :func:`gausskl.read_runs` as bytes
    instead):

    - p > 52, and reads of at least _GATHER_MIN_BITS bits at 4 < p <= 52,
      gather each value from the one or two 64-bit words it straddles, with
      no per-bit pass.
    - all other reads (p <= 4, and shorter reads at 4 < p <= 52) unpack the
      words into bits and pack each row of p bits with a float matmul, exact
      up to 52 bits.  They need fewer numpy calls than the gather.  On a
      2-vCPU x86 VM the gather was 1.2-2.6x faster at 9 <= p <= 52 from
      about 2^15 bits on, 1.1-1.3x at p = 5..7 on long reads (n = 64k-2M),
      and slower at p = 3; on reads of at most 64 values the gather took
      about 15 us per call against 10 us for the unpack.
    """
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    w = words[start >> 6:]
    start &= 63
    if p > 52 or (p > 4 and p * n >= _GATHER_MIN_BITS):
        # value j is the top p bits of the 64 stream bits from s = start + j*p;
        # (x >> 1) >> (63 - r) equals x >> (64 - r) for r > 0, 0 for r = 0
        s = np.arange(n, dtype=np.int64) * p + start
        q = s >> 6
        r = (s & 63).astype(np.uint64)
        lo = (w[q + 1] >> np.uint64(1)) >> (np.uint64(63) - r)
        return ((w[q] << r) | lo) >> np.uint64(64 - p)
    w = w[:(start + p * n + 63) >> 6]
    bits = np.unpackbits(w.astype(">u8").view(np.uint8))[start:start + p * n]
    # exact in float64 up to 52 bits; the matmul is the fast path
    powers = 2.0 ** np.arange(p - 1, -1, -1)
    return (bits.reshape(n, p).astype(np.float64) @ powers).astype(np.uint64)


def read_bytes(words: np.ndarray, start: int, p: int, n: int) -> np.ndarray:
    """The bytes that hold ``n`` values of ``p`` bits each (p in {1, 2, 4, 8})
    from bit ``start`` of ``words`` on, as uint8 codes.

    Returns ceil(p n / 8) codes, most significant bit first: value j is
    field j % (8/p) of byte j // (8/p), so the grid indices (fields) of the
    values are ``byte_lookup(byte_fields(p), codes, 1, n)``; the bits of the
    last byte past them are not defined.  When ``start`` is not on a byte
    boundary, the bytes are shifted into place with one extra pass.  Only
    the words that hold the values are converted; ``words`` must hold one
    word past the last bit read.
    """
    first, shift = divmod(start & 63, 8)
    nbytes = -(-p * n // 8)
    w = words[start >> 6:(start >> 6) + -(-(first + nbytes + 1) // 8)]
    raw = w.astype(">u8").view(np.uint8)[first:first + nbytes + 1]
    if shift:
        return (raw[:-1] << np.uint8(shift)) | (raw[1:] >> np.uint8(8 - shift))
    return raw[:-1]


def byte_lookup(table: np.ndarray, codes: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The (rows, cols) entries that rows * cols p-bit fields, held by the
    byte codes of :func:`read_bytes`, look up in a (256, 8/p) table whose
    row b holds an entry per field of byte b, most significant first (as
    :func:`byte_fields` holds the fields): value j is entry j % (8/p) of
    row codes[j // (8/p)]."""
    return np.take(table, codes, axis=0).reshape(-1)[:rows * cols].reshape(rows, cols)


_BYTE_PRECISIONS = (1, 2, 4, 8)


@cache
def byte_fields(p: int) -> np.ndarray:
    """(256, 8/p) uint64 table whose row b holds the p-bit fields of byte b,
    most significant first, for p in {1, 2, 4, 8}; built once per p,
    read-only.
    """
    if p not in _BYTE_PRECISIONS:
        raise ValueError(f"byte tables need p in {_BYTE_PRECISIONS}, got {p!r}")
    shifts = np.arange(8 - p, -1, -p, dtype=np.uint64)
    table = (np.arange(256, dtype=np.uint64)[:, np.newaxis] >> shifts) & np.uint64((1 << p) - 1)
    table.flags.writeable = False  # shared by every caller
    return table


def child_source(base_seed: int, *key: int) -> BitSource:
    """Independently seeded source for replication ``key`` of ``base_seed``.

    The derivation is SeedSequence(base_seed, spawn_key=key); the resulting
    64-bit seed is deterministic across platforms.  The base seed and every
    key must be non-negative integers.
    """
    check_count("base_seed", base_seed, 0)
    for k in key:
        check_count("key", k, 0)
    ss = np.random.SeedSequence(int(base_seed), spawn_key=tuple(int(k) for k in key))
    return BitSource(int(ss.generate_state(1, np.uint64)[0]))


def dyadic_values(indices: np.ndarray, p: int) -> np.ndarray:
    """The points (2 fl(f + 1) - 1) 2**-(p+1) of D(p) at an array of p-bit
    fields f: the one map from a field to its midpoint.  f + 1 is formed in
    the fields' integer type and rounded to a double once; the shorter
    (f + 0.5) 2**-p rounds differently from p = 54 on.  fl(f + 1) 2**-p -
    2**-(p+1) is the same value, rounded once, and is computed in place on
    one new float64 array, so a whole-grid table holds no temporary beside
    its fields."""
    u = np.add(indices, 1, out=np.empty(np.shape(indices)), casting="unsafe")
    u *= 2.0 ** -p
    u -= 2.0 ** -(p + 1)
    return u


def dyadic_edges(k0: int, k1: int, p: int) -> np.ndarray:
    """Edges k * 2**-p, k = k0..k1, of the 2**p uniform cells of (0, 1) (the cells of D(p))."""
    return np.arange(k0, k1 + 1, dtype=np.float64) * 2.0 ** -p


def exact_sum(values) -> float:
    """``math.fsum`` of the float64 values, bit for bit: their exact sum,
    correctly rounded once; the one-chunk call of :func:`exact_sum_chunks`."""
    return exact_sum_chunks((values,))


def exact_sum_chunks(chunks) -> float:
    """``math.fsum`` of the float64 values of an iterable of arrays, read in
    turn as one sequence, bit for bit: their exact sum, correctly rounded
    once, with one chunk held at a time.

    Each value x with exponent field e splits exactly into xh, x with its
    low 26 mantissa bits cleared, and xl = x - xh.  Within one exponent bin
    every xh is a multiple of 2**(e-1049) of at most 27 bits and every xl a
    multiple of 2**(e-1075) of at most 26 bits, so ``np.bincount`` sums the
    two parts of up to 2**26 values per bin exactly in float64 (Neal's small
    superaccumulator, arXiv:1505.05571).  A chunk's values are binned in
    blocks of _SUM_BLOCK into running bins, which start afresh with every
    chunk and every _SUM_BIN_VALUES values; the nonzero bins of all chunks
    are kept, and one ``math.fsum`` over them rounds the total.  Like fsum,
    that is correctly rounded, so the two agree bit for bit.

    A chunk with a value that is not finite or has an exponent field above
    _SUM_MAX_EXPONENT goes to ``math.fsum`` whole, after the bins of the
    chunks before it and followed by the rest of the stream (its NaN, inf,
    OverflowError or ValueError is kept); a chunk whose bins are all zero
    adds its own fsum instead (its sign of zero is kept).
    """
    chunks, bins = iter(chunks), []
    for values in chunks:
        x = np.asarray(values, dtype=np.float64).reshape(-1)
        runs = []  # (2, _SUM_MAX_EXPONENT + 1) running bins of xh and xl
        for a in range(0, len(x), _SUM_BLOCK):
            if a % _SUM_BIN_VALUES == 0:
                runs.append(np.zeros((2, _SUM_MAX_EXPONENT + 1)))
            block = x[a:a + _SUM_BLOCK]
            bits = block.view(np.int64)
            e = (bits >> 52) & 0x7FF
            high = (bits & _SUM_HIGH).view(np.float64)
            high_bins = np.bincount(e, high, _SUM_MAX_EXPONENT + 1)
            if len(high_bins) > _SUM_MAX_EXPONENT + 1:  # a larger exponent field lengthens the bins
                rest = (np.asarray(c, dtype=np.float64).reshape(-1) for c in chunks)
                return math.fsum(chain(bins, x, chain.from_iterable(rest)))
            runs[-1][0] += high_bins
            runs[-1][1] += np.bincount(e, block - high, _SUM_MAX_EXPONENT + 1)
        bins += [v for run in runs for v in run[run != 0].tolist()] or [math.fsum(x)]
        values = x = block = bits = None  # the chunk is freed before the next one is built
    return math.fsum(bins)


def truncate_indices(indices: np.ndarray, p_from, p_to) -> np.ndarray:
    """Vectorized exact re-truncation of grid indices (fields) from p_from to
    p_to bits, f >> (p_from - p_to), into one new uint64 array.  Either count
    may be an array of counts that broadcasts against the indices, such as
    one count per column of index rows."""
    shift = np.subtract(p_from, p_to)
    if np.any(shift < 0):
        raise ValueError(f"cannot refine {p_from}-bit indices to {p_to} bits")
    return np.asarray(indices, dtype=np.uint64) >> shift.astype(np.uint64)


def run_blocks(n: int, rows: int, run: Callable[[list[tuple[int, int]]], None]) -> None:
    """Work rows 0..n of a batch in blocks on min(2, usable CPUs) threads
    while numpy releases the GIL: the package's one thread policy.

    ``rows`` is the caller's budget of rows in flight at once, so a block
    has max(2, rows // threads) rows; a last single row joins the block
    before it, so no block has one row unless the batch has (numpy's matmul
    rounds a one-row product differently, seen with the KL ``soft_linear``).
    ``run(blocks)`` works a list of (a, b) row ranges in order.  The usable
    CPUs are the process's affinity set where the OS has one (Linux), else
    ``os.cpu_count()``, else 1.  With two threads and two or more blocks,
    the calling thread runs every other block from the first on and one
    pool thread, made for this call and joined before it returns, runs the
    rest; a batch of one block starts no thread.  (Each thread's ``run``
    gets its whole list, so it can reuse one buffer for its blocks; and a
    thread keeps its freed blocks in its own malloc arena, so the caller
    works rather than waits: an idle caller beside a pool of two raised the
    peak RSS of a level-13 ``plain_mc`` by 10%.)  An exception raised in
    any block propagates.  The values do not depend on the threads as long
    as ``run`` writes each block's results where no other block writes and
    reduces nothing across blocks.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = min(2, cpus)
    step = max(2, rows // threads)
    bounds = [0, n] if n <= step else [*range(0, n - 1, step), n]
    blocks = list(zip(bounds, bounds[1:]))
    if threads == 1 or len(blocks) < 2:
        run(blocks)
        return
    with ThreadPoolExecutor(1) as pool:
        other = pool.submit(run, blocks[1::2])
        run(blocks[::2])
        other.result()


@dataclass
class BitAllocation:
    """Per-coefficient bit counts p = (p_1, ..., p_m), read-only: m is the
    dimension of a sample and :attr:`total` its cost |p| in bits.  Counts are
    integers in [1, MAX_BITS]; integral floats (``np.ceil`` output) count."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or len(counts) == 0:
            raise ValueError("allocation must be a non-empty 1-d sequence")
        if not (np.all(counts == np.floor(counts)) and 1 <= counts.min() and counts.max() <= MAX_BITS):
            raise ValueError(f"bit counts must be integers in [1, {MAX_BITS}]")  # NaN fails ==
        self.counts = counts.astype(np.int64)
        self.counts.flags.writeable = False

    @cached_property
    def runs(self) -> list[tuple[int, int, int]]:
        """Maximal runs of equal bit counts, left to right, as (start, stop, p) triples."""
        bounds = [0, *(np.flatnonzero(np.diff(self.counts)) + 1), len(self.counts)]
        return [(int(a), int(b), int(self.counts[a])) for a, b in zip(bounds, bounds[1:])]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __len__(self) -> int:
        return len(self.counts)


@dataclass
class CostLedger:
    """Run cost counters: random bits, functional-oracle cost, coefficient ops.

    ``oracle_cost`` follows the variable-subspace model: each functional
    evaluation at a point of the n-dimensional subspace costs n.
    ``coeff_ops`` counts generated/derived coefficients as a unit-cost
    arithmetic proxy; it is reported separately and never mixed into
    ``oracle_cost``.
    """

    bits: int = 0
    oracle_cost: int = 0
    coeff_ops: int = 0
