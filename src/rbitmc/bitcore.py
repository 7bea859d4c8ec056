"""Counted random-bit generation and dyadic-grid utilities.

Every sampler in this package obtains its randomness exclusively through a
:class:`BitSource`, which hands out independent fair bits and counts them.
The dyadic midpoint grid

    D(p) = { k * 2**-p - 2**-(p+1) : k = 1, ..., 2**p }

is the set of p-bit values in [0, 1), shifted by half a cell so that it is
symmetric about 1/2.  A value of D(p) is kept as its 1-based cell index k;
re-truncating it to a coarser grid is the exact integer shift of
:func:`truncate_indices`.  Truncations to decreasing precision nest, which is
what makes coupled coarse/fine sampling possible downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

MAX_BITS = 63  # grid index must fit one machine word
MAX_LEVEL = 25  # a level's dimension is at most 2**MAX_LEVEL (bridge and KL alike)
_GATHER_MIN_BITS = 1 << 15  # draws this long at 4 < p <= 52 gather rather than unpack
_RAW_CHUNK = 1 << 16  # words per random_raw call of take_words: a draw holds its words once


def _check_precision(p: int) -> None:
    if not isinstance(p, (int, np.integer)) or p < 1 or p > MAX_BITS:
        raise ValueError(f"bit count p must be an integer in [1, {MAX_BITS}], got {p!r}")


class BitSource:
    """Counted stream of independent fair bits with deterministic seeding.

    Bits are the 64-bit output words of a PCG64 generator (period 2**128),
    read straight from ``PCG64(seed).random_raw`` and consumed
    most-significant-first, so the leading bits of any multi-bit draw
    coincide with what a coarser draw from the same stream position would
    have returned.  :meth:`take_words` is the draw of every batch sampler
    (through :func:`gausskl.sample_rows`); :meth:`draw_bits` draws single
    values and is the scalar oracle the tests hold the batch draws against.

    A BitSource is single-owner: parallel replications should each construct
    their own source, e.g. via :func:`child_source`.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.bits_drawn = 0
        self._raw = np.random.PCG64(self.seed).random_raw
        self._partial = 0  # unconsumed bits of the current word, right-aligned
        self._avail = 0

    def draw_bits(self, p: int) -> int:
        """Return p fresh bits packed as an integer in [0, 2**p)."""
        _check_precision(p)
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
        :func:`gausskl.sample_rows`.  A count n that is negative or not an
        integer is refused by :meth:`take_words`.
        """
        _check_precision(p)
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
        if not isinstance(total, (int, np.integer)) or total < 0:
            raise ValueError(f"bit count must be a non-negative integer, got {total!r}")
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
    sampled expansion are read by :func:`gausskl.decode_rows` as bytes
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
    field j % (8/p) of byte j // (8/p), so the 1-based grid indices of the
    values are ``byte_fields(p)[codes].reshape(-1)[:n]``; the bits of the
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


_BYTE_PRECISIONS = (1, 2, 4, 8)


@cache
def byte_fields(p: int) -> np.ndarray:
    """(256, 8/p) uint64 table whose row b holds the 1-based grid indices
    of the p-bit fields of byte b (each field plus one), most significant
    first, for p in {1, 2, 4, 8}; built once per p, read-only.
    """
    if p not in _BYTE_PRECISIONS:
        raise ValueError(f"byte tables need p in {_BYTE_PRECISIONS}, got {p!r}")
    shifts = np.arange(8 - p, -1, -p, dtype=np.uint64)
    fields = (np.arange(256, dtype=np.uint64)[:, np.newaxis] >> shifts) & np.uint64((1 << p) - 1)
    table = fields + np.uint64(1)
    table.flags.writeable = False  # shared by every caller
    return table


def child_source(base_seed: int, *key: int) -> BitSource:
    """Independently seeded source for replication ``key`` of ``base_seed``.

    The derivation is SeedSequence(base_seed, spawn_key=key); the resulting
    64-bit seed is deterministic across platforms.
    """
    ss = np.random.SeedSequence(int(base_seed), spawn_key=tuple(int(k) for k in key))
    return BitSource(int(ss.generate_state(1, np.uint64)[0]))


def dyadic_values(indices: np.ndarray, p: int) -> np.ndarray:
    """Float midpoint values for an array of 1-based grid indices."""
    return (2.0 * np.asarray(indices, dtype=np.float64) - 1.0) * 2.0 ** -(p + 1)


def dyadic_edges(k0: int, k1: int, p: int) -> np.ndarray:
    """Edges k * 2**-p, k = k0..k1, of the 2**p uniform cells of (0, 1) (the cells of D(p))."""
    return np.arange(k0, k1 + 1, dtype=np.float64) * 2.0 ** -p


def truncate_indices(indices: np.ndarray, p_from, p_to) -> np.ndarray:
    """Vectorized exact re-truncation of 1-based grid indices from p_from to
    p_to bits, ((i - 1) >> (p_from - p_to)) + 1, into one new uint64 array.
    Either count may be an array of counts that broadcasts against the
    indices, such as one count per column of index rows."""
    shift = np.subtract(p_from, p_to)
    if np.any(shift < 0):
        raise ValueError(f"cannot refine {p_from}-bit indices to {p_to} bits")
    one = np.uint64(1)
    out = np.asarray(indices, dtype=np.uint64) - one
    out >>= shift.astype(np.uint64)
    out += one
    return out


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
