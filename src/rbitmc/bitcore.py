"""Counted random-bit generation and dyadic-grid utilities.

Every sampler in this package obtains its randomness exclusively through a
:class:`BitSource`, which hands out independent fair bits and counts them.
The dyadic midpoint grid

    D(p) = { k * 2**-p - 2**-(p+1) : k = 1, ..., 2**p }

is the set of p-bit values in [0, 1), shifted by half a cell so that it is
symmetric about 1/2.  Rounding a value of [0, 1) to its cell midpoint in D(p)
is performed by :func:`truncate`; truncations to decreasing precision nest,
which is what makes coupled coarse/fine sampling possible downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

MAX_BITS = 63  # grid index must fit one machine word
_GATHER_MIN_BITS = 1 << 15  # draws this long at 4 < p <= 52 gather rather than unpack


def _check_precision(p: int) -> None:
    if not isinstance(p, (int, np.integer)) or p < 1 or p > MAX_BITS:
        raise ValueError(f"bit count p must be an integer in [1, {MAX_BITS}], got {p!r}")


@dataclass(frozen=True)
class DyadicValue:
    """Midpoint of cell ``index`` (1-based) of the p-bit dyadic grid.

    The float value is ``index * 2**-p - 2**-(p+1)``; only (index, p) is
    stored so that re-truncation is an exact integer operation.
    """

    index: int
    p: int

    def __post_init__(self):
        _check_precision(self.p)
        if not 1 <= self.index <= (1 << self.p):
            raise ValueError(f"index {self.index} outside [1, 2^{self.p}]")

    @property
    def value(self) -> float:
        return (2 * self.index - 1) * 2.0 ** -(self.p + 1)

    def truncate_to(self, p: int) -> "DyadicValue":
        """Exact re-truncation to a coarser grid (p <= self.p)."""
        if p > self.p:
            raise ValueError(f"cannot refine a {self.p}-bit value to {p} bits")
        return DyadicValue(((self.index - 1) >> (self.p - p)) + 1, p)


class BitSource:
    """Counted stream of independent fair bits with deterministic seeding.

    Bits come from the 64-bit output words of a PCG64 generator (period
    2**128) and are consumed most-significant-first, so the leading bits of
    any multi-bit draw coincide with what a coarser draw from the same
    stream position would have returned.

    A BitSource is single-owner: parallel replications should each construct
    their own source, e.g. via :func:`child_source`.
    """

    _BLOCK = 1024  # words fetched from the generator at a time

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.bits_drawn = 0
        self._gen = np.random.Generator(np.random.PCG64(self.seed))
        self._words: np.ndarray = np.empty(0, dtype=np.uint64)
        self._cursor = 0
        self._partial = 0  # unconsumed bits of the current word, right-aligned
        self._avail = 0

    def _next_words(self, n: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        out = np.empty(n, dtype=np.uint64) if out is None else out
        got = 0
        while got < n:
            if self._cursor == len(self._words):
                self._words = self._gen.integers(0, 2**64, size=self._BLOCK, dtype=np.uint64)
                self._cursor = 0
            take = min(n - got, len(self._words) - self._cursor)
            out[got:got + take] = self._words[self._cursor:self._cursor + take]
            self._cursor += take
            got += take
        return out

    def draw_bits(self, p: int) -> int:
        """Return p fresh bits packed as an integer in [0, 2**p)."""
        _check_precision(p)
        if self._avail >= p:
            self._avail -= p
            out = (self._partial >> self._avail) & ((1 << p) - 1)
            self._partial &= (1 << self._avail) - 1
        else:
            need = p - self._avail
            word = int(self._next_words(1)[0])
            out = (self._partial << need) | (word >> (64 - need))
            self._partial = word & ((1 << (64 - need)) - 1)
            self._avail = 64 - need
        self.bits_drawn += p
        return out

    def draw_bits_array(self, p: int, n: int) -> np.ndarray:
        """Draw ``n`` values of ``p`` bits each from the same bit stream.

        Equivalent to ``n`` successive :meth:`draw_bits` calls, in the same
        stream order: the words that hold the p n bits are taken
        (:meth:`take_words`, about p n / 8 bytes), then decoded whole by
        :func:`read_fields`, which holds the three paths, into n uint64
        values.  Callers that want blocks of a long draw keep the words and
        call :func:`read_fields` per block instead.
        """
        _check_precision(p)
        if n < 0:
            raise ValueError("n must be non-negative")
        return read_fields(*self.take_words(p * n), p, n)

    def draw_bytes(self, p: int, n: int) -> np.ndarray:
        """Draw ``n`` values of ``p`` bits each (p in {1, 2, 4, 8}) as the
        stream bytes that hold them: :meth:`take_words`, then
        :func:`read_bytes`.
        """
        if p not in _BYTE_PRECISIONS:
            raise ValueError(f"byte draws need p in {_BYTE_PRECISIONS}, got {p!r}")
        if n < 0:
            raise ValueError("n must be non-negative")
        return read_bytes(*self.take_words(p * n), p, n)

    def take_words(self, total: int) -> tuple[np.ndarray, int]:
        """The words that hold the next ``total`` stream bits, and the bit
        offset of the first of them; advances the stream by ``total`` bits.

        w[0] is the unconsumed partial word, right-aligned, so the stream
        starts at bit 64 - _avail of w; a zero word pads the end, as
        :func:`read_fields` and :func:`read_bytes` need.  The words hold
        ``total`` / 8 bytes plus at most 24: nothing is decoded yet.
        """
        nwords = -(-max(total - self._avail, 0) // 64)
        w = np.zeros(nwords + 2, dtype=np.uint64)
        w[0] = self._partial
        self._next_words(nwords, w[1:nwords + 1])
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
    ``words`` must hold one word past the last bit read.  Three paths give
    the same values, selected by p and n:

    - p in {1, 2, 4, 8} reads the bytes that hold the values
      (:func:`read_bytes`) and splits each byte into its 8/p fields with one
      lookup in the (256, 8/p) table :func:`byte_fields`.
    - p > 52, and reads of at least _GATHER_MIN_BITS bits at 4 < p <= 52,
      gather each value from the one or two 64-bit words it straddles, with
      no per-bit pass.
    - all other reads (p = 3, and shorter reads at 4 < p <= 52) unpack the
      words into bits and pack each row of p bits with a float matmul, exact
      up to 52 bits.  They need fewer numpy calls than the gather.  On a
      2-vCPU x86 VM the gather was 1.2-2.6x faster at 9 <= p <= 52 from
      about 2^15 bits on, 1.1-1.3x at p = 5..7 on long reads (n = 64k-2M),
      and slower at p = 3.
    """
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if 8 % p == 0:
        return byte_fields(p)[read_bytes(words, start, p, n)].reshape(-1)[:n]
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
    field j % (8/p) of byte j // (8/p), so the values are
    ``byte_fields(p)[codes].reshape(-1)[:n]``; the bits of the last byte past
    them are not defined.  When ``start`` is not on a byte boundary, the
    bytes are shifted into place with one extra pass.  Only the words that
    hold the values are converted; ``words`` must hold one word past the
    last bit read.
    """
    first, shift = divmod(start & 63, 8)
    nbytes = -(-p * n // 8)
    w = words[start >> 6:(start >> 6) + -(-(first + nbytes + 1) // 8)]
    raw = w.astype(">u8").view(np.uint8)[first:first + nbytes + 1]
    if shift:
        return (raw[:-1] << np.uint8(shift)) | (raw[1:] >> np.uint8(8 - shift))
    return raw[:-1]


_BYTE_PRECISIONS = (1, 2, 4, 8)
_BYTE_TABLES: dict[tuple[int, int], np.ndarray] = {}


def byte_fields(p: int, base: int = 0) -> np.ndarray:
    """(256, 8/p) uint64 table whose row b holds ``base`` plus the p-bit
    fields of byte b, most significant first, for p in {1, 2, 4, 8}.

    ``base=1`` gives the 1-based grid indices of the fields.
    """
    key = (p, base)
    table = _BYTE_TABLES.get(key)
    if table is None:
        if p not in _BYTE_PRECISIONS:
            raise ValueError(f"byte tables need p in {_BYTE_PRECISIONS}, got {p!r}")
        shifts = np.arange(8 - p, -1, -p, dtype=np.uint64)
        fields = (np.arange(256, dtype=np.uint64)[:, np.newaxis] >> shifts) & np.uint64((1 << p) - 1)
        table = _BYTE_TABLES[key] = fields + np.uint64(base)
        table.flags.writeable = False  # shared by every caller
    return table


def child_source(base_seed: int, *key: int) -> BitSource:
    """Independently seeded source for replication ``key`` of ``base_seed``.

    The derivation is SeedSequence(base_seed, spawn_key=key); the resulting
    64-bit seed is deterministic across platforms.
    """
    ss = np.random.SeedSequence(int(base_seed), spawn_key=tuple(int(k) for k in key))
    return BitSource(int(ss.generate_state(1, np.uint64)[0]))


def sample_dyadic_uniform(src: BitSource, p: int) -> DyadicValue:
    """Uniform draw from the p-bit midpoint grid D(p); consumes exactly p bits."""
    return DyadicValue(src.draw_bits(p) + 1, p)


def sample_dyadic_uniform_array(src: BitSource, p: int, n: int) -> np.ndarray:
    """Indices (1-based, uint64) of ``n`` uniform draws from D(p)."""
    return src.draw_bits_array(p, n) + np.uint64(1)


def dyadic_values(indices: np.ndarray, p: int) -> np.ndarray:
    """Float midpoint values for an array of 1-based grid indices."""
    return (2.0 * np.asarray(indices, dtype=np.float64) - 1.0) * 2.0 ** -(p + 1)


def truncate(u: float, p: int) -> DyadicValue:
    """Round u in [0, 1) to the midpoint of its cell in D(p)."""
    _check_precision(p)
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u!r}")
    k = int(np.floor(u * 2.0**p))
    k = min(k, (1 << p) - 1)  # guards the float rounding of u * 2**p up to 2**p
    return DyadicValue(k + 1, p)


def truncate_indices(indices: np.ndarray, p_from: int, p_to: int) -> np.ndarray:
    """Vectorized exact re-truncation of 1-based grid indices."""
    if p_to > p_from:
        raise ValueError(f"cannot refine {p_from}-bit indices to {p_to} bits")
    shift = np.uint64(p_from - p_to)
    one = np.uint64(1)
    return ((np.asarray(indices, dtype=np.uint64) - one) >> shift) + one


def equal_runs(values: np.ndarray) -> list[tuple[int, int, int]]:
    """Maximal runs of equal values, left to right, as (start, stop, value) triples."""
    bounds = [0, *(np.flatnonzero(np.diff(values)) + 1), len(values)]
    return [(int(a), int(b), int(values[a])) for a, b in zip(bounds, bounds[1:])]


@dataclass
class BitAllocation:
    """Per-coefficient bit counts p = (p_1, ..., p_m), read-only."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.array(self.counts, dtype=np.int64)
        if self.counts.ndim != 1 or len(self.counts) == 0:
            raise ValueError("allocation must be a non-empty 1-d sequence")
        if self.counts.min() < 1 or self.counts.max() > MAX_BITS:
            raise ValueError(f"bit counts must lie in [1, {MAX_BITS}]")
        self.counts.flags.writeable = False

    @cached_property
    def runs(self) -> list[tuple[int, int, int]]:
        """Maximal runs of equal bit counts as (start, stop, p) triples."""
        return equal_runs(self.counts)

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

    def add(self, other: "CostLedger") -> None:
        self.bits += other.bits
        self.oracle_cost += other.oracle_cost
        self.coeff_ops += other.coeff_ops
