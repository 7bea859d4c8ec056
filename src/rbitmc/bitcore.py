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

import numpy as np

MAX_BITS = 63  # grid index must fit one machine word


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

    def _next_words(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.uint64)
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

        Equivalent to ``n`` successive :meth:`draw_bits` calls.  Two paths
        give the same values:

        - p <= 52 unpacks whole generator words into bits and packs each
          row of p bits with a float matmul, exact up to 52 bits.  It stays
          because the gather below was up to 3x slower for single values,
          up to 6x slower for p <= 4 on long draws, and no faster on the
          short p <= 26 draws (n <= 200) of the MLMC samplers (2-vCPU x86
          VM).
        - p > 52 gathers each value from the one or two 64-bit words it
          straddles, with no per-bit pass: 8-17x faster than the per-bit
          loop it replaced, for n from 1 to 131k.
        """
        _check_precision(p)
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        if p > 52:
            self.bits_drawn += p * n
            return self._gather_words(p, n)
        total = p * n
        head = min(self._avail, total)
        head_bits = np.empty(head, dtype=np.uint8)
        for j in range(head):
            head_bits[j] = (self._partial >> (self._avail - 1 - j)) & 1
        rest = total - head
        nwords = -(-rest // 64) if rest else 0
        if nwords:
            words = self._next_words(nwords)
            word_bits = np.unpackbits(words.astype(">u8").view(np.uint8))
            bits = np.concatenate([head_bits, word_bits[:rest]])
            used = rest % 64
            if used:
                last = int(words[-1])
                self._partial = last & ((1 << (64 - used)) - 1)
                self._avail = 64 - used
            else:
                self._partial = 0
                self._avail = 0
        else:
            bits = head_bits
            self._avail -= head
            self._partial &= (1 << self._avail) - 1
        # exact in float64 up to 52 bits; the matmul is the fast path
        powers = 2.0 ** np.arange(p - 1, -1, -1)
        out = (bits.reshape(n, p).astype(np.float64) @ powers).astype(np.uint64)
        self.bits_drawn += total
        return out

    def _gather_words(self, p: int, n: int) -> np.ndarray:
        # w[0] is the unconsumed partial word, right-aligned, so the stream
        # starts at bit 64 - _avail of w; a zero word pads the end.  Value j
        # is the top p bits of the 64 stream bits from s = 64 - _avail + j*p,
        # and (x >> 1) >> (63 - r) equals x >> (64 - r) for r > 0, 0 for r = 0.
        total = p * n
        nwords = -(-max(total - self._avail, 0) // 64)
        w = np.zeros(nwords + 2, dtype=np.uint64)
        w[0] = self._partial
        w[1:nwords + 1] = self._next_words(nwords)
        s = np.arange(n, dtype=np.int64) * p + (64 - self._avail)
        q = s >> 6
        r = (s & 63).astype(np.uint64)
        lo = (w[q + 1] >> np.uint64(1)) >> (np.uint64(63) - r)
        out = ((w[q] << r) | lo) >> np.uint64(64 - p)
        self._avail += 64 * nwords - total
        self._partial = int(w[nwords]) & ((1 << self._avail) - 1)
        return out


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


@dataclass
class BitAllocation:
    """Per-coefficient bit counts p = (p_1, ..., p_m)."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1 or len(self.counts) == 0:
            raise ValueError("allocation must be a non-empty 1-d sequence")
        if self.counts.min() < 1 or self.counts.max() > MAX_BITS:
            raise ValueError(f"bit counts must lie in [1, {MAX_BITS}]")

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
