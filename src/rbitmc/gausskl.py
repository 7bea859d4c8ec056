"""Gaussian measures on a separable Hilbert space in Karhunen-Loeve
coordinates, with polynomially decaying eigenvalues

    lambda_i = i**-beta * ln(i+1)**-alpha,        beta > 1,

or an explicit spectrum that declares such rates (beta, alpha), a
per-coordinate bit allocation that equalizes the contributions of the
coefficient errors, coupled coarse/fine sampling of any Gaussian expansion
(:func:`sample_rows`, :func:`coarsen_rows`), and the exact mean-square
error of the truncated random-bit expansion.

The shifted logarithm ln(i+1) replaces ln(i) in the analytic eigenvalue
model so that i = 1 is regular; the decay condition is asymptotic, so any
fixed finite prefix modification is admissible.  The Hilbert space never
appears explicitly: elements are represented by their coordinate vectors in
the (orthonormal) eigenbasis, hence ||x||^2 = sum_i coeffs_i**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bitcore import (MAX_BITS, MAX_LEVEL, BitAllocation, BitSource, _StreamDraw, byte_fields, byte_lookup, check_count,
                      check_finite, read_bytes, read_fields, truncate_indices)
from .errors import CapacityError, InternalInvariantError
from .normal import checked_quad, coefficient_error_sq, grid_normal_byte_table, grid_normal_runs
# grid_normal_values: unused, kept for perfbench/selftest.py
from .normal import grid_normal_values  # noqa: F401

_TAIL_EXTEND = 4096  # terms tail_sum looks past M for the eigenvalues to stop rising
_TAIL_REL_INCREMENT = 1e-6  # tail_sum sums directly until a term falls below this share
_ALLOC_BLOCK = 1 << 16  # indices allocation_kl evaluates ptilde at in one go


@dataclass
class EigenSpec:
    """Eigenvalue model of the covariance operator with decay rates
    (beta, alpha), finite and beta > 1.

    The eigenvalues are lambda_i = i**-beta * ln(i+1)**-alpha, or, when
    ``explicit`` is given, the values of that vectorized eigenvalue
    function (any constant factor goes there), whose decay the declared
    rates state.  The bit allocation and the MLMC schedule read only the
    rates; the scales, the error and its tail read the eigenvalues.  An
    explicit result that is not one value per index, and an explicit
    eigenvalue that is negative or not finite, raise ValueError naming the
    shapes or the index.
    """

    beta: float
    alpha: float
    explicit: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        check_finite(beta=self.beta, alpha=self.alpha)
        if not self.beta > 1.0:
            raise ValueError(f"beta must exceed 1 for summability, got {self.beta!r}")

    def eigenvalues(self, i) -> np.ndarray:
        i_arr = np.asarray(i, dtype=np.float64)
        if self.explicit is None:
            return i_arr ** -self.beta * np.log(i_arr + 1.0) ** -self.alpha
        lam = np.asarray(self.explicit(i_arr), dtype=np.float64)
        if lam.shape != i_arr.shape:
            raise ValueError(f"explicit eigenvalues have shape {lam.shape}, not the shape {i_arr.shape} of their indices")
        bad = ~(np.isfinite(lam) & (lam >= 0.0))
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise ValueError(f"explicit eigenvalue at i = {np.ravel(i_arr)[j]:g} is {float(np.ravel(lam)[j])!r}; "
                             "eigenvalues must be finite and non-negative")
        return lam


def allocation_kl(m: int, spec: EigenSpec) -> BitAllocation:
    """Bit counts p_i = ceil(max(ptilde_i, 1)) with

    ptilde_i = beta*log2(m/i) + max(alpha,0)*log2(log2(m+1)/log2(i+1)),

    the paper's rule on the declared rates of ``spec``, explicit or not: it
    reads no eigenvalue.  Counts above :data:`bitcore.MAX_BITS` are refused
    by :class:`BitAllocation`; an m that is not a positive integer raises
    ValueError, and m above 2**MAX_LEVEL (:data:`bitcore.MAX_LEVEL`)
    CapacityError, before anything is built.  ptilde is evaluated
    _ALLOC_BLOCK indices at a time into one byte per count, so the float
    temporaries stay small and the counts take 9 bytes each at the peak
    (with their int64 copy).
    """
    check_count("m", m, 1)
    if m > 1 << MAX_LEVEL:
        raise CapacityError(f"KL allocation capped at m = 2**{MAX_LEVEL}, got {m}")
    counts = np.empty(m, dtype=np.uint8)
    for a in range(0, m, _ALLOC_BLOCK):
        b = min(a + _ALLOC_BLOCK, m)
        counts[a:b] = _bit_counts(a, b, m, spec)
    return BitAllocation(counts)


def _bit_counts(a: int, b: int, m: int, spec: EigenSpec) -> np.ndarray:
    """ceil(max(ptilde_i, 1)) of :func:`allocation_kl` for i = a+1..b, with a
    count above MAX_BITS given as MAX_BITS + 1, which BitAllocation refuses."""
    i = np.arange(a + 1, b + 1, dtype=np.float64)
    ptilde = spec.beta * np.log2(m / i)
    if spec.alpha > 0.0:
        ptilde = ptilde + spec.alpha * np.log2(np.log2(m + 1.0) / np.log2(i + 1.0))
    return np.minimum(np.ceil(np.maximum(ptilde, 1.0)), MAX_BITS + 1)


@dataclass
class KLRows:
    """A batch of KL vectors as coefficient rows, for the functionals: the
    norm of each row and its inner products with the eigenvectors."""

    coeffs: np.ndarray

    def norm(self) -> np.ndarray:
        return np.sqrt(np.einsum("ij,ij->i", self.coeffs, self.coeffs))

    def linear(self, w) -> np.ndarray:
        """<x, sum_j w_j e_j>, j = 1..len(w): the weighted sum of the first
        coordinates; weights beyond the row's dimension meet zeros."""
        k = min(len(w), self.coeffs.shape[1])
        return self.coeffs[:, :k] @ np.asarray(w, dtype=np.float64)[:k]


@dataclass(eq=False)
class DrawnRows:
    """n expansion rows under ``alloc``, held as their place in the stream,
    ``stream`` (:meth:`BitSource._draw`), in the draw order of
    :func:`sample_rows`: a generator state and a few ints, where the words
    that encode the rows take n |alloc| / 8 bytes.  :func:`read_runs`
    generates the words of the rows it reads, so a sampler holds only the
    blocks it decodes.
    """

    stream: _StreamDraw
    n: int
    alloc: BitAllocation


def draw_rows(src: BitSource, alloc: BitAllocation, n: int) -> DrawnRows:
    """Draw n rows under ``alloc``; advances the stream by exactly n * |alloc|
    bits and neither generates nor decodes any of them (:func:`read_runs`
    does).  An n that is not a non-negative integer raises ValueError before
    the stream moves."""
    check_count("row count n", n, 0)
    return DrawnRows(src._draw(n * alloc.total), n, alloc)


def read_runs(drawn: DrawnRows, a: int, b: int) -> list[tuple[int, int, int, np.ndarray]]:
    """Rows a..b of ``drawn`` run by run, in the layout of :func:`sample_rows`:
    one (c0, c1, p, data) per run (c0, c1, p) of ``drawn.alloc``, left to
    right.

    ``data`` holds the run's bits of rows a..b: their stream bytes at p in
    {1, 2, 4, 8} (the uint8 codes of :func:`bitcore.read_bytes`, whose
    values :func:`bitcore.byte_lookup` finds), their (b - a, c1 - c0) uint64
    p-bit fields at every other p.  This is the one reader of the run
    layout, and one read of a block feeds all its decodes: its coefficient
    rows (:class:`RunDecoder`, :func:`sample_rows`), the bridge's node rows
    (:func:`bridge.nodes_from_drawn`) and the coarse rows of a coupled
    level (:meth:`mlmc.ExpansionModel.coarsen_rows`).

    Only the words read are generated, by the calling thread's own
    generator (:meth:`bitcore._StreamDraw.words`): a read of the whole draw
    (a = 0, b = n) generates all of them with one ``random_raw`` call, any
    other read generates each run's words of rows a..b with one
    ``advance`` and one ``random_raw`` (:meth:`bitcore._StreamDraw.window`).
    The words are the stream's, so the data do not depend on the blocks,
    their order or the thread.  A row range outside 0 <= a <= b <= drawn.n
    raises ValueError before any word is generated.
    """
    check_count("row start a", a, 0, drawn.n)
    check_count("row stop b", b, a, drawn.n)
    nb, pos, runs, stream = b - a, 0, [], drawn.stream
    whole = nb == drawn.n  # a = 0 and b = n: one generation for every run
    if whole:
        words, start = stream.window(0, drawn.n * drawn.alloc.total)
    for c0, c1, p in drawn.alloc.runs:
        w = c1 - c0
        at = pos + a * w * p
        pos += drawn.n * w * p
        held, s = (words, start + at) if whole else stream.window(at, at + nb * w * p)
        if 8 % p == 0:
            data = read_bytes(held, s, p, nb * w)
        else:
            data = read_fields(held, s, p, nb * w).reshape(nb, w)
        runs.append((c0, c1, p, data))
    return runs


def _index_rows(runs: list, nb: int) -> np.ndarray:
    """The (nb, dim) uint64 index rows of the runs :func:`read_runs` read,
    every column: the p-bit fields of each run, looked up in
    :func:`bitcore.byte_fields` for a byte run."""
    idx = np.empty((nb, runs[-1][1]), dtype=np.uint64)
    for c0, c1, p, data in runs:
        idx[:, c0:c1] = byte_lookup(byte_fields(p), data, nb, c1 - c0) if data.ndim == 1 else data
    return idx


class RunDecoder:
    """The coefficient rows of a ``coarse`` allocation decoded straight from
    the runs of rows drawn under ``fine`` (:func:`read_runs`), with no index
    rows: coefficient j is the q_j-bit grid normal at the top q_j bits of
    its p_j-bit field, which is the re-truncation f >> (p_j - q_j) of
    :func:`bitcore.truncate_indices`.  With ``coarse`` = ``fine`` it is the
    decode of the rows themselves (:func:`sample_rows`).

    Built once per pair of allocations: the nesting of ``coarse`` in
    ``fine`` is checked, and the columns of ``coarse`` are cut into
    segments, each inside one fine run and one coarse run: columns c0..c1
    take the top q bits of the p-bit fields in columns j..j + c1 - c0 of
    fine run k, which is w columns wide.  Calling it decodes a block of nb
    rows: a run held as stream bytes (1-d uint8 codes) looks them up in the
    (256, 8/p) table ``grid_normal_byte_table(p, q)``, and the (nb, w)
    fields of every other run, shifted by p - q, go through one
    :func:`normal.grid_normal_runs` call per block (at most one ``phi_inv``
    call); the rows are then multiplied by ``scale`` when given, and written
    to ``out`` when given.  This is the one coarse decoder: the MLMC models
    (:meth:`mlmc.ExpansionModel.coarsen_rows`), the strong-error
    experiment's q-bit increments and :func:`coarsen_rows` on index rows
    all decode through it.  A ``coarse`` longer than ``fine`` raises
    ValueError, and a coarse count above its fine count
    InternalInvariantError, before any value is built.
    """

    def __init__(self, fine: BitAllocation, coarse: BitAllocation):
        m2 = len(coarse)
        if m2 > len(fine):
            raise ValueError("coarse dimension exceeds fine dimension")
        pf, pc = fine.counts[:m2], coarse.counts
        if np.any(pc > pf):
            bad = int(np.flatnonzero(pc > pf)[0])
            raise InternalInvariantError(
                f"allocation not nested at coordinate {bad + 1}: "
                f"coarse p={int(pc[bad])} > fine p={int(pf[bad])}")
        self.width = m2
        cuts = sorted({c for c0, c1, _ in (*fine.runs, *coarse.runs) for c in (c0, c1) if c < m2} | {m2})
        self._segments, k = [], 0
        for c0, c1 in zip(cuts, cuts[1:]):
            while fine.runs[k][1] <= c0:
                k += 1
            f0, f1, p = fine.runs[k]
            q = int(pc[c0])
            self._segments.append((c0, c1, k, c0 - f0, f1 - f0, np.uint64(p - q) if q < p else None, q,
                                   grid_normal_byte_table(p, q) if 8 % p == 0 else None))

    def __call__(self, runs: list, nb: int, scale: Optional[np.ndarray] = None,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        coeffs = np.empty((nb, self.width), dtype=np.float64) if out is None else out
        cols, pairs = [], []  # columns and (fields, q) of the segments that are not byte runs
        for c0, c1, k, j, w, shift, q, table in self._segments:
            data = runs[k][3]
            if data.ndim == 1:  # stream bytes
                coeffs[:, c0:c1] = byte_lookup(table, data, nb, w)[:, j:j + c1 - c0]
            else:
                fields = data[:, j:j + c1 - c0]
                cols.append((c0, c1))
                pairs.append((fields if shift is None else fields >> shift, q))
        for (c0, c1), values in zip(cols, grid_normal_runs(pairs)):
            coeffs[:, c0:c1] = values
        if scale is not None:
            coeffs *= scale
        return coeffs


def sample_rows(src: BitSource, alloc: BitAllocation, n: int,
                scale: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw n expansion rows under ``alloc``: (coefficient rows, index rows).

    Draw order: bits are drawn run by run over the maximal runs of equal bit
    count in ``alloc.counts``, left to right; each run is n * (run length)
    p-bit values filling the run's columns row by row.  Exactly n * |alloc|
    bits are consumed.  The stream is taken once (:func:`draw_rows`), its
    runs are read once (:func:`read_runs`), and rows 0..n are decoded from
    them by the :class:`RunDecoder` of ``alloc`` onto itself, so the
    (n, len(alloc)) rows are held in memory: callers that need only blocks
    of rows keep the :class:`DrawnRows` and decode those.  The
    (n, len(alloc)) uint64 index rows are the fields of the same runs;
    callers that need only the coefficients decode the runs themselves.
    A ``scale`` that is not one value per coefficient, and a row count n
    that is not a non-negative integer, are refused before the draw.
    """
    _check_scale(scale, alloc)
    runs = read_runs(draw_rows(src, alloc, n), 0, n)
    return RunDecoder(alloc, alloc)(runs, n, scale), _index_rows(runs, n)


def coarsen_rows(idx_rows: np.ndarray, fine: BitAllocation, coarse: BitAllocation,
                 scale: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Coupled coarse rows of sampled index rows: (coefficient rows, index rows).

    The coarse sample keeps the first len(coarse) coordinates and re-truncates
    each retained index from fine to coarse bits; no bits are drawn.  The
    coefficients come from the :class:`RunDecoder` of (``fine``, ``coarse``),
    to which the index rows pass as the fields of the fine runs, and the
    coarse index rows from one :func:`bitcore.truncate_indices` call with a
    count per column.  Raises InternalInvariantError when ``coarse`` is not
    nested in ``fine``, and ValueError for index rows that are not integers,
    are narrower than ``coarse`` or hold a field outside 0..2**p - 1 of its
    fine count p, or a ``scale`` that is not one value per coarse
    coefficient.  Samplers that hold the stream bits of their rows decode
    the coarse rows from those instead, with no index rows
    (:meth:`mlmc.ExpansionModel.coarsen_rows`).
    """
    m2 = len(coarse)
    _check_scale(scale, coarse)
    decode = RunDecoder(fine, coarse)
    rows = np.atleast_2d(idx_rows)
    if rows.shape[1] < m2:
        raise ValueError(f"index rows have {rows.shape[1]} columns, fewer than the {m2} coarse coordinates")
    pf = fine.counts[:m2]
    _check_indices(rows[:, :m2], pf)
    rows = rows[:, :m2].astype(np.uint64, copy=False)
    coeffs = decode([(c0, c1, p, rows[:, c0:c1]) for c0, c1, p in fine.runs if c0 < m2], rows.shape[0], scale)
    return coeffs, truncate_indices(rows, pf, coarse.counts)


def _check_scale(scale: Optional[np.ndarray], alloc: BitAllocation) -> None:
    """Refuse a ``scale`` that is not None or one value per coefficient of ``alloc``."""
    if scale is not None and np.shape(scale) != (len(alloc),):
        raise ValueError(f"scale must hold {len(alloc)} values, one per coefficient, got shape {np.shape(scale)}")


def _check_indices(rows: np.ndarray, p: np.ndarray) -> None:
    """Refuse index rows that are not integers, or that hold a field outside
    0..2**p_j - 1 in column j; only the minimum of all rows and the maximum
    of each column are taken (0, a valid field, when there is no row)."""
    if rows.dtype.kind not in "iu":
        raise ValueError(f"index rows must hold integer fields, got dtype {rows.dtype}")
    lo, hi = rows.min(initial=0), rows.max(axis=0, initial=0)
    over = hi >= np.uint64(1) << p.astype(np.uint64)
    if lo < 0 or over.any():
        j = int(np.argmax((rows == lo).any(axis=0) if lo < 0 else over))
        value = lo if lo < 0 else hi[j]
        raise ValueError(f"index {value} in column {j + 1} is outside 0..2**{p[j]} - 1 of its {p[j]}-bit count")


def tail_sum(m: int, spec: EigenSpec) -> tuple[float, float]:
    """Certified interval for sum_{i > m} lambda_i.

    Direct summation proceeds until the next eigenvalue falls below
    ``_TAIL_REL_INCREMENT`` times the partial tail; the remainder is bracketed by
    the integral comparison  int_{M+1}^inf  <=  rest  <=  f(M+1) + int_{M+1}^inf,
    valid once the eigenvalue sequence is decreasing.

    Raises ValueError when the eigenvalues still rise _TAIL_EXTEND terms past
    M, or when quadrature cannot certify the (e.g. divergent) tail integral,
    and a count m that is not a non-negative integer before any eigenvalue
    is read.
    """
    check_count("m", m, 0)
    f = spec.eigenvalues
    partial = 0.0
    big_m = m
    chunk = max(1024, m)
    while True:
        i = np.arange(big_m + 1, big_m + chunk + 1, dtype=np.float64)
        vals = f(i)
        partial += float(np.sum(vals))
        big_m += chunk
        if vals[-1] <= _TAIL_REL_INCREMENT * partial:
            break
        if big_m > 1 << 26:
            break
        chunk *= 2
    # extend past any non-monotone prefix before the integral bound applies
    ext = f(np.arange(big_m, big_m + _TAIL_EXTEND + 1, dtype=np.float64))
    rising = ext[1:] > ext[:-1]
    if rising.all():
        raise ValueError(f"eigenvalues still increasing at i = {big_m + _TAIL_EXTEND}; "
                         "tail_sum needs an eventually decreasing spectrum")
    steps = int(np.argmin(rising))
    for v in ext[1:steps + 1]:
        partial += float(v)
    big_m += steps
    # int_{M+1}^inf f(x) dx via x = 1/u, finite interval and regular integrand
    lo_u = 1.0 / (big_m + 1.0)
    integral = checked_quad(lambda u: float(f(np.array([1.0 / u]))[0]) / (u * u), 0.0, lo_u,
                            (big_m + 1.0, math.inf), epsabs=0.0, epsrel=1e-10, limit=400)
    first = float(f(np.array([big_m + 1.0]))[0])
    return partial + integral, partial + integral + first


def _kl_error_parts(m: int, spec: EigenSpec, allocation: Optional[BitAllocation]):
    """(coefficient-error sum over i <= m, tail_sum interval) of kl_error_sq,
    under the override ``allocation`` once its length is checked against m,
    else under :func:`allocation_kl`."""
    alloc = allocation_kl(m, spec) if allocation is None else allocation
    if len(alloc) != m:
        raise ValueError("allocation length must equal m")
    lam = spec.eigenvalues(np.arange(1, m + 1))
    head = coefficient_error_sq((p, lam[a:b].sum()) for a, b, p in alloc.runs)
    return head, tail_sum(m, spec)


def kl_error_sq(m: int, spec: EigenSpec,
                allocation: Optional[BitAllocation] = None) -> float:
    """Exact E || X - X^(m, p(m)) ||^2 = sum_{i<=m} mse(p_i) lambda_i + tail(m).

    Independence of the coordinates makes the identity exact; the sum is
    :func:`normal.coefficient_error_sq` with one term (p, summed
    eigenvalues) per run of equal counts, where bit counts beyond the
    exact-mse capacity take the asymptotic surrogate.  The truncation tail
    enters as the midpoint of its certified interval.
    """
    head, (lo, hi) = _kl_error_parts(m, spec, allocation)
    return head + 0.5 * (lo + hi)


def kl_error_interval(m: int, spec: EigenSpec) -> tuple[float, float]:
    """kl_error_sq with the tail's certified interval exposed."""
    head, (lo, hi) = _kl_error_parts(m, spec, None)
    return head + lo, head + hi
