"""Gaussian measures on a separable Hilbert space in Karhunen-Loeve
coordinates, with polynomially decaying eigenvalues

    lambda_i = i**-beta * ln(i+1)**-alpha,        beta > 1,

or an explicit spectrum that declares such rates (beta, alpha), a
per-coordinate bit allocation that equalizes the contributions of the
coefficient errors, coupled coarse/fine sampling of any Gaussian expansion
(:func:`sample_rows`, :func:`coarsen_rows`; the bridge uses it too), and
the exact mean-square error of the truncated random-bit expansion.

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

from .bitcore import MAX_BITS, MAX_LEVEL, BitAllocation, BitSource, byte_fields, read_bytes, read_fields, truncate_indices
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
    explicit eigenvalue that is negative or not finite raises ValueError
    naming its index.
    """

    beta: float
    alpha: float
    explicit: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        for name, value in (("beta", self.beta), ("alpha", self.alpha)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.beta > 1.0:
            raise ValueError(f"beta must exceed 1 for summability, got {self.beta!r}")

    def eigenvalues(self, i) -> np.ndarray:
        i_arr = np.asarray(i, dtype=np.float64)
        if self.explicit is None:
            return i_arr ** -self.beta * np.log(i_arr + 1.0) ** -self.alpha
        lam = np.asarray(self.explicit(i_arr), dtype=np.float64)
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
    by :class:`BitAllocation`, and m above 2**MAX_LEVEL
    (:data:`bitcore.MAX_LEVEL`) raises CapacityError before anything is
    built.  ptilde is evaluated _ALLOC_BLOCK indices at a time into one byte
    per count, so the float temporaries stay small and the counts take 9
    bytes each at the peak (with their int64 copy).
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
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
    """n expansion rows under ``alloc``, held as the stream bits that encode
    them: bits ``start`` on of ``words`` (:meth:`BitSource.take_words`), in
    the draw order of :func:`sample_rows`.  That is n |alloc| / 8 bytes,
    where the decoded rows take 8 bytes per coefficient.
    """

    words: np.ndarray
    start: int
    n: int
    alloc: BitAllocation


def draw_rows(src: BitSource, alloc: BitAllocation, n: int) -> DrawnRows:
    """Draw n rows under ``alloc``; consumes exactly n * |alloc| bits and
    decodes none of them (:func:`decode_rows`)."""
    words, start = src.take_words(n * alloc.total)
    return DrawnRows(words, start, n, alloc)


def decode_rows(drawn: DrawnRows, a: int, b: int, scale: Optional[np.ndarray] = None,
                width: int = 0, out: Optional[np.ndarray] = None) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Rows a..b (b exclusive) of ``drawn``: (coefficient rows, into ``out``
    when given; index rows of the first ``width`` columns, None for width 0).

    Coefficient i is scale[i] times the p_i-bit grid normal at its retained
    (1-based) index; ``scale=None`` means unit scale.  Each run's fields are
    read once.  A run at p in {1, 2, 4, 8}, the stream format, looks its
    stream bytes up in the (256, 8/p) tables
    :func:`normal.grid_normal_byte_table` and :func:`bitcore.byte_fields`
    with ``np.take``; the fields of all other runs go through one
    :func:`normal.grid_normal_runs` call for the block (at most one
    ``phi_inv`` call).  Every block of rows gives the values of the whole
    batch.
    """
    nb = b - a
    coeffs = np.empty((nb, len(drawn.alloc)), dtype=np.float64) if out is None else out
    idx = np.empty((nb, width), dtype=np.uint64) if width else None
    cols, pairs = [], []  # columns and (fields, p) of the runs that are not byte runs
    pos = drawn.start
    for c0, c1, p in drawn.alloc.runs:
        w, k = c1 - c0, min(c1, width) - c0  # run width, index columns wanted from it
        at = pos + a * w * p
        pos += drawn.n * w * p
        if 8 % p == 0:
            codes = read_bytes(drawn.words, at, p, nb * w).astype(np.intp)
            coeffs[:, c0:c1] = np.take(grid_normal_byte_table(p), codes, axis=0).reshape(-1)[:nb * w].reshape(nb, w)
            if k > 0:
                idx[:, c0:c0 + k] = np.take(byte_fields(p), codes, axis=0).reshape(-1)[:nb * w].reshape(nb, w)[:, :k]
            continue
        fields = read_fields(drawn.words, at, p, nb * w).reshape(nb, w) + np.uint64(1)
        cols.append((c0, c1))
        pairs.append((fields, p))
        if k > 0:
            idx[:, c0:c0 + k] = fields[:, :k]
    for (c0, c1), values in zip(cols, grid_normal_runs(pairs)):
        coeffs[:, c0:c1] = values
    if scale is not None:
        coeffs *= scale
    return coeffs, idx


def sample_rows(src: BitSource, alloc: BitAllocation, n: int,
                scale: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw n expansion rows under ``alloc``: (coefficient rows, index rows).

    Draw order: bits are drawn run by run over the maximal runs of equal bit
    count in ``alloc.counts``, left to right; each run is n * (run length)
    p-bit values filling the run's columns row by row.  Exactly n * |alloc|
    bits are consumed.  The stream is taken once (:func:`draw_rows`) and
    rows 0..n decoded from it (:func:`decode_rows`), so the (n, len(alloc))
    rows are held in memory: callers that need only blocks of rows keep the
    :class:`DrawnRows` and decode those.  The (n, len(alloc)) uint64 index
    rows are built too; callers that need only the coefficients drop them.
    A ``scale`` that is not one value per coefficient is refused before the
    draw.
    """
    _check_scale(scale, alloc)
    return decode_rows(draw_rows(src, alloc, n), 0, n, scale, len(alloc))


def coarsen_rows(idx_rows: np.ndarray, fine: BitAllocation, coarse: BitAllocation,
                 scale: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Coupled coarse rows of sampled index rows: (coefficient rows, index rows).

    The coarse sample keeps the first len(coarse) coordinates and re-truncates
    each retained index from fine to coarse bits; no bits are drawn.  The
    indices are re-truncated in one :func:`bitcore.truncate_indices` call
    with a count per column, and the coefficients of all runs of
    ``coarse.runs`` (computed once per allocation) come from one
    :func:`normal.grid_normal_runs` call (at most one ``phi_inv`` call).
    Raises InternalInvariantError when ``coarse`` is not nested in ``fine``,
    and ValueError for index rows narrower than ``coarse``, holding an
    index outside 1..2**p of its fine count p, or a ``scale`` that is not
    one value per coarse coefficient.
    """
    m2 = len(coarse)
    _check_scale(scale, coarse)
    if m2 > len(fine):
        raise ValueError("coarse dimension exceeds fine dimension")
    pf, pc = fine.counts[:m2], coarse.counts
    if np.any(pc > pf):
        bad = int(np.flatnonzero(pc > pf)[0])
        raise InternalInvariantError(
            f"allocation not nested at coordinate {bad + 1}: "
            f"coarse p={int(pc[bad])} > fine p={int(pf[bad])}")
    rows = np.atleast_2d(idx_rows)
    if rows.shape[1] < m2:
        raise ValueError(f"index rows have {rows.shape[1]} columns, fewer than the {m2} coarse coordinates")
    _check_indices(rows[:, :m2], pf)
    idx = truncate_indices(rows[:, :m2], pf, pc)
    coeffs = np.empty((rows.shape[0], m2), dtype=np.float64)
    for (a, b, _), values in zip(coarse.runs, grid_normal_runs([(idx[:, a:b], p) for a, b, p in coarse.runs])):
        coeffs[:, a:b] = values
    if scale is not None:
        coeffs *= scale
    return coeffs, idx


def _check_scale(scale: Optional[np.ndarray], alloc: BitAllocation) -> None:
    """Refuse a ``scale`` that is not None or one value per coefficient of ``alloc``."""
    if scale is not None and np.shape(scale) != (len(alloc),):
        raise ValueError(f"scale must hold {len(alloc)} values, one per coefficient, got shape {np.shape(scale)}")


def _check_indices(rows: np.ndarray, p: np.ndarray) -> None:
    """Refuse an index outside 1..2**p_j in column j of the index rows; only
    the minimum of all rows and the maximum of each column are taken (1, a
    valid index, when there is no row)."""
    lo, hi = rows.min(initial=1), rows.max(axis=0, initial=1)
    over = hi > np.uint64(1) << p.astype(np.uint64)
    if lo < 1 or over.any():
        j = int(np.argmax((rows == lo).any(axis=0) if lo < 1 else over))
        value = lo if lo < 1 else hi[j]
        raise ValueError(f"index {value} in column {j + 1} is outside 1..2**{p[j]} of its {p[j]}-bit count")


def tail_sum(m: int, spec: EigenSpec) -> tuple[float, float]:
    """Certified interval for sum_{i > m} lambda_i.

    Direct summation proceeds until the next eigenvalue falls below
    ``_TAIL_REL_INCREMENT`` times the partial tail; the remainder is bracketed by
    the integral comparison  int_{M+1}^inf  <=  rest  <=  f(M+1) + int_{M+1}^inf,
    valid once the eigenvalue sequence is decreasing.

    Raises ValueError when the eigenvalues still rise _TAIL_EXTEND terms past
    M, or when quadrature cannot certify the (e.g. divergent) tail integral.
    """
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
