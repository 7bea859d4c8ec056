"""Gaussian measures on a separable Hilbert space in Karhunen-Loeve
coordinates, with polynomially decaying eigenvalues

    lambda_i = c * i**-beta * ln(i+1)**-alpha,        beta > 1,

a per-coordinate bit allocation that equalizes the contributions of the
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

from .bitcore import BitAllocation, BitSource, truncate_indices
from .errors import InternalInvariantError
from .normal import bit_normal_mse_extended, checked_quad, grid_normal_values

MAX_ALLOC_BITS = 63
_TAIL_EXTEND = 4096  # terms tail_sum looks past M for the eigenvalues to stop rising


@dataclass
class EigenSpec:
    """Eigenvalue model of the covariance operator.

    Analytic mode fixes lambda_i = scale * i**-beta * ln(i+1)**-alpha;
    explicit mode wraps a user-supplied vectorized eigenvalue function, for
    which the allocation formula is unavailable.
    """

    beta: float
    alpha: float
    scale: float = 1.0
    explicit: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.explicit is None and not self.beta > 1.0:
            raise ValueError("analytic mode requires beta > 1 for summability")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")

    @property
    def analytic(self) -> bool:
        return self.explicit is None

    def eigenvalues(self, i) -> np.ndarray:
        i_arr = np.asarray(i, dtype=np.float64)
        if self.explicit is not None:
            return np.asarray(self.explicit(i_arr), dtype=np.float64)
        return self.scale * i_arr ** -self.beta * np.log(i_arr + 1.0) ** -self.alpha


def allocation_kl(m: int, spec: EigenSpec) -> BitAllocation:
    """Bit counts p_i = ceil(max(ptilde_i, 1)) with

    ptilde_i = beta*log2(m/i) + max(alpha,0)*log2(log2(m+1)/log2(i+1)).
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not spec.analytic:
        raise ValueError("allocation formula requires the analytic eigenvalue mode")
    i = np.arange(1, m + 1, dtype=np.float64)
    ptilde = spec.beta * np.log2(m / i)
    if spec.alpha > 0.0:
        ptilde = ptilde + spec.alpha * np.log2(np.log2(m + 1.0) / np.log2(i + 1.0))
    counts = np.ceil(np.maximum(ptilde, 1.0)).astype(np.int64)
    if counts.max() > MAX_ALLOC_BITS:
        raise ValueError(f"allocation exceeds {MAX_ALLOC_BITS} bits per coefficient")
    return BitAllocation(counts)


@dataclass
class KLVector:
    """Truncated random-bit expansion: coordinates plus retained uniforms."""

    m: int
    coeffs: np.ndarray
    retained_indices: np.ndarray
    allocation: BitAllocation

    def norm_sq(self) -> float:
        return float(np.dot(self.coeffs, self.coeffs))


def _alloc_runs(counts: np.ndarray):
    """Contiguous runs of equal bit counts as (start, stop, p) triples."""
    bounds = [0, *(np.flatnonzero(np.diff(counts)) + 1), len(counts)]
    return [(int(a), int(b), int(counts[a])) for a, b in zip(bounds, bounds[1:])]


def sample_rows(src: BitSource, alloc: BitAllocation, n: int,
                scale: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw n expansion rows under ``alloc``: (coefficient rows, index rows).

    Draw order: bits are drawn run by run over the maximal runs of equal bit
    count in ``alloc.counts``, left to right; each run is one draw of
    n * (run length) p-bit values filling the run's columns row by row.
    Exactly n * |alloc| bits are consumed.  Coefficient i is scale[i] times
    the p_i-bit grid normal at its retained index; ``scale=None`` means unit
    scale.
    """
    idx = np.empty((n, len(alloc)), dtype=np.uint64)
    coeffs = np.empty((n, len(alloc)), dtype=np.float64)
    for a, b, p in _alloc_runs(alloc.counts):
        block = src.draw_bits_array(p, n * (b - a)).reshape(n, b - a) + np.uint64(1)
        idx[:, a:b] = block
        coeffs[:, a:b] = grid_normal_values(block, p)
    if scale is not None:
        coeffs *= scale
    return coeffs, idx


def coarsen_rows(idx_rows: np.ndarray, fine: BitAllocation, coarse: BitAllocation,
                 scale: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Coupled coarse rows of sampled index rows: (coefficient rows, index rows).

    The coarse sample keeps the first len(coarse) coordinates and re-truncates
    each retained index from fine to coarse bits, run by run over the runs of
    equal (fine, coarse) pairs; no bits are drawn.  Coefficients follow as in
    :func:`sample_rows`.  Raises InternalInvariantError when ``coarse`` is
    not nested in ``fine``.
    """
    m2 = len(coarse)
    if m2 > len(fine):
        raise ValueError("coarse dimension exceeds fine dimension")
    pf, pc = fine.counts[:m2], coarse.counts
    if np.any(pc > pf):
        bad = int(np.flatnonzero(pc > pf)[0])
        raise InternalInvariantError(
            f"allocation not nested at coordinate {bad + 1}: "
            f"coarse p={int(pc[bad])} > fine p={int(pf[bad])}")
    rows = np.atleast_2d(idx_rows)
    idx = np.empty((rows.shape[0], m2), dtype=np.uint64)
    coeffs = np.empty((rows.shape[0], m2), dtype=np.float64)
    for a, b, _ in _alloc_runs(pf * (1 << 32) + pc):
        idx[:, a:b] = truncate_indices(rows[:, a:b], int(pf[a]), int(pc[a]))
        coeffs[:, a:b] = grid_normal_values(idx[:, a:b], int(pc[a]))
    if scale is not None:
        coeffs *= scale
    return coeffs, idx


def sample_kl(src: BitSource, m: int, spec: EigenSpec,
              allocation: Optional[BitAllocation] = None) -> KLVector:
    """One truncated random-bit sample; consumes exactly |p(m)| bits."""
    alloc = allocation if allocation is not None else allocation_kl(m, spec)
    if len(alloc) != m:
        raise ValueError("allocation length must equal m")
    coeffs, idx = sample_rows(src, alloc, 1, np.sqrt(spec.eigenvalues(np.arange(1, m + 1))))
    return KLVector(m, coeffs[0], idx[0], alloc)


def coarsen_kl(x: KLVector, m2: int, spec: EigenSpec,
               allocation: Optional[BitAllocation] = None) -> KLVector:
    """Coupled coarse version of a sampled vector; draws no bits."""
    if m2 >= x.m:
        raise ValueError("coarsening requires m2 < m")
    alloc2 = allocation if allocation is not None else allocation_kl(m2, spec)
    lam_sqrt = np.sqrt(spec.eigenvalues(np.arange(1, m2 + 1)))
    coeffs, idx = coarsen_rows(x.retained_indices, x.allocation, alloc2, lam_sqrt)
    return KLVector(m2, coeffs[0], idx[0], alloc2)


def tail_sum(m: int, spec: EigenSpec, rel_increment: float = 1e-6) -> tuple[float, float]:
    """Certified interval for sum_{i > m} lambda_i.

    Direct summation proceeds until the next eigenvalue falls below
    ``rel_increment`` times the partial tail; the remainder is bracketed by
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
        if vals[-1] <= rel_increment * partial:
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
    """(coefficient-error sum over i <= m, tail_sum interval) of kl_error_sq."""
    alloc = allocation if allocation is not None else allocation_kl(m, spec)
    if len(alloc) != m:
        raise ValueError("allocation length must equal m")
    lam = spec.eigenvalues(np.arange(1, m + 1))
    head = math.fsum(bit_normal_mse_extended(int(p)) * lam[a:b].sum()
                     for a, b, p in _alloc_runs(alloc.counts))
    return head, tail_sum(m, spec)


def kl_error_sq(m: int, spec: EigenSpec,
                allocation: Optional[BitAllocation] = None) -> float:
    """Exact E || X - X^(m, p(m)) ||^2 = sum_{i<=m} mse(p_i) lambda_i + tail(m).

    Independence of the coordinates makes the identity exact; bit counts
    beyond the exact-mse capacity use the asymptotic surrogate (flagged in
    the normal module).  The truncation tail enters as the midpoint of its
    certified interval.
    """
    head, (lo, hi) = _kl_error_parts(m, spec, allocation)
    return head + 0.5 * (lo + hi)


def kl_error_interval(m: int, spec: EigenSpec) -> tuple[float, float]:
    """kl_error_sq with the tail's certified interval exposed."""
    head, (lo, hi) = _kl_error_parts(m, spec, None)
    return head + lo, head + hi
