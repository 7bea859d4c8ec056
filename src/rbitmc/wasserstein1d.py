"""Exact Wasserstein-2 distances between one-dimensional laws and discrete
uniform measures on 2**p points.

For a law given by its quantile function, the distance to a measure that
puts mass 2**-p on points x_1 <= ... <= x_n, n = 2**p, is attained by the
monotone (quantile) coupling, so

    W_2^2 = sum_k  int_{(k-1)/n}^{k/n} (quantile(u) - x_k)^2 du

is exact and no transport solver is needed.  Each law gives its cell
averages (the best points) and cell integrals in closed form over ranges of
the 2**p uniform cells, and every table walks them in chunks of at most
2**20 cells (``normal.cell_chunks``), so no 2**p array is built but the
output of ``optimal_points``.  The sum over all chunks is one exact sum,
correctly rounded once (``bitcore.exact_sum_chunks``).  The shipped laws
are the standard normal and the uniform law on (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

import numpy as np

from .bitcore import dyadic_values, exact_sum_chunks
from .normal import cell_chunks, gaussian_cells, law_cells


@dataclass
class QuantileSpec:
    """A one-dimensional law through closed forms over the 2**p uniform cells
    ((k-1) 2**-p, k 2**-p) of (0, 1), the only partition that
    :func:`normal.optimal_points`, :func:`w2_uniform` and :func:`rbit_error`
    use, taken by range.

    ``cells(p, f0, f1, c=None)`` gives, for the cells f0 <= f < f1, one point
    c_f per cell and each cell's int (quantile(u) - c_f)^2 du; the points
    are the given c, or by default the mean of the law's quantile over each
    cell.  It is required.  ``symmetric`` declares the law symmetric about
    its median: cell 2**p - 1 - f then has the squared error of cell f
    against its mean, bit for bit, and :func:`rbit_error` sums the upper half
    of the cells and doubles it.  A spec that does not declare it is summed
    over all cells.
    """

    name: str
    cells: Callable[..., tuple[np.ndarray, np.ndarray]]
    symmetric: bool = False


def standard_normal_spec() -> QuantileSpec:
    """The standard normal: phi_inv(1 - u) = -phi_inv(u) bit for bit, so its
    cells mirror exactly about u = 1/2."""
    return QuantileSpec(name="normal", cells=gaussian_cells, symmetric=True)


def uniform_spec() -> QuantileSpec:
    """The uniform law on (0, 1): its best 2**p-point approximation is D(p),
    and a cell of width w and midpoint m adds w (m - c)^2 + w^3 / 12 to W2^2,
    two terms that cannot cancel (on D(p) itself, w^3 / 12 rounded once)."""
    def _cells(p, f0, f1, c=None):
        w, m = 2.0 ** -p, dyadic_values(np.arange(f0, f1), p)
        c = m if c is None else c
        return c, w * (m - c) ** 2 + w ** 3 / 12.0

    return QuantileSpec(name="uniform", cells=_cells, symmetric=True)


@dataclass
class DiscreteUniform:
    """Uniform distribution on a sorted finite support of finite points."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 1 or len(self.points) == 0:
            raise ValueError("support must be a non-empty 1-d sequence")
        bad = np.flatnonzero(~np.isfinite(self.points))
        if len(bad):
            raise ValueError(f"support points must be finite, got {self.points[bad[0]]} at index {bad[0]}")
        if np.any(np.diff(self.points) < 0):
            raise ValueError("support points must be sorted")

    def __len__(self) -> int:
        return len(self.points)


def _distance(total: float) -> float:
    """The square root of an exact W2^2 total; a total that is not finite or is
    negative beyond rounding raises ValueError (the distance is infinite)."""
    if not np.isfinite(total) or total < -1e-15:
        raise ValueError("divergent Wasserstein cell integral")
    return math.sqrt(max(total, 0.0))


def w2_uniform(q: QuantileSpec, nu: DiscreteUniform) -> float:
    """Exact W2 distance between the law of q and a discrete uniform measure:
    the square root of the correctly rounded sum of the squared errors of
    ``q.cells`` against the points, over all cells, taken in chunks.

    Raises ValueError when the support size is not a power of two, or when
    the law's cell integrals are not finite (the distance is then infinite).
    """
    n = len(nu)
    if n & (n - 1):
        raise ValueError("support size must be a power of two (2**p points)")
    p = n.bit_length() - 1
    return _distance(exact_sum_chunks(q.cells(p, f0, f1, nu.points[f0:f1])[1] for f0, f1 in cell_chunks(p)))


def rbit_error(q: QuantileSpec, p: int) -> float:
    """Exact distance from the law to its best 2**p-point uniform approximation,
    ``w2_uniform(q, DiscreteUniform(optimal_points(q, p)))`` bit for bit
    without building either: the correctly rounded sum of the squared errors
    of ``q.cells``, over the upper half of the cells and doubled (exactly)
    when the law is symmetric.

    p and the averages are checked by :func:`normal.law_cells` (ValueError,
    CapacityError).
    """
    total = exact_sum_chunks(map(itemgetter(2), law_cells(q, p, upper=q.symmetric)))  # frees each chunk's averages
    return _distance((2.0 if q.symmetric else 1.0) * total)
