"""Exact Wasserstein-2 distances between one-dimensional laws and discrete
uniform measures on 2**p points.

For a law given by its quantile function, the distance to a measure that
puts mass 2**-p on points x_1 <= ... <= x_n, n = 2**p, is attained by the
monotone (quantile) coupling, so

    W_2^2 = sum_k  int_{(k-1)/n}^{k/n} (quantile(u) - x_k)^2 du

is exact and no transport solver is needed.  Each law gives its cell
integrals, and its cell averages (the best points), in closed form over
the 2**p uniform cells; the shipped laws are the standard normal and the
uniform law on (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bitcore import dyadic_values, exact_sum
from .normal import gaussian_grid_average, gaussian_grid_sq_error, optimal_points


@dataclass
class QuantileSpec:
    """A one-dimensional law through closed forms over the 2**p uniform cells
    ((k-1) 2**-p, k 2**-p) of (0, 1), the only partition that
    :func:`optimal_points` and :func:`w2_uniform` use.

    ``cell_average(p)`` gives the mean of the law's quantile over each cell,
    ``cell_sq_error(p, c)`` each cell's int (quantile(u) - c_k)^2 du for one
    point c_k per cell.  Both are required.
    """

    name: str
    cell_average: Callable[[int], np.ndarray]
    cell_sq_error: Callable[[int, np.ndarray], np.ndarray]


def standard_normal_spec() -> QuantileSpec:
    return QuantileSpec(name="normal", cell_average=gaussian_grid_average,
                        cell_sq_error=gaussian_grid_sq_error)


def uniform_spec() -> QuantileSpec:
    """The uniform law on (0, 1): its best 2**p-point approximation is D(p),
    and a cell of width w and midpoint m adds w (m - c)^2 + w^3 / 12 to W2^2,
    two terms that cannot cancel (on D(p) itself, w^3 / 12 rounded once)."""
    def _cell_average(p):
        return dyadic_values(np.arange(1 << p), p)

    def _cell_sq_error(p, c):
        w = 2.0 ** -p
        return w * (_cell_average(p) - c) ** 2 + w ** 3 / 12.0

    return QuantileSpec(name="uniform", cell_average=_cell_average, cell_sq_error=_cell_sq_error)


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


def w2_uniform(q: QuantileSpec, nu: DiscreteUniform) -> float:
    """Exact W2 distance between the law of q and a discrete uniform measure:
    the square root of the correctly rounded sum of ``q.cell_sq_error``.

    Raises ValueError when the support size is not a power of two, or when
    the law's cell integrals are not finite (the distance is then infinite).
    """
    n = len(nu)
    if n & (n - 1):
        raise ValueError("support size must be a power of two (2**p points)")
    total = exact_sum(q.cell_sq_error(n.bit_length() - 1, nu.points))
    if not np.isfinite(total) or total < -1e-15:
        raise ValueError("divergent Wasserstein cell integral")
    return math.sqrt(max(total, 0.0))


def rbit_error(q: QuantileSpec, p: int) -> float:
    """Exact distance from the law to its best 2**p-point uniform approximation.

    p is checked by :func:`optimal_points` (ValueError, CapacityError).
    """
    return w2_uniform(q, DiscreteUniform(optimal_points(q, p)))
