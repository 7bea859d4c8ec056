"""Exact and empirical Wasserstein-2 distances between one-dimensional laws
and discrete uniform measures.

For a law given by its quantile function, the distance to a measure that
puts mass 1/n on points x_1 <= ... <= x_n is attained by the monotone
(quantile) coupling, so

    W_2^2 = sum_k  int_{(k-1)/n}^{k/n} (quantile(u) - x_k)^2 du

is exact and no transport solver is needed.  Cell integrals use closed
forms when the law provides them (normal, uniform) and adaptive quadrature
otherwise, switching to the tail parametrization u = 1 - 2**-t for cells
within 2**-40 of the endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import normal as _normal
from .bitcore import dyadic_edges, dyadic_values, exact_sum
from .normal import LN2, checked_quad, gaussian_grid_average, gaussian_grid_sq_error, optimal_points

_TAIL_EDGE = 2.0 ** -40


@dataclass
class QuantileSpec:
    """A one-dimensional law described by its quantile function.

    ``tail_form(t)`` evaluates the quantile at 1 - 2**-t without forming
    1 - 2**-t in floating point.  ``cell_average(p)`` and
    ``cell_sq_error(p, c)`` are optional closed forms used in place of
    quadrature; both act on the 2**p uniform cells ((k-1) 2**-p, k 2**-p) of
    (0, 1), the only partition that :func:`optimal_points` and
    :func:`w2_uniform` use.  The first gives the mean of the quantile over
    each cell, the second each cell's int (quantile(u) - c_k)^2 du for one
    point c_k per cell.
    """

    name: str
    quantile: Callable[[float], float]
    second_moment: float
    tail_form: Optional[Callable[[float], float]] = None
    cell_average: Optional[Callable[[int], np.ndarray]] = None
    cell_sq_error: Optional[Callable[[int, np.ndarray], np.ndarray]] = None


def standard_normal_spec() -> QuantileSpec:
    return QuantileSpec(
        name="normal",
        quantile=_normal.phi_inv,
        second_moment=1.0,
        tail_form=_normal.phi_inv_tail,
        cell_average=gaussian_grid_average,
        cell_sq_error=gaussian_grid_sq_error,
    )


def uniform_spec() -> QuantileSpec:
    """The uniform law on (0, 1): its best 2**p-point approximation is D(p),
    and a cell of width w and midpoint m adds w (m - c)^2 + w^3 / 12 to W2^2,
    two terms that cannot cancel (on D(p) itself, w^3 / 12 rounded once)."""
    def _cell_average(p):
        return dyadic_values(np.arange(1, (1 << p) + 1), p)

    def _cell_sq_error(p, c):
        w = 2.0 ** -p
        return w * (_cell_average(p) - c) ** 2 + w ** 3 / 12.0

    return QuantileSpec(
        name="uniform",
        quantile=lambda u: np.asarray(u, dtype=np.float64),
        second_moment=1.0 / 3.0,
        tail_form=lambda t: 1.0 - 2.0 ** -t,
        cell_average=_cell_average,
        cell_sq_error=_cell_sq_error,
    )


@dataclass
class DiscreteUniform:
    """Uniform distribution on a sorted finite support."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 1 or len(self.points) == 0:
            raise ValueError("support must be a non-empty 1-d sequence")
        if np.any(np.diff(self.points) < 0):
            raise ValueError("support points must be sorted")

    def __len__(self) -> int:
        return len(self.points)


def _cell_sq_error_quad(q: QuantileSpec, lo: float, hi: float, c: float) -> float:
    """Quadrature fallback for one cell, tail-parametrized near the endpoints.

    Raises ValueError when quadrature does not certify the cell integral, or
    when a tail integrand cut off at t_lo + 80 has not decayed there.
    """
    if 1.0 - hi < _TAIL_EDGE and q.tail_form is not None:
        # upper tail: substitute u = 1 - 2**-t, du = ln2 * 2**-t dt
        t_lo = -math.log2(1.0 - lo)
        t_hi = -math.log2(1.0 - hi) if hi < 1.0 else math.inf
        f = lambda t: (q.tail_form(t) - c) ** 2 * LN2 * 2.0 ** -t
    elif lo < _TAIL_EDGE and q.tail_form is not None:
        # lower tail via u = 2**-t
        t_lo = -math.log2(hi)
        t_hi = -math.log2(lo) if lo > 0.0 else math.inf
        f = lambda t: (q.quantile(2.0 ** -t) - c) ** 2 * LN2 * 2.0 ** -t
    else:
        return checked_quad(lambda u: (q.quantile(u) - c) ** 2, lo, hi, (lo, hi),
                            epsabs=0.0, epsrel=1e-10, limit=300)
    # beyond t_lo + 80 the remaining mass is below 1e-15 of the cell as long
    # as the integrand decays like 2**-t; if it is still larger at the
    # cut-off, the truncated integral would be finite but wrong
    t_end = min(t_hi, t_lo + 80.0)
    v = checked_quad(f, t_lo, t_end, (lo, hi), epsabs=0.0, epsrel=1e-10, limit=300)
    if t_end < t_hi and not f(t_end) <= 1e-15 * v:
        raise ValueError(f"divergent cell integral on ({lo}, {hi}): tail does not decay")
    return v


def w2_uniform(q: QuantileSpec, nu: DiscreteUniform) -> float:
    """Exact W2 distance between the law of q and a discrete uniform measure.

    Raises ValueError when the support size is not a power of two, when the
    law's second moment is not finite (the distance is then infinite), or
    when a cell integral diverges or is not certified by quadrature.
    """
    n = len(nu)
    if n & (n - 1):
        raise ValueError("support size must be a power of two (2**p points)")
    if not math.isfinite(q.second_moment):
        raise ValueError(f"law {q.name!r} has no finite second moment; W2 is infinite")
    pts, p = nu.points, n.bit_length() - 1
    if q.cell_sq_error is not None:
        total = exact_sum(q.cell_sq_error(p, pts))
    else:
        edges = dyadic_edges(0, n, p)
        total = math.fsum(_cell_sq_error_quad(q, edges[k], edges[k + 1], pts[k]) for k in range(n))
    if not np.isfinite(total) or total < -1e-15:
        raise ValueError("divergent Wasserstein cell integral")
    return math.sqrt(max(total, 0.0))


def rbit_error(q: QuantileSpec, p: int) -> float:
    """Exact distance from the law to its best 2**p-point uniform approximation.

    p is checked by :func:`optimal_points` (ValueError, CapacityError).
    """
    return w2_uniform(q, DiscreteUniform(optimal_points(q, p)))


def w2_empirical(a, b) -> float:
    """Exact W2 between the empirical measures of two equal-size samples."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) == 0:
        raise ValueError("samples must be non-empty 1-d sequences of equal length")
    d = np.sort(a) - np.sort(b)
    return math.sqrt(np.mean(d * d))
