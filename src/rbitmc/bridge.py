"""Brownian bridge in the Schauder (hat-function) basis, its level-l
truncation, and the random-bit version with per-coefficient bit counts.

Basis index i >= 1 decomposes as i = 2**m + k - 1 with level m and offset
k in 1..2**m; the hat s_i is supported on [(k-1)/2**m, k/2**m] with peak
height 2**(-m/2-1).  Truncating the expansion after 2**l - 1 terms gives the
piecewise-linear interpolation of the bridge on the dyadic grid of mesh
2**-l, so paths are evaluated either lazily (per point, one hat per level)
or via midpoint refinement on the dyadic nodes.

The random-bit version replaces coefficient i by its p_i-bit grid normal,
with p_i = 2 * (l - level(i)); coarsening to a lower level is an exact
re-truncation of the retained dyadic uniforms and draws no new bits.  Both
are rows of :func:`gausskl.sample_rows` and :func:`gausskl.coarsen_rows`
under :func:`allocation_bridge`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# truncate_indices, grid_normal_values: unused, kept for perfbench/selftest.py
from .bitcore import MAX_LEVEL, BitAllocation, truncate_indices  # noqa: F401
from .errors import CapacityError
from .normal import coefficient_error_sq
from .normal import grid_normal_values  # noqa: F401


def schauder_level(i: int) -> tuple[int, int]:
    """Level m and offset k (1-based) of basis index i = 2**m + k - 1."""
    if i < 1:
        raise ValueError("basis index must be >= 1")
    m = int(i).bit_length() - 1
    return m, i - (1 << m) + 1


def _peak(m: int) -> float:
    """Peak height 2**(-m/2-1) of the level-m hats."""
    return 2.0 ** (-m / 2.0 - 1.0)


def _hat(m: int, k0, t):
    """The level-m hat with 0-based offset k0 (basis index 2**m + k0) at t:
    the peak times the unit tent of half-width 2**-(m+1) centred on
    (k0 + 1/2) 2**-m."""
    center = (k0 + 0.5) / 2.0**m
    return _peak(m) * np.maximum(0.0, 1.0 - np.abs(t - center) * 2.0 ** (m + 1))


def schauder(i: int, t) -> np.ndarray | float:
    """Hat function s_i evaluated at t in [0, 1]."""
    m, k = schauder_level(i)
    out = _hat(m, k - 1, np.asarray(t, dtype=np.float64))
    return float(out) if out.ndim == 0 else out


def schauder_norm_sq(i) -> np.ndarray | float:
    """Exact squared L2 norm of s_i: the triangle integral 2**(-2m-2)/3,
    m = floor(log2 i), for 1 <= i < 2**53 (every index up to MAX_LEVEL)."""
    i_arr = np.asarray(i, dtype=np.int64)
    if np.any(i_arr < 1):
        raise ValueError("basis index must be >= 1")
    m = np.frexp(i_arr)[1] - 1  # floor(log2 i), exact: i = f 2**e with f in [1/2, 1)
    out = 2.0 ** (-2.0 * m - 2.0) / 3.0
    return float(out) if out.ndim == 0 else out


def _check_level(level: int) -> None:
    """Refuse a level outside 1..MAX_LEVEL, the one domain of the bridge level
    functions; every bridge sampler draws under allocation_bridge, so the cap
    holds for them too."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if level > MAX_LEVEL:
        raise CapacityError(f"bridge levels are capped at {MAX_LEVEL}, got {level}")


def allocation_bridge(level: int) -> BitAllocation:
    """Bit counts p_i = 2 * (level - m_i) for i = 1 .. 2**level - 1."""
    _check_level(level)
    m = np.arange(level)
    return BitAllocation(np.repeat(2 * (level - m), 1 << m))


def allocation_bridge_total(level: int) -> int:
    """Closed form |p(level)| = 2**(level+2) - 2*level - 4."""
    _check_level(level)
    return (1 << (level + 2)) - 2 * level - 4


def evaluate_coeffs(coeffs: np.ndarray, level: int, t) -> np.ndarray | float:
    """Sum of coeffs_i * s_i(t) using the one-active-hat-per-level structure,
    for one row of the 2**level - 1 coefficients of a level-``level`` path."""
    _check_level(level)
    coeffs = np.asarray(coeffs)
    dim = (1 << level) - 1
    if coeffs.shape != (dim,):
        raise ValueError(f"expected one row of {dim} coefficients at level {level}, got shape {coeffs.shape}")
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if np.any((t_arr < 0.0) | (t_arr > 1.0)):
        raise ValueError("evaluation points must lie in [0, 1]")
    out = np.zeros_like(t_arr)
    for m in range(level):
        k = np.minimum((t_arr * 2.0**m).astype(np.int64), (1 << m) - 1)  # the one level-m hat active at t
        out += coeffs[(1 << m) + k - 1] * _hat(m, k, t_arr)
    if np.asarray(t).ndim == 0:
        return float(out[0])
    return out


def nodes_from_coeffs(coeff_rows: np.ndarray, level: int) -> np.ndarray:
    """Node values at mesh 2**-level for a batch of coefficient rows.

    Midpoint refinement: level-m hats vanish on the level-m grid and
    contribute their peak at the new midpoints, so each refinement step is
    an average plus a scaled coefficient, 0.5 * (l + r) + c * peak, built
    in place in the sum l + r.
    """
    rows = np.atleast_2d(coeff_rows)
    vals = np.zeros((rows.shape[0], 2), dtype=np.float64)
    for m in range(level):
        mids = vals[:, :-1] + vals[:, 1:]
        mids *= 0.5
        mids += rows[:, (1 << m) - 1:(1 << (m + 1)) - 1] * _peak(m)
        vals = _insert_midpoints(vals, mids)
    return vals


def _insert_midpoints(nodes: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """The midpoint-refinement step: node rows (n, k) on the halved mesh,
    (n, 2k - 1), with the values ``mids`` (n, k - 1) inserted between
    neighbours."""
    refined = np.empty((nodes.shape[0], 2 * nodes.shape[1] - 1), dtype=np.float64)
    refined[:, 0::2] = nodes
    refined[:, 1::2] = mids
    return refined


def pl_l2_norm_sq(node_rows: np.ndarray) -> np.ndarray:
    """Exact squared L2[0,1] norm of piecewise-linear rows on a uniform grid:
    (h / 3) times the row sums of a*a + a*b + b*b over neighbours a, b,
    with each node squared once."""
    rows = np.atleast_2d(node_rows)
    h = 1.0 / (rows.shape[1] - 1)
    sq = rows * rows
    t = rows[:, :-1] * rows[:, 1:]
    t += sq[:, :-1]
    t += sq[:, 1:]
    return (h / 3.0) * np.sum(t, axis=1)


def pl_inner(node_rows_f: np.ndarray, node_rows_g: np.ndarray) -> np.ndarray:
    """Exact L2[0,1] inner product of piecewise-linear rows on a shared grid."""
    f = np.atleast_2d(node_rows_f)
    g = np.atleast_2d(node_rows_g)
    if f.shape[1] != g.shape[1]:
        raise ValueError("node grids must match")
    h = 1.0 / (f.shape[1] - 1)
    fa, fb = f[:, :-1], f[:, 1:]
    ga, gb = g[:, :-1], g[:, 1:]
    return (h / 6.0) * np.sum(fa * (2.0 * ga + gb) + fb * (ga + 2.0 * gb), axis=1)


def _hat_on_nodes(j: int, n_nodes: int) -> np.ndarray:
    """Normalized hat e_j = s_j / ||s_j|| on a dyadic node grid (exact kinks)."""
    t = np.arange(n_nodes, dtype=np.float64) / (n_nodes - 1)
    return schauder(j, t) / math.sqrt(schauder_norm_sq(j))


def _refine_nodes(nodes: np.ndarray, level: int) -> np.ndarray:
    """Node rows on a mesh of at most 2**-level, by midpoint insertion.

    The inserted values are the averages 0.5 * (a + b) of nodes_from_coeffs,
    so the rows are the same piecewise-linear functions on a finer grid;
    rows already that fine are returned as they are.
    """
    while nodes.shape[1] < (1 << level) + 1:
        nodes = _insert_midpoints(nodes, 0.5 * (nodes[:, :-1] + nodes[:, 1:]))
    return nodes


@dataclass
class BridgeRows:
    """A batch of bridge paths as node rows on a dyadic mesh, for the
    functionals: the L2 norm of each row and its inner products with the
    normalized hats e_j (the coordinates of the model)."""

    nodes: np.ndarray

    def norm(self) -> np.ndarray:
        return np.sqrt(pl_l2_norm_sq(self.nodes))

    def linear(self, w) -> np.ndarray:
        """<x, g> with g = sum_j w_j e_j, j = 1..len(w).

        The hats are not orthogonal, so g is rescaled by its true L2 norm
        when that is above 1, which keeps the functional 1-Lipschitz.  The
        rows are refined to the mesh of the last hat, where every hat kinks
        on a node.
        """
        nodes = _refine_nodes(self.nodes, len(w).bit_length())
        n_nodes = nodes.shape[1]
        g = np.zeros(n_nodes)
        for j, wj in enumerate(w, start=1):
            g += wj * _hat_on_nodes(j, n_nodes)
        g_norm = math.sqrt(float(pl_l2_norm_sq(g[np.newaxis, :])[0]))
        if g_norm > 1.0:
            g = g / g_norm
        return pl_inner(nodes, g[np.newaxis, :])


def bridge_truncation_error_sq(level: int) -> float:
    """Exact E || B - B^(level) ||_{L2}^2 = 2**-level / 6 (tail of norm sums)."""
    _check_level(level)
    return 2.0 ** -level / 6.0


def bridge_bit_error_sq(level: int) -> float:
    """Exact E || B - B^(level, p(level)) ||_{L2}^2.

    Independence of the coefficients makes the pointwise-variance identity
    exact: sum_i mse(p_i) ||s_i||^2 plus the truncation tail, the
    coefficient part from :func:`normal.coefficient_error_sq` with one term
    (2 (level - m), summed squared norm) per hat level m, as
    gausskl.kl_error_sq passes one per run.  Bit counts above the exact-mse
    capacity (p > 26, i.e. level > 13) take the asymptotic surrogate; their
    weight in the sum is below 1e-4 relative.
    """
    _check_level(level)
    # level m holds 2**m hats of squared norm 2**(-2m-2)/3, which sum to 2**(-m-2)/3 exactly
    return coefficient_error_sq((2 * (level - m), 2.0 ** (-m - 2) / 3.0)
                                for m in range(level)) + bridge_truncation_error_sq(level)


def precision_sum(level: int) -> float:
    """sum_i 2**-p_i / p_i * i**-2 for the bridge allocation at this level."""
    _check_level(level)
    total = 0.0
    for m in range(level):
        p = 2 * (level - m)
        i = np.arange(1 << m, 1 << (m + 1), dtype=np.float64)
        total += 2.0 ** -p / p * math.fsum(i ** -2.0)
    return total

