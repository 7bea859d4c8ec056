"""Standard normal kernel: density, distribution function, tail-accurate
inverse, the p-bit grid normal, and exact moment/error formulas.

The p-bit normal is obtained by pushing a uniform draw from the dyadic
midpoint grid D(p) through the inverse distribution function.  Its support

    x_k = Phi^{-1}(k * 2**-p - 2**-(p+1)),      k = 1, ..., 2**p,

is antisymmetric, and all second-order error quantities against the exact
normal (mean-square gap, moments, cross moment) have closed forms per grid
cell, which this module evaluates exactly up to floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc as _erfc

from .bitcore import (
    BitSource,
    byte_fields,
    dyadic_values,
    sample_dyadic_uniform,
    sample_dyadic_uniform_array,
)
from .errors import CapacityError

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
SQRT_2 = math.sqrt(2.0)
LN2 = math.log(2.0)
LN4 = math.log(4.0)

# Exact enumeration of the 2**p support cells is capped here; beyond it the
# asymptotic surrogate (see mse_scaled_limit) must be used.
MSE_EXACT_MAX_P = 26

_CHUNK = 1 << 20


def phi(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=np.float64)
    out = INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


def Phi(x):
    """Standard normal distribution function, accurate in the lower tail."""
    x = np.asarray(x, dtype=np.float64)
    out = 0.5 * _erfc(-x / SQRT_2)
    return float(out) if out.ndim == 0 else out


def Phi_c(x):
    """Complementary distribution function 1 - Phi(x), accurate for x >> 0."""
    x = np.asarray(x, dtype=np.float64)
    out = 0.5 * _erfc(x / SQRT_2)
    return float(out) if out.ndim == 0 else out


# Rational initial approximation of the normal quantile (Acklam's algorithm,
# relative error < 1.2e-9), refined below by two Halley steps on Phi.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_ACK_SPLIT = 0.02425


def _acklam_low(u: np.ndarray) -> np.ndarray:
    # u in (0, 0.5]; returns y <= 0
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    y = np.empty_like(u)
    tail = u < _ACK_SPLIT
    if np.any(tail):
        q = np.sqrt(-2.0 * np.log(u[tail]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        y[tail] = num / den
    mid = ~tail
    if np.any(mid):
        q = u[mid] - 0.5
        r = q * q
        num = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        y[mid] = num / den
    return y


def _halley_low(u: np.ndarray, y: np.ndarray, iterations: int = 2) -> np.ndarray:
    # Solve Phi(y) = u for u in (0, 0.5]; Phi is evaluated through erfc so
    # the residual stays relatively accurate down to the smallest cells.
    for _ in range(iterations):
        f = 0.5 * _erfc(-y / SQRT_2) - u
        r = f / (INV_SQRT_2PI * np.exp(-0.5 * y * y))
        y = y - r / (1.0 + 0.5 * y * r)
    return y


def phi_inv(u):
    """Inverse of Phi on (0, 1).

    Antisymmetry phi_inv(1 - u) = -phi_inv(u) holds exactly by construction:
    arguments above one half are mapped by u -> 1 - u, which is exact in
    binary floating point on (1/2, 1).  For |u| or |1 - u| below 2**-63 use
    :func:`phi_inv_tail` instead.
    """
    arr = np.atleast_1d(np.asarray(u, dtype=np.float64)).copy()
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("phi_inv requires 0 < u < 1")
    upper = arr > 0.5
    low = np.where(upper, 1.0 - arr, arr)
    y = _halley_low(low, _acklam_low(low))
    y = np.where(upper, -y, y)
    if np.isscalar(u) or np.asarray(u).ndim == 0:
        return float(y[0])
    return y


def phi_inv_tail(t: float) -> float:
    """Phi^{-1}(1 - 2**-t) for real t >= 1, solved on the log scale.

    Works far beyond the resolution of 1 - 2**-t in double precision and is
    free of cancellation; relative accuracy is ~1e-14.
    """
    t = float(t)
    if t < 1.0:
        raise ValueError(f"tail exponent t must be >= 1, got {t}")
    if t == 1.0:
        return 0.0
    target = -t * LN2  # = ln(1 - Phi(y)) at the root
    if t <= 50.0:
        y = -float(phi_inv(2.0**-t))
    else:
        y = math.sqrt(LN4 * t)
        for _ in range(3):
            y = math.sqrt(2.0 * (t * LN2 - math.log(y) - 0.5 * math.log(2.0 * math.pi)))
    for _ in range(4):
        q = 0.5 * math.erfc(y / SQRT_2)
        f = math.log(q) - target
        y = y + f * q / (INV_SQRT_2PI * math.exp(-0.5 * y * y))
    return y


@dataclass
class BitNormal:
    """The p-bit grid normal: uniform distribution on 2**p quantile points."""

    p: int
    support: np.ndarray

    def __post_init__(self):
        if len(self.support) != 1 << self.p:
            raise ValueError("support size must be 2**p")


def bit_normal_support(p: int) -> BitNormal:
    if p > MSE_EXACT_MAX_P:
        raise CapacityError(f"support enumeration capped at p={MSE_EXACT_MAX_P}")
    n = 1 << p
    k = np.arange(1, n + 1, dtype=np.float64)
    return BitNormal(p, phi_inv((2.0 * k - 1.0) * 2.0 ** -(p + 1)))


def bit_normal_sample(src: BitSource, p: int) -> float:
    """One draw of the p-bit normal; consumes exactly p bits."""
    return float(phi_inv(sample_dyadic_uniform(src, p).value))


# Quantile values of whole dyadic grids are reused heavily by the samplers;
# memoizing them up to this precision turns bulk draws into table lookups.
GRID_TABLE_MAX_P = 20
_GRID_TABLES: dict[int, np.ndarray] = {}


def grid_normal_values(indices: np.ndarray, p: int) -> np.ndarray:
    """phi_inv at the dyadic midpoints with the given 1-based grid indices.

    Identical to ``phi_inv(dyadic_values(indices, p))``; small precisions go
    through a cached full-grid table.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    if p <= GRID_TABLE_MAX_P:
        table = _GRID_TABLES.get(p)
        if table is None:
            n = 1 << p
            k = np.arange(1, n + 1, dtype=np.float64)
            table = phi_inv((2.0 * k - 1.0) * 2.0 ** -(p + 1))
            _GRID_TABLES[p] = table
        return np.take(table, idx.astype(np.int64) - 1)
    return phi_inv(dyadic_values(idx, p))


_BYTE_NORMALS: dict[int, np.ndarray] = {}


def grid_normal_byte_table(p: int) -> np.ndarray:
    """(256, 8/p) grid normals of the p-bit fields of each byte, p in {1, 2, 4, 8}.

    Row b is ``grid_normal_values(byte_fields(p, 1)[b], p)``, so a lookup by
    stream byte gives the values of grid_normal_values by construction.
    """
    table = _BYTE_NORMALS.get(p)
    if table is None:
        table = _BYTE_NORMALS[p] = grid_normal_values(byte_fields(p, 1), p)
        table.flags.writeable = False  # shared by every caller
    return table


def bit_normal_sample_array(src: BitSource, p: int, n: int) -> np.ndarray:
    """n draws of the p-bit normal from one stream; consumes n*p bits."""
    idx = sample_dyadic_uniform_array(src, p, n)
    return grid_normal_values(idx, p)


def _upper_cells(p: int):
    """Yield (k0, k1) chunk ranges covering cells 2**(p-1)+1 .. 2**p."""
    n = 1 << p
    k = (n >> 1) + 1
    while k <= n:
        hi = min(k + _CHUNK - 1, n)
        yield k, hi
        k = hi + 1


def _cell_quantities(p: int, k0: int, k1: int):
    """Quantile edges/midpoints and density values for cells k0..k1."""
    scale = 2.0 ** -p
    edges_k = np.arange(k0 - 1, k1 + 1, dtype=np.float64)
    z = edges_k * scale  # exact: integer times power of two
    y = np.empty_like(z)
    interior = z < 1.0
    y[interior] = phi_inv(z[interior])
    y[~interior] = np.inf
    mids = (2.0 * np.arange(k0, k1 + 1, dtype=np.float64) - 1.0) * 2.0 ** -(p + 1)
    c = phi_inv(mids)
    yf = np.where(np.isinf(y), 0.0, y)
    pdf = np.where(np.isinf(y), 0.0, INV_SQRT_2PI * np.exp(-0.5 * yf * yf))
    ypdf = yf * pdf
    return y, pdf, ypdf, c


_MSE_CACHE: dict[int, float] = {}


def bit_normal_mse(p: int) -> float:
    """Exact mean-square gap E|Y - Y^(p)|^2 between the normal and its p-bit version.

    Evaluated cell by cell with the closed-form Gaussian partial moments
    (int y^2 phi = Phi - y phi, int y phi = -phi, int phi = Phi) and
    compensated summation in ascending cell order.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if p > MSE_EXACT_MAX_P:
        raise CapacityError(
            f"exact mse enumerates 2**{p} cells; capped at p={MSE_EXACT_MAX_P}"
            " (use bit_normal_mse_surrogate for the asymptotic value)")
    if p in _MSE_CACHE:
        return _MSE_CACHE[p]
    scale = 2.0 ** -p
    parts = []
    for k0, k1 in _upper_cells(p):
        y, pdf, ypdf, c = _cell_quantities(p, k0, k1)
        term = ((1.0 + c * c) * scale
                + 2.0 * c * (pdf[1:] - pdf[:-1])
                - (ypdf[1:] - ypdf[:-1]))
        parts.append(math.fsum(term))
    mse = 2.0 * math.fsum(parts)
    _MSE_CACHE[p] = mse
    return mse


# Empirical value of 2**p * p * mse(p), frozen from the exact value at p = 26
# (regenerate with: rbitmc normal-error --pmin 26 --pmax 26 --seed 0).  The
# proof-side upper bound for the same constant is 49/(6 ln 4) ~ 5.891.
MSE_SCALED_LIMIT = 1.698411106154


def bit_normal_mse_surrogate(p: int, const: float = MSE_SCALED_LIMIT) -> float:
    """Asymptotic stand-in const * 2**-p / p for the exact mean-square gap."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    return const * 2.0 ** -p / p


def bit_normal_mse_extended(p: int) -> float:
    """Exact mse for p <= 26, the flagged asymptotic surrogate beyond."""
    if p <= MSE_EXACT_MAX_P:
        return bit_normal_mse(p)
    return bit_normal_mse_surrogate(p)


def bit_normal_moment(p: int, r: int) -> float:
    """Exact absolute moment E|Y^(p)|^r = 2**-p * sum_k |x_k|^r for even r."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    if p > MSE_EXACT_MAX_P:
        raise CapacityError(f"moment enumeration capped at p={MSE_EXACT_MAX_P}")
    if r not in (2, 4, 6, 8):
        raise ValueError("r must be one of 2, 4, 6, 8")
    parts = []
    for k0, k1 in _upper_cells(p):
        mids = (2.0 * np.arange(k0, k1 + 1, dtype=np.float64) - 1.0) * 2.0 ** -(p + 1)
        parts.append(math.fsum(phi_inv(mids) ** r))
    return 2.0 ** -(p - 1) * math.fsum(parts)


def bit_normal_cross_moment(p: int) -> float:
    """Exact E[Y * Y^(p)] = sum_k x_k * (phi(y_{k-1}) - phi(y_k))."""
    if p > MSE_EXACT_MAX_P:
        raise CapacityError(f"cross moment enumeration capped at p={MSE_EXACT_MAX_P}")
    parts = []
    for k0, k1 in _upper_cells(p):
        y, pdf, _, c = _cell_quantities(p, k0, k1)
        parts.append(math.fsum(c * (pdf[:-1] - pdf[1:])))
    return 2.0 * math.fsum(parts)


def gaussian_cell_sq_error(u_lo, u_hi, c):
    """int_{u_lo}^{u_hi} (Phi^{-1}(u) - c)^2 du in closed form (vectorized).

    u_lo = 0 and u_hi = 1 are admitted as the unbounded edges.
    """
    u_lo = np.asarray(u_lo, dtype=np.float64)
    u_hi = np.asarray(u_hi, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)

    def _edge(u):
        interior = (u > 0.0) & (u < 1.0)
        yv = phi_inv(np.where(interior, u, 0.5))
        yv = np.where(interior, yv, 0.0)
        pdf = np.where(interior, INV_SQRT_2PI * np.exp(-0.5 * yv * yv), 0.0)
        return pdf, yv * pdf

    pdf_lo, ypdf_lo = _edge(u_lo)
    pdf_hi, ypdf_hi = _edge(u_hi)
    out = ((1.0 + c * c) * (u_hi - u_lo)
           + 2.0 * c * (pdf_hi - pdf_lo)
           - (ypdf_hi - ypdf_lo))
    return float(out) if out.ndim == 0 else out


def checked_quad(f, a: float, b: float, cell: tuple[float, float], **kwargs) -> float:
    """int_a^b f by ``scipy.integrate.quad``, refusing results it cannot certify.

    Raises ValueError naming ``cell`` (the grid cell the integral belongs
    to) when quad reports a problem -- subdivision limit reached, roundoff,
    probable divergence, bad integrand -- or returns a non-finite value.
    """
    out = quad(f, a, b, full_output=1, **kwargs)
    if len(out) > 3:  # quad appends its message only when ier > 0
        reason = out[3].splitlines()[0]
        raise ValueError(f"divergent cell integral on ({cell[0]}, {cell[1]}): {reason}")
    if not np.isfinite(out[0]):
        raise ValueError(f"divergent cell integral on ({cell[0]}, {cell[1]})")
    return out[0]


def optimal_points(quantile_spec, p: int) -> np.ndarray:
    """Best-approximation support for fixed uniform weights 2**-p.

    The k-th point is the average of the quantile function over the k-th
    cell of the uniform partition of (0, 1) into 2**p cells.  Closed-form
    cell averages are used when the law provides them; otherwise each cell
    integral is computed by adaptive quadrature (relative tolerance 1e-12).

    Raises ValueError when a cell average is not finite, or when quadrature
    does not certify a cell integral at that tolerance (in particular when
    the quantile is not integrable over the cell).
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if p > MSE_EXACT_MAX_P:
        raise CapacityError(f"optimal point enumeration capped at p={MSE_EXACT_MAX_P}")
    n = 1 << p
    scale = 2.0 ** -p
    lo = np.arange(0, n, dtype=np.float64) * scale
    hi = np.arange(1, n + 1, dtype=np.float64) * scale
    cell_average = getattr(quantile_spec, "cell_average", None)
    if cell_average is not None:
        pts = np.asarray(cell_average(lo, hi), dtype=np.float64)
    else:
        q = quantile_spec.quantile
        pts = np.empty(n)
        for k in range(n):
            val = checked_quad(q, lo[k], hi[k], (lo[k], hi[k]), epsabs=0.0, epsrel=1e-12, limit=200)
            pts[k] = val / scale
    if not np.all(np.isfinite(pts)):
        raise ValueError("divergent cell integral: quantile not integrable")
    return pts


def func_h(a: float) -> float:
    """h(a) = int_0^a exp(x^2/2) dx by adaptive quadrature (rel. tol 1e-10)."""
    a = float(a)
    if a <= 0.0:
        raise ValueError("func_h requires a > 0")
    if a > 40.0:
        raise CapacityError("func_h overflows double precision beyond a = 40")
    # scaled integrand exp((x^2 - a^2)/2) <= 1 avoids overflow inside quad
    val, _ = quad(lambda x: math.exp(0.5 * (x * x - a * a)), 0.0, a,
                  epsabs=0.0, epsrel=1e-12, limit=400)
    factor = 0.5 * a * a
    if factor > 709.0:
        raise CapacityError("func_h overflows double precision for this argument")
    return val * math.exp(factor)


def func_g(a: float) -> float:
    """g(a) = int_a^inf (x - a)^2 phi(x) dx = (1 + a^2)(1 - Phi(a)) - a phi(a)."""
    a = float(a)
    if a < 0.0:
        raise ValueError("func_g requires a >= 0")
    return (1.0 + a * a) * Phi_c(a) - a * phi(a)


def asymptotic_ratios(p_grid) -> dict[str, np.ndarray]:
    """Tail-asymptotic diagnostic ratios on a grid of precisions.

    Each returned sequence divides a tail quantity by its leading-order
    asymptotic form, so values near one confirm the expansion:

    - ratio1: Phi^{-1}(1 - 2**-p) / (sqrt(ln 4) * sqrt(p))
    - ratio2: 2**-p * p * h(Phi^{-1}(1 - 2**-p)) * sqrt(2 pi) * ln 4
    - ratio3: g(Phi^{-1}(1 - 2**-(p+1))) * 2**p * p * ln 4
    - ratio4: phi(Phi^{-1}(1 - x)) / (sqrt(2) * x * sqrt(ln(1/x))), x = 2**-p
    - ratio5: quantile increment over (a, b), a = 1 - 3*2**-(p+2),
      b = 1 - 2**-(p+1), divided by (b - a) * (1 - a)**-1 * (-ln(1-a))**-1/2
      (bounded below by a positive constant rather than converging to one).
    """
    ps = np.asarray(p_grid, dtype=np.float64)
    if np.any(ps < 1.0):
        raise ValueError("grid precisions must be >= 1")
    r1 = np.empty_like(ps)
    r2 = np.empty_like(ps)
    r3 = np.empty_like(ps)
    r4 = np.empty_like(ps)
    r5 = np.empty_like(ps)
    log2_3 = math.log2(3.0)
    for j, p in enumerate(ps):
        y = phi_inv_tail(p)
        r1[j] = y / (math.sqrt(LN4) * math.sqrt(p))
        r2[j] = 2.0 ** -p * p * func_h(y) * math.sqrt(2.0 * math.pi) * LN4 if y > 0 else math.nan
        r3[j] = func_g(phi_inv_tail(p + 1.0)) * 2.0 ** p * p * LN4
        r4[j] = phi(y) / (SQRT_2 * 2.0 ** -p * math.sqrt(p * LN2))
        y_b = phi_inv_tail(p + 1.0)
        y_a = phi_inv_tail(p + 2.0 - log2_3)
        one_minus_a = 3.0 * 2.0 ** -(p + 2.0)
        b_minus_a = 2.0 ** -(p + 2.0)
        r5[j] = (y_b - y_a) * one_minus_a * math.sqrt((p + 2.0) * LN2 - math.log(3.0)) / b_minus_a
    return {"p": ps, "ratio1": r1, "ratio2": r2, "ratio3": r3, "ratio4": r4, "ratio5": r5}
