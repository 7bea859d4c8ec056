"""Standard normal kernel: density, distribution function, tail-accurate
inverse, the p-bit grid normal, and exact moment/error formulas.

The p-bit normal is obtained by pushing a uniform draw from the dyadic
midpoint grid D(p) through the inverse distribution function.  Its support

    x_f = Phi^{-1}((f + 1/2) * 2**-p),      f = 0, ..., 2**p - 1,

indexed by the p-bit field f of the draw, is antisymmetric, and all
second-order error quantities against the exact normal (mean-square gap,
moments) have closed forms per grid cell, which this module evaluates
exactly up to floating-point rounding: ``bit_normal_mse`` gives the
mean-square gap alone, and ``bit_normal_mse_moments`` the gap with the
moments 2 and 4 from one pass (the only route to the moments).
``bit_normal_mse_extended`` is the mse for every p, the asymptotic
surrogate above MSE_EXACT_MAX_P, and ``coefficient_error_sq`` the one
coefficient-error sum of the random-bit expansions (bridge and
Karhunen-Loeve).  ``grid_normal_runs`` is the one route from sampled grid
indices to normals, and the one reader of GRID_TABLE_MAX_P: cached tables
up to it, one ``phi_inv`` call for all pairs above it;
``grid_normal_values`` is its one-pair call and ``grid_normal_byte_table``
the stream-byte table built from it.

Private helpers carry every exact enumeration: ``_exact_precision``
refuses p outside 1..MSE_EXACT_MAX_P, ``_mid_quantiles`` gives the support
points x_f of a range of cells, ``_quantile_density`` the density terms
phi(y) and y phi(y) at quantile edges y = Phi^{-1}(u) (zero at the infinite
edges u = 0 and u = 1), ``_sq_error`` the closed-form squared error of a
cell from the terms at its edges, and ``_upper_sums`` sums several per-cell
terms over the upper half of the grid in chunks of ``cell_chunks``, in
ascending cell order, so that one pass over the cells gives all of them;
each chunk sum, and the sum of the chunk sums, is exact and correctly
rounded (``bitcore.exact_sum``, ``math.fsum``'s value), so from p = 22 on,
where the half spans several chunks, a sum can be 1 ulp off the correctly
rounded sum of all its cells.  ``gaussian_cells`` gives the squared errors
of a range of cells against any points (``_mid_terms`` is its call at the
midpoints) or against the cells' averages, the normal law's cells in the
W2 tables of ``wasserstein1d``; those walk the same chunks through
``law_cells``, from which ``optimal_points`` fills its output.
``phi_inv`` itself runs in blocks of 2**14 points through scratch buffers
allocated once per call, which stay in cache, and writes into ``out``
(which may be its input) when given one: ``grid_normal_runs`` and
``_quantile_density`` overwrite the midpoint and edge arrays they own with
their quantiles.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import erfc as _erfc

from .bitcore import byte_fields, check_count, check_finite, dyadic_edges, dyadic_values, exact_sum
from .errors import CapacityError

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
SQRT_2 = math.sqrt(2.0)
LN2 = math.log(2.0)
LN4 = math.log(4.0)

TAIL_MAX_T = 1074  # 2**-1074 is the smallest positive double

# Exact enumeration of the 2**p support cells is capped here; beyond it
# bit_normal_mse_extended gives the asymptotic surrogate.
MSE_EXACT_MAX_P = 26

_CHUNK = 1 << 20
_PHI_INV_BLOCK = 1 << 14


def _exact_precision(p: int, what: str) -> None:
    """Refuse a precision outside 1..MSE_EXACT_MAX_P for an exact 2**p-cell enumeration."""
    check_count("p", p, 1)
    if p > MSE_EXACT_MAX_P:
        raise CapacityError(f"{what} enumerates 2**{p} cells; capped at p={MSE_EXACT_MAX_P}")


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
_HALLEY_STEPS = 2


def _halley_low(u: np.ndarray, y: np.ndarray, t=None, s=None) -> np.ndarray:
    """The Halley steps on Phi(y) = u, u in (0, 0.5], in place on y, which
    is returned; t and s are scratch arrays of y's size (allocated when not
    given).  Phi is evaluated through erfc so the residual stays relatively
    accurate down to the smallest cells.  Each step is
    y - r / (1 + 0.5 y r) with r = (0.5 erfc(-y / sqrt 2) - u) / phi(y),
    every operation in that order."""
    t = np.empty_like(y) if t is None else t
    s = np.empty_like(y) if s is None else s
    for _ in range(_HALLEY_STEPS):
        np.negative(y, out=t)
        t /= SQRT_2
        _erfc(t, out=t)
        np.multiply(0.5, t, out=t)
        t -= u  # f
        np.multiply(-0.5, y, out=s)
        s *= y
        np.exp(s, out=s)
        np.multiply(INV_SQRT_2PI, s, out=s)
        t /= s  # r
        np.multiply(0.5, y, out=s)
        s *= t
        np.add(1.0, s, out=s)
        np.divide(t, s, out=s)
        y -= s
    return y


def _phi_inv_block(u, y, low, t, s, upper, tail) -> None:
    """phi_inv of the block u into y (which may be u itself), through the
    scratch arrays low, t, s (float64) and upper, tail (bool) of its size.

    Each operation writes into a buffer, in the order of the expressions:
    fold u to low = min(u, 1 - u) (positive throughout exactly when
    0 < u < 1); read the sign mask u > 0.5 before y is written; start from
    Acklam's central rational num(r) q / den(r), q = low - 0.5, r = q * q,
    on the whole block (its denominator stays above 1.1e-4 for r in
    [0, 0.25]), overwriting the tail cells low < _ACK_SPLIT with the tail
    rational; refine by the Halley steps of :func:`_halley_low`; negate
    the upper half.
    """
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    np.subtract(1.0, u, out=low)
    np.minimum(u, low, out=low)
    if not np.greater(low, 0.0, out=upper).all():  # NaN fails too
        raise ValueError("phi_inv requires 0 < u < 1")
    np.greater(u, 0.5, out=upper)
    np.subtract(low, 0.5, out=s)  # q
    np.multiply(s, s, out=t)  # r
    np.multiply(a[0], t, out=y)
    for k in range(1, 5):
        y += a[k]
        y *= t
    y += a[5]
    y *= s
    np.multiply(b[0], t, out=s)
    for k in range(1, 5):
        s += b[k]
        s *= t
    s += 1.0
    y /= s
    if np.less(low, _ACK_SPLIT, out=tail).any():
        q = np.sqrt(-2.0 * np.log(low[tail]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        y[tail] = num / den
    _halley_low(low, y, t, s)
    np.negative(y, out=y, where=upper)


def phi_inv(u, out=None):
    """Inverse of Phi on (0, 1), elementwise over an array of any shape.

    Antisymmetry phi_inv(1 - u) = -phi_inv(u) holds exactly by construction:
    arguments above one half are mapped by u -> 1 - u, which is exact in
    binary floating point on (1/2, 1).  For |u| or |1 - u| below 2**-63 use
    :func:`phi_inv_tail` instead.  The points are taken in blocks of
    2**14, through scratch buffers allocated once per call; every step is
    elementwise, so the blocking changes no value.

    ``out``, when given, receives the values and is returned: a writable
    C-contiguous float64 array of u's shape, which may be u itself (then u
    is overwritten; each block's sign is read before its values are
    written) but must not overlap it otherwise.  Any other ``out`` raises
    ValueError before anything is written.  A point outside 0 < u < 1, NaN
    included, raises ValueError; the blocks before its own are then already
    written to ``out``.  The grid samplers reach it through
    :func:`grid_normal_runs`, one call per block of decoded or coarsened
    rows for all its runs above GRID_TABLE_MAX_P, as each call pays a fixed
    cost of about 30 us however few its points (against 0.7 ms for a block
    of 2**14).
    """
    arr = np.asarray(u, dtype=np.float64)
    if out is None:
        y = np.empty(arr.shape)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == arr.shape
              and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"phi_inv out must be a writable C-contiguous float64 array of shape {arr.shape}")
    elif np.may_share_memory(arr, out) and not (arr.flags.c_contiguous and arr.ctypes.data == out.ctypes.data):
        raise ValueError("phi_inv out must be u itself or not overlap it")
    else:
        y = out
    flat, flat_y = arr.reshape(-1), y.reshape(-1)
    size = min(flat.size, _PHI_INV_BLOCK)
    low, t, s = np.empty(size), np.empty(size), np.empty(size)
    upper, tail = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    for a in range(0, flat.size, _PHI_INV_BLOCK):
        n = min(_PHI_INV_BLOCK, flat.size - a)
        _phi_inv_block(flat[a:a + n], flat_y[a:a + n], low[:n], t[:n], s[:n], upper[:n], tail[:n])
    if out is None and arr.ndim == 0:
        return float(y)
    return y


def phi_inv_tail(t: float) -> float:
    """Phi^{-1}(1 - 2**-t) for real 1 <= t <= TAIL_MAX_T, solved on the log scale.

    Works far beyond the resolution of 1 - 2**-t in double precision and is
    free of cancellation; relative accuracy is ~1e-14.  Any other t, NaN
    included, raises ValueError.
    """
    t = float(t)
    check_finite(t=t)
    if t < 1.0:
        raise ValueError(f"tail exponent t must be >= 1, got {t}")
    if t > TAIL_MAX_T:
        raise ValueError(f"tail exponent t must be at most {TAIL_MAX_T} (2**-t underflows beyond it), got {t}")
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


def _mid_quantiles(p: int, f0: int, f1: int) -> np.ndarray:
    """Support points x_f of the p-bit normal for cells f0 <= f < f1 (p <= 26,
    so every midpoint is below 1; the field arange is freed before phi_inv).
    The quantiles go to a new array, not over the midpoints: the fields and
    midpoints set the peak either way, and a grid table built over its
    midpoints left later level-13 bridge batches 2 MB more peak RSS under
    glibc's malloc."""
    return phi_inv(dyadic_values(np.arange(f0, f1), p))


def bit_normal_support(p: int) -> np.ndarray:
    """The 2**p support points x_f of the p-bit normal, in ascending order."""
    _exact_precision(p, "support")
    return _mid_quantiles(p, 0, 1 << p)


# Quantile values of whole dyadic grids are reused heavily by the samplers;
# memoizing them up to this precision turns bulk draws into table lookups.
GRID_TABLE_MAX_P = 20


@functools.cache
def _grid_table(p: int) -> np.ndarray:
    """The 2**p support points of the p-bit normal for p <= GRID_TABLE_MAX_P, read-only."""
    table = _mid_quantiles(p, 0, 1 << p)
    table.flags.writeable = False  # shared by every caller
    return table


def grid_normal_runs(runs) -> list[np.ndarray]:
    """The p-bit grid normals of each (indices, p) pair of ``runs``: one
    array per pair in the shape of its grid indices, the p-bit fields f.

    This is the one route from sampled grid indices to normals, and the
    one place that reads GRID_TABLE_MAX_P.  A pair at p <= GRID_TABLE_MAX_P
    is looked up at f in the cached full-grid table; all pairs above it
    share one :func:`phi_inv` call (none when there are none) at the dyadic
    midpoints u of :func:`bitcore.dyadic_values`, and each gets a view of
    its output.  Only from p = 53 on can u round to 1.0 (field 2**53 - 1 at
    p = 53, the top 513 fields at p = 63); there, and only there, the value
    is minus that of the mirror field 2**p - 1 - f, whose midpoint is
    1 - u.  Every other value is ``phi_inv(dyadic_values(f, p))``, bit for
    bit, as the table holds exactly those values.  A field of 2**p or more
    raises (IndexError from the table, ValueError from phi_inv).
    """
    out, deep, flips, off = [], [], [], 0  # deep: the slots of out holding midpoints above the table cap
    for i, p in runs:
        i = np.asarray(i, dtype=np.uint64)
        if p <= GRID_TABLE_MAX_P:
            out.append(_grid_table(p).take(i))
            continue
        u = dyadic_values(i, p)
        if p > 52:  # (2f + 1) 2**-(p+1) is exact, so below 1, up to p = 52
            top = np.flatnonzero(u == 1.0)
            if top.size:
                u.reshape(-1)[top] = dyadic_values(np.uint64((1 << int(p)) - 1) - i.reshape(-1)[top], p)
                flips.append(off + top)
        deep.append(len(out))
        out.append(u)
        off += u.size
    if deep:
        us = [out[k] for k in deep]
        flat = us[0].reshape(-1) if len(us) == 1 else np.concatenate([u.reshape(-1) for u in us])
        phi_inv(flat, out=flat)
        if flips:
            at = np.concatenate(flips)
            flat[at] = -flat[at]
        off = 0
        for k, u in zip(deep, us):
            out[k] = flat[off:off + u.size].reshape(u.shape)
            off += u.size
    return out


def grid_normal_values(indices: np.ndarray, p: int) -> np.ndarray:
    """The p-bit grid normals at the given grid indices (p-bit fields): the
    one-pair call of :func:`grid_normal_runs`, so
    ``phi_inv(dyadic_values(indices, p))`` wherever that midpoint is below 1,
    and minus the mirror value at the top fields of p >= 53."""
    (y,) = grid_normal_runs([(indices, p)])
    return y


@functools.cache
def grid_normal_byte_table(p: int, q: int) -> np.ndarray:
    """(256, 8/p) q-bit grid normals at the top q bits of the p-bit fields
    of each byte, p in {1, 2, 4, 8} and 1 <= q <= p; built once per (p, q),
    read-only.

    Row b is ``grid_normal_values(byte_fields(p)[b] >> (p - q), q)``, so a
    lookup by stream byte gives the values of :func:`grid_normal_runs` at
    the fields truncated to q bits by construction: q = p decodes a byte
    run of a sample, q < p its coarsening (:class:`gausskl.RunDecoder`);
    every other grid value comes from grid_normal_runs.
    """
    if not 1 <= q <= p:
        raise ValueError(f"cannot truncate {p}-bit fields to {q} bits")
    table = grid_normal_values(byte_fields(p) >> np.uint64(p - q), q)
    table.flags.writeable = False  # shared by every caller
    return table


def _quantile_density(u):
    """phi(y) and y * phi(y) at y = Phi^{-1}(u); both are 0 at the infinite edges u = 0, 1."""
    interior = (u > 0.0) & (u < 1.0)
    y = np.where(interior, u, 0.5)
    phi_inv(y, out=y)
    y[~interior] = 0.0
    pdf = np.where(interior, INV_SQRT_2PI * np.exp(-0.5 * y * y), 0.0)
    return pdf, y * pdf


def _sq_error(width, c, pdf_lo, pdf_hi, ypdf_lo, ypdf_hi):
    """int (Phi^{-1}(u) - c)^2 du over cells of the given width from the density
    terms at their edges (int y^2 phi = Phi - y phi, int y phi = -phi)."""
    return (1.0 + c * c) * width + 2.0 * c * (pdf_hi - pdf_lo) - (ypdf_hi - ypdf_lo)


def gaussian_cells(p: int, f0: int, f1: int, c=None):
    """The points c of cells f0 <= f < f1 of the 2**p uniform cells of (0, 1),
    by default their averages, and each cell's int (Phi^{-1}(u) - c_f)^2 du,
    from one ``phi_inv`` pass over the cells' edges."""
    pdf, ypdf = _quantile_density(dyadic_edges(f0, f1, p))
    c = (pdf[:-1] - pdf[1:]) / 2.0 ** -p if c is None else np.asarray(c, dtype=np.float64)
    return c, _sq_error(2.0 ** -p, c, pdf[:-1], pdf[1:], ypdf[:-1], ypdf[1:])


def _mid_terms(p: int, f0: int, f1: int):
    """Support points x_f of cells f0 <= f < f1 and each cell's int (Phi^{-1}(u) - x_f)^2 du."""
    return gaussian_cells(p, f0, f1, _mid_quantiles(p, f0, f1))


def cell_chunks(p: int, upper: bool = False):
    """(f0, f1) for the chunks of at most 2**20 cells that cover the 2**p
    uniform cells, or their upper half, in ascending order."""
    n = 1 << p
    return ((f0, min(f0 + _CHUNK, n)) for f0 in range(n >> 1 if upper else 0, n, _CHUNK))


def _upper_sums(p: int, terms) -> list[float]:
    """Sums over cells 2**(p-1) <= f < 2**p of each array in terms(f0, f1),
    which covers cells f0 <= f < f1: for each term, one correctly rounded
    :func:`bitcore.exact_sum` per chunk of :func:`cell_chunks`, then one over
    the chunk sums, in ascending order.  Up to p = 21 the half is one chunk
    and each sum is the correctly rounded sum of its cells; from p = 22 on
    it is the exact sum of the rounded chunk sums, rounded once, which can
    be 1 ulp off that (moment 4 at p = 22 is 0x1.7fff61074ea60p+1 against
    0x1.7fff61074ea5fp+1, and moment 2 at p = 24 is another case).  The
    normal-error tables pin these values, so they keep this order."""
    chunk_sums = [[exact_sum(t) for t in terms(f0, f1)] for f0, f1 in cell_chunks(p, upper=True)]
    return [exact_sum(sums) for sums in zip(*chunk_sums)]


_MSE_CACHE: dict[int, float] = {}
_MSE_WHAT = "exact mse (bit_normal_mse_extended gives the asymptotic value)"


def bit_normal_mse(p: int) -> float:
    """Exact mean-square gap E|Y - Y^(p)|^2 between the normal and its p-bit version.

    Evaluated cell by cell with the closed-form Gaussian partial moments
    (int y^2 phi = Phi - y phi, int y phi = -phi, int phi = Phi) and twice
    the sum over the upper half of the cells by :func:`_upper_sums`: exact
    and correctly rounded up to p = 21, the exact sum of correctly rounded
    2**20-cell chunk sums from p = 22 on.
    """
    _exact_precision(p, _MSE_WHAT)
    if p in _MSE_CACHE:
        return _MSE_CACHE[p]
    (half,) = _upper_sums(p, lambda f0, f1: _mid_terms(p, f0, f1)[1:])
    mse = _MSE_CACHE[p] = 2.0 * half
    return mse


def bit_normal_mse_moments(p: int) -> tuple[float, float, float]:
    """Exact (E|Y - Y^(p)|^2, E|Y^(p)|^2, E|Y^(p)|^4) from one pass over the cells.

    The mse is bit_normal_mse(p), bit for bit (and is cached with it); the
    moments 2**-p * sum_f x_f^r, r = 2 and 4, are summed over the upper half
    of the grid, as x_f^r is even, by :func:`_upper_sums`, so from p = 22 on
    a moment can be 1 ulp off its correctly rounded value (moment 4 at
    p = 22 and moment 2 at p = 24 are).  This is the one route to the moments;
    bit_normal_mse stays as the mse-only pass, which is faster when the
    moments are not needed.
    """
    _exact_precision(p, _MSE_WHAT)

    def terms(f0, f1):
        c, sq = _mid_terms(p, f0, f1)
        return sq, c ** 2, c ** 4

    half, s2, s4 = _upper_sums(p, terms)
    mse = _MSE_CACHE[p] = 2.0 * half
    return mse, 2.0 ** -(p - 1) * s2, 2.0 ** -(p - 1) * s4


# Empirical value of 2**p * p * mse(p), frozen from the exact value at p = 26
# (regenerate with: rbitmc normal-error --pmin 26 --pmax 26 --seed 0).  The
# proof-side upper bound for the same constant is 49/(6 ln 4) ~ 5.891.
MSE_SCALED_LIMIT = 1.698411106154


def bit_normal_mse_extended(p: int) -> float:
    """The mean-square gap E|Y - Y^(p)|^2 for every p >= 1: bit_normal_mse,
    exact, for p <= MSE_EXACT_MAX_P (26), and the asymptotic surrogate
    MSE_SCALED_LIMIT * 2**-p / p beyond.  The CLI tables flag the rows whose
    bit counts reach the surrogate; a p that is not a positive integer
    raises ValueError."""
    check_count("p", p, 1)
    if p <= MSE_EXACT_MAX_P:
        return bit_normal_mse(p)
    return MSE_SCALED_LIMIT * 2.0 ** -p / p


def coefficient_error_sq(terms) -> float:
    """sum mse(p) * w over the (p, w) pairs of ``terms``, by math.fsum in
    their order, with mse from :func:`bit_normal_mse_extended`.

    The coefficient part of the error E||X - X^(p)||^2 of a random-bit
    Gaussian expansion with independent coefficients: w is the summed
    weight (eigenvalue or squared basis norm) of the coefficients with p
    bits, one pair per run of equal counts, so no per-coefficient array
    is built.
    """
    return math.fsum(bit_normal_mse_extended(int(p)) * w for p, w in terms)


def checked_quad(f, a: float, b: float, cell: tuple[float, float], **kwargs) -> float:
    """int_a^b f by ``scipy.integrate.quad``, refusing results it cannot certify.

    Raises ValueError naming ``cell`` (the grid cell the integral belongs
    to) when quad reports a problem -- subdivision limit reached, roundoff,
    probable divergence, bad integrand -- or returns a non-finite value.
    """
    from scipy.integrate import quad  # only tail_sum pays its import

    out = quad(f, a, b, full_output=1, **kwargs)
    if len(out) > 3:  # quad appends its message only when ier > 0
        reason = out[3].splitlines()[0]
        raise ValueError(f"divergent cell integral on ({cell[0]}, {cell[1]}): {reason}")
    if not np.isfinite(out[0]):
        raise ValueError(f"divergent cell integral on ({cell[0]}, {cell[1]})")
    return out[0]


def law_cells(quantile_spec, p: int, upper: bool = False):
    """(f0, averages, squared errors) of ``quantile_spec.cells(p, f0, f1)`` for
    the chunks of :func:`cell_chunks` over the 2**p uniform cells of (0, 1),
    or over their upper half, in ascending order.

    p is refused here, before any cell is built (ValueError, CapacityError
    above MSE_EXACT_MAX_P); the chunks are built as they are read, and a
    chunk with an average that is not finite raises ValueError (the
    quantile is not integrable over that cell).
    """
    _exact_precision(p, "W2 cells")
    return (_integrable(f0, *quantile_spec.cells(p, f0, f1)) for f0, f1 in cell_chunks(p, upper))


def _integrable(f0: int, c, sq):
    """(f0, c, sq) of one chunk of :func:`law_cells`, whose averages c must be finite."""
    if not np.all(np.isfinite(c)):
        raise ValueError("divergent cell integral: quantile not integrable")
    return f0, c, sq


def optimal_points(quantile_spec, p: int) -> np.ndarray:
    """Best-approximation support for fixed uniform weights 2**-p.

    The k-th point is the average of the quantile function over the k-th
    cell of the uniform partition of (0, 1) into 2**p cells, read chunk by
    chunk from the law's closed form ``quantile_spec.cells`` through
    :func:`law_cells` (which refuses p and non-finite averages).
    """
    cells = law_cells(quantile_spec, p)
    pts = np.empty(1 << p)
    for f0, c, _ in cells:
        pts[f0:f0 + len(c)] = c
    return pts


def func_h(a: float) -> float:
    """h(a) = int_0^a exp(x^2/2) dx by adaptive quadrature (rel. tol 1e-12)."""
    a = float(a)
    check_finite(a=a)
    if a <= 0.0:
        raise ValueError("func_h requires a > 0")
    factor = 0.5 * a * a
    if factor > 709.0:
        raise CapacityError(f"func_h overflows double precision for a above sqrt(1418) = 37.66 "
                            f"(0.5 a**2 > 709), got a = {a!r}")
    from scipy.integrate import quad

    # scaled integrand exp((x^2 - a^2)/2) <= 1 avoids overflow inside quad
    val, _ = quad(lambda x: math.exp(0.5 * (x * x - a * a)), 0.0, a,
                  epsabs=0.0, epsrel=1e-12, limit=400)
    return val * math.exp(factor)


def func_g(a: float) -> float:
    """g(a) = int_a^inf (x - a)^2 phi(x) dx = (1 + a^2)(1 - Phi(a)) - a phi(a)."""
    a = float(a)
    check_finite(a=a)
    if a < 0.0:
        raise ValueError("func_g requires a >= 0")
    return (1.0 + a * a) * Phi(-a) - a * phi(a)


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
    log2_3 = math.log2(3.0)
    rows = []
    for p in ps:
        y = phi_inv_tail(p)
        ratio2 = 2.0 ** -p * p * func_h(y) * math.sqrt(2.0 * math.pi) * LN4 if y > 0 else math.nan
        y_b = phi_inv_tail(p + 1.0)
        y_a = phi_inv_tail(p + 2.0 - log2_3)
        one_minus_a = 3.0 * 2.0 ** -(p + 2.0)
        b_minus_a = 2.0 ** -(p + 2.0)
        g_scaled = math.ldexp(func_g(y_b), int(p)) * 2.0 ** (p % 1.0)  # g 2**p; 2.0 ** p overflows from p = 1024
        rows.append((y / (math.sqrt(LN4) * math.sqrt(p)), ratio2, g_scaled * p * LN4,
                     phi(y) / (SQRT_2 * 2.0 ** -p * math.sqrt(p * LN2)),
                     (y_b - y_a) * one_minus_a * math.sqrt((p + 2.0) * LN2 - math.log(3.0)) / b_minus_a))
    r1, r2, r3, r4, r5 = np.array(rows, dtype=np.float64).reshape(-1, 5).T
    return {"p": ps, "ratio1": r1, "ratio2": r2, "ratio3": r3, "ratio4": r4, "ratio5": r5}
