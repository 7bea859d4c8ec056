"""Reference forms that only the tests call: the lazy per-point bridge
evaluation, the cross moment of the p-bit normal, the per-cell Gaussian
error and average, a block decode that returns index rows with the
coefficient rows, and a draw over given words.

Each oracle is a second, simpler route to a value the package computes in
a faster form (:func:`rbitmc.bridge.nodes_from_coeffs`,
:func:`rbitmc.normal.bit_normal_mse`, :func:`rbitmc.normal.gaussian_cells`,
:func:`rbitmc.gausskl.sample_rows`), so the tests compare the two.  They
build on the package's private pieces, so their values keep the bits the
golden files pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from rbitmc.bitcore import _StreamDraw, dyadic_edges
from rbitmc.bridge import _check_level, _hat
from rbitmc.gausskl import DrawnRows, RunDecoder, _index_rows, read_runs
from rbitmc.normal import _exact_precision, _mid_quantiles, _quantile_density, _sq_error, _upper_sums


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


def bit_normal_cross_moment(p: int) -> float:
    """Exact E[Y * Y^(p)] = sum_f x_f * (phi(y_f) - phi(y_{f+1})), y_f = Phi^{-1}(f 2**-p)."""
    _exact_precision(p, "cross moment")

    def terms(f0, f1):
        pdf, _ = _quantile_density(dyadic_edges(f0, f1, p))
        return (_mid_quantiles(p, f0, f1) * (pdf[:-1] - pdf[1:]),)

    (half,) = _upper_sums(p, terms)
    return 2.0 * half


def gaussian_cell_sq_error(u_lo, u_hi, c):
    """int_{u_lo}^{u_hi} (Phi^{-1}(u) - c)^2 du in closed form (vectorized).

    u_lo = 0 and u_hi = 1 are admitted as the unbounded edges.
    """
    u_lo = np.asarray(u_lo, dtype=np.float64)
    u_hi = np.asarray(u_hi, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    pdf_lo, ypdf_lo = _quantile_density(u_lo)
    pdf_hi, ypdf_hi = _quantile_density(u_hi)
    out = _sq_error(u_hi - u_lo, c, pdf_lo, pdf_hi, ypdf_lo, ypdf_hi)
    return float(out) if out.ndim == 0 else out


def gaussian_cell_average(u_lo, u_hi):
    """Mean of Phi^{-1} over (u_lo, u_hi) in closed form (vectorized; int y phi = -phi).

    u_lo = 0 and u_hi = 1 are admitted as the unbounded edges.
    """
    u_lo = np.asarray(u_lo, dtype=np.float64)
    u_hi = np.asarray(u_hi, dtype=np.float64)
    return (_quantile_density(u_lo)[0] - _quantile_density(u_hi)[0]) / (u_hi - u_lo)


def decode_block(drawn: DrawnRows, a: int, b: int, scale: Optional[np.ndarray] = None,
                 out: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Rows a..b of ``drawn`` as sample_rows returns them: (coefficient rows,
    into ``out`` when given; index rows of every column), from one read of
    the block's runs."""
    runs = read_runs(drawn, a, b)
    return RunDecoder(drawn.alloc, drawn.alloc)(runs, b - a, scale, out), _index_rows(runs, b - a)


@dataclass
class HeldWords:
    """A draw over the given words ``held`` from bit ``start`` on, in the
    layout of :meth:`rbitmc.bitcore.BitSource.take_words` (one word past
    the last bit): the stream handle of :class:`DrawnRows` with its words
    sliced instead of generated, so crafted words, or the words of a
    ``take_words`` call, are read as a draw's."""

    held: np.ndarray
    start: int

    @property
    def nwords(self) -> int:
        return len(self.held) - 2

    def words(self, i0: int, i1: int) -> np.ndarray:
        return self.held[i0:i1]

    window = _StreamDraw.window
