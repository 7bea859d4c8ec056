"""Scalar autonomous SDE approximation on [0, 1]:

    dX = a(X) dt + b(X) dW,     X(0) = x0,

by the Milstein scheme on m equidistant steps, its random-bit version with
q-bit grid normals as driving increments, and the continuous-time refinement
that adds one random-bit bridge per step on top of the piecewise-linear
skeleton interpolation.

Coefficients are assumed differentiable with bounded, Lipschitz continuous
derivatives (a caller obligation; it cannot be checked at runtime), and
b(x0) != 0 so the equation is genuinely stochastic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bitcore import MAX_BITS, BitAllocation, BitSource, CostLedger, truncate_indices  # noqa: F401
from .bridge import allocation_bridge, allocation_bridge_total, evaluate_coeffs
from .errors import InternalInvariantError, NumericFailure
from .gausskl import coarsen_rows, sample_rows
from .normal import Phi, grid_normal_values

PARENT_BITS = MAX_BITS  # precision of the coupling uniforms in experiments
FINE_FACTOR = 64  # step refinement of the fallback reference scheme
_BLOCK_BYTES = 1 << 20  # parent indices drawn at once by strong_error_experiment


@dataclass
class SDEModel:
    drift: Callable
    diffusion: Callable
    diffusion_deriv: Callable
    x0: float
    # exact pathwise solution (t_grid, W_grid) -> values, when available
    exact_strong_solution: Optional[Callable] = None

    def __post_init__(self):
        if self.diffusion(self.x0) == 0.0:
            raise ValueError("diffusion must not vanish at x0 (deterministic equation)")


def geometric_model(mu: float, sigma: float, x0: float = 1.0) -> SDEModel:
    """dX = mu X dt + sigma X dW with exact solution x0 exp((mu - sigma^2/2) t + sigma W)."""
    for name, value in (("mu", mu), ("sigma", sigma), ("x0", x0)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if sigma == 0.0 or x0 == 0.0:
        raise ValueError("geometric model requires sigma != 0 and x0 != 0")

    def exact(t_grid, w_grid):
        t = np.asarray(t_grid, dtype=np.float64)
        w = np.asarray(w_grid, dtype=np.float64)
        return x0 * np.exp((mu - 0.5 * sigma * sigma) * t + sigma * w)

    return SDEModel(
        drift=lambda x: mu * x,
        diffusion=lambda x: sigma * x,
        diffusion_deriv=lambda x: sigma * np.ones_like(np.asarray(x, dtype=np.float64)),
        x0=x0,
        exact_strong_solution=exact,
    )


@dataclass
class MilsteinPath:
    m: int
    values: np.ndarray  # shape (m + 1,), values at t_k = k/m
    retained_indices: Optional[np.ndarray] = None  # q-bit grid indices of a random-bit path


def _check_steps(m: int) -> None:
    if m < 1:
        raise ValueError("m must be a positive integer")


def _check_scheme(m: int, q: int) -> None:
    """Refuse m steps or q-bit increments before any bit is drawn."""
    _check_steps(m)
    if not isinstance(q, (int, np.integer)) or not 1 <= q <= PARENT_BITS:  # truncations of the parents
        raise ValueError(f"q must be an integer in [1, {PARENT_BITS}], got {q!r}")


def _milstein_rows(model: SDEModel, m: int, normals: np.ndarray) -> np.ndarray:
    """Milstein recursion for a batch: normals shape (rows, m) -> (rows, m+1)."""
    rows = normals.shape[0]
    out = np.empty((rows, m + 1), dtype=np.float64)
    x = np.full(rows, model.x0, dtype=np.float64)
    out[:, 0] = x
    inv_m = 1.0 / m
    sq_m = math.sqrt(inv_m)
    for k in range(m):
        y = normals[:, k]
        bx = model.diffusion(x)
        x = (x + model.drift(x) * inv_m + bx * sq_m * y
             + 0.5 * bx * model.diffusion_deriv(x) * inv_m * (y * y - 1.0))
        if not np.all(np.isfinite(x)):
            raise NumericFailure(f"non-finite state at step {k + 1}", step=k + 1)
        out[:, k + 1] = x
    return out


def milstein_path(model: SDEModel, m: int, normals) -> MilsteinPath:
    """Milstein scheme driven by the given normalized increments."""
    _check_steps(m)
    normals = np.asarray(normals, dtype=np.float64)
    if normals.shape != (m,):
        raise ValueError(f"expected {m} normalized increments, got shape {normals.shape}")
    return MilsteinPath(m, _milstein_rows(model, m, normals[np.newaxis, :])[0])


def rbit_milstein_path(src: BitSource, model: SDEModel, m: int, q: int) -> MilsteinPath:
    """Random-bit Milstein scheme; consumes exactly m * q bits.

    The m increments are one row of :func:`gausskl.sample_rows` under m
    q-bit coefficients: q-bit grid normals in step order.  Their grid
    indices are retained so the coupled exact-increment companion can be
    reconstructed by the caller.
    """
    _check_scheme(m, q)
    y, idx = sample_rows(src, BitAllocation(np.full(m, q)), 1)
    return MilsteinPath(m, _milstein_rows(model, m, y)[0], retained_indices=idx[0])


def sde_bit_cost(m: int, q: int, level: int) -> int:
    """Total bit cost m * (q + 2**(level+2) - 2*level - 4) of the refined path."""
    if m < 1 or q < 1 or level < 1:
        raise ValueError("m, q, level must be positive integers")
    return m * (q + allocation_bridge_total(level))


@dataclass
class RefinedPath:
    """Skeleton values plus per-interval bridge coefficients of X^(q, level)."""

    m: int
    q: int
    level: int
    skeleton: MilsteinPath
    bridge_coeffs: np.ndarray  # shape (m, 2**level - 1)
    bits: int

    def evaluate(self, model: SDEModel, grid) -> np.ndarray:
        t = np.asarray(grid, dtype=np.float64)
        if np.any((t < 0.0) | (t > 1.0)) or np.any(np.diff(t) < 0):
            raise ValueError("grid must be sorted within [0, 1]")
        m = self.m
        k = np.minimum((t * m).astype(np.int64), m - 1)
        s = t * m - k
        xk = self.skeleton.values[k]
        xk1 = self.skeleton.values[k + 1]
        vals = s * xk1 + (1.0 - s) * xk
        bx = np.asarray(model.diffusion(xk), dtype=np.float64)
        for interval in np.unique(k):
            mask = k == interval
            bridge = evaluate_coeffs(self.bridge_coeffs[interval], self.level, s[mask])
            vals[mask] = vals[mask] + bx[mask] * bridge / math.sqrt(m)
        return vals


def refined_path_sample(src: BitSource, model: SDEModel, m: int, q: int, level: int) -> RefinedPath:
    """Draw one continuous-time random-bit approximation X^(q, level).

    Draw order: the m-step skeleton (m*q bits), then one level-`level` bridge
    per step, as the m rows of :func:`gausskl.sample_rows`; bits = sde_bit_cost.
    """
    before = src.bits_drawn
    skeleton = rbit_milstein_path(src, model, m, q)
    coeffs, _ = sample_rows(src, allocation_bridge(level), m)
    used = src.bits_drawn - before
    expected = sde_bit_cost(m, q, level)
    if used != expected:
        raise InternalInvariantError(f"bit accounting mismatch: {used} != {expected}")
    return RefinedPath(m, q, level, skeleton, coeffs, used)


def _step_blocks(steps: int, reps: int):
    """Yield (k0, k1) step ranges of at most _BLOCK_BYTES of uint64 indices."""
    per = max(1, _BLOCK_BYTES // (8 * reps))
    for k0 in range(0, steps, per):
        yield k0, min(k0 + per, steps)


def strong_error_experiment(model: SDEModel, m: int, q: int, reps: int, seed: int) -> tuple[float, CostLedger]:
    """RMS of max_k |X_ref(t_k) - X_m^(q)(t_k)| over coupled replications.

    The bit scheme and the reference share driving randomness: each step
    draws one 63-bit parent uniform per replication; the reference uses its
    full-precision normal, the bit scheme the q-bit truncation.  The model
    picks the reference: its exact strong solution when it has one
    (``model.exact_strong_solution``), otherwise a Milstein path on a 64x
    finer grid over the same Brownian path.

    Draw order is step-major: step k is row k of :func:`gausskl.sample_rows`
    under ``reps`` 63-bit coefficients, one per replication (53-bit rows
    over the 64*m fine steps for the fallback), and the q-bit increments
    are its :func:`gausskl.coarsen_rows`.  Steps are drawn and transformed
    in blocks of about 1 MiB of uint64 indices (``_BLOCK_BYTES``), at least
    one step per block; the block size changes neither values nor bit
    counts.  The ledger's bits are what the run's source counted: |p| of
    every step row, PARENT_BITS * reps (53 * reps per fine step).  A
    reference that is not finite raises NumericFailure, as a non-finite
    Milstein state does.
    """
    _check_scheme(m, q)
    if reps < 1:
        raise ValueError("reps must be a positive integer")
    src = BitSource(seed)
    ledger = CostLedger()
    if model.exact_strong_solution is not None:
        parent = BitAllocation(np.full(reps, PARENT_BITS))
        child = BitAllocation(np.full(reps, q))
        y = np.empty((reps, m), dtype=np.float64)
        yq = np.empty((reps, m), dtype=np.float64)
        for k0, k1 in _step_blocks(m, reps):
            y_blk, idx = sample_rows(src, parent, k1 - k0)
            y[:, k0:k1] = y_blk.T
            yq[:, k0:k1] = coarsen_rows(idx, parent, child)[0].T
        w = np.cumsum(y, axis=1) / math.sqrt(m)
        t = np.arange(1, m + 1, dtype=np.float64) / m
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
            ref = model.exact_strong_solution(t, w)
        if not np.all(np.isfinite(ref)):
            raise NumericFailure("non-finite exact reference solution")
    else:
        mf = FINE_FACTOR * m
        fine = BitAllocation(np.full(reps, 53))
        yf = np.empty((reps, mf), dtype=np.float64)
        for k0, k1 in _step_blocks(mf, reps):
            yf[:, k0:k1] = sample_rows(src, fine, k1 - k0)[0].T
        y = yf.reshape(reps, m, FINE_FACTOR).sum(axis=2) / math.sqrt(FINE_FACTOR)
        u = Phi(y)
        idx_q = np.minimum((u * 2.0**q).astype(np.int64), (1 << q) - 1).astype(np.uint64) + np.uint64(1)
        yq = grid_normal_values(idx_q, q)
        ref = _milstein_rows(model, mf, yf)[:, FINE_FACTOR::FINE_FACTOR]
    ledger.bits = src.bits_drawn
    bit = _milstein_rows(model, m, yq)[:, 1:]
    ledger.coeff_ops += m * reps
    err = np.max(np.abs(ref - bit), axis=1)
    return float(np.sqrt(np.mean(err * err))), ledger
