"""Scalar autonomous SDE approximation on [0, 1]:

    dX = a(X) dt + b(X) dW,     X(0) = x0,

by the Milstein scheme on m equidistant steps, its random-bit version with
q-bit grid normals as driving increments, and the continuous-time refinement
that adds one random-bit bridge per step on top of the piecewise-linear
skeleton interpolation.  Paths are rows: :func:`milstein_rows` runs the
scheme on a batch of driving rows, and the random-bit increments are rows of
:func:`gausskl.sample_rows` under m q-bit coefficients (their coupled
truncations rows of :func:`gausskl.coarsen_rows`).  A refined path is a row
too: :func:`refined_rows` returns its values on the nodes of the mesh
1/(m 2**level), where it is piecewise linear.

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
from .bridge import allocation_bridge, allocation_bridge_total, nodes_from_coeffs
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


def _check_steps(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")


def _check_scheme(m: int, q: int) -> None:
    """Refuse m steps or q-bit increments before any bit is drawn."""
    _check_steps(m)
    if not isinstance(q, (int, np.integer)) or not 1 <= q <= PARENT_BITS:  # truncations of the parents
        raise ValueError(f"q must be an integer in [1, {PARENT_BITS}], got {q!r}")


def milstein_rows(model: SDEModel, m: int, normals) -> np.ndarray:
    """Milstein scheme on m steps for a batch of driving rows: normalized
    increments of shape (rows, m) -> path values at t_k = k/m, (rows, m + 1).

    The random-bit scheme drives it with q-bit grid normals, the rows of
    :func:`gausskl.sample_rows` under m q-bit coefficients; their index rows
    are what a coupled companion re-truncates.  A non-finite state raises
    NumericFailure naming its step.
    """
    _check_steps(m)
    normals = np.asarray(normals, dtype=np.float64)
    if normals.ndim != 2 or normals.shape[1] != m:
        raise ValueError(f"expected normalized increments of shape (rows, {m}), got shape {normals.shape}")
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


def sde_bit_cost(m: int, q: int, level: int) -> int:
    """Total bit cost m * (q + 2**(level+2) - 2*level - 4) of one refined path;
    m, q and level outside the domain of :func:`refined_rows` are refused."""
    _check_scheme(m, q)
    return m * (q + allocation_bridge_total(level))


def refined_rows(src: BitSource, model: SDEModel, m: int, q: int, level: int, n: int) -> np.ndarray:
    """Draw n continuous-time random-bit approximations X^(q, level) as node
    rows on the mesh 1/(m 2**level), shape (n, m * 2**level + 1).

    Node k * 2**level + j of a row is (1 - s) x_k + s x_{k+1} +
    b(x_k) B_k(s) / sqrt(m) with s = j / 2**level, x the row's Milstein
    skeleton and B_k the level-``level`` bridge of step k; the last node is
    x_m.  Draw order: the n skeleton rows (one :func:`gausskl.sample_rows`
    call under m q-bit coefficients), then n * m bridge rows under
    :func:`bridge.allocation_bridge`, path-major (row i * m + k is step k of
    path i).  Bits = n * sde_bit_cost; m, q, level and n are refused before
    the first draw.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    expected = n * sde_bit_cost(m, q, level)
    before = src.bits_drawn
    y, _ = sample_rows(src, BitAllocation(np.full(m, q)), n)
    x = milstein_rows(model, m, y)
    coeffs, _ = sample_rows(src, allocation_bridge(level), n * m)
    used = src.bits_drawn - before
    if used != expected:
        raise InternalInvariantError(f"bit accounting mismatch: {used} != {expected}")
    h = 1 << level
    s = np.arange(h) / h
    xk, xk1 = x[:, :-1, np.newaxis], x[:, 1:, np.newaxis]
    bridge = nodes_from_coeffs(coeffs, level)[:, :-1].reshape(n, m, h)
    nodes = s * xk1 + (1.0 - s) * xk + model.diffusion(xk) * bridge / math.sqrt(m)
    return np.concatenate([nodes.reshape(n, m * h), x[:, m:]], axis=1)


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
    if not isinstance(reps, (int, np.integer)) or reps < 1:
        raise ValueError(f"reps must be a positive integer, got {reps!r}")
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
        idx_q = np.minimum((u * 2.0**q).astype(np.uint64), np.uint64((1 << q) - 1)) + np.uint64(1)  # u = 1 is the top cell
        yq = grid_normal_values(idx_q, q)
        ref = milstein_rows(model, mf, yf)[:, FINE_FACTOR::FINE_FACTOR]
    ledger.bits = src.bits_drawn
    bit = milstein_rows(model, m, yq)[:, 1:]
    ledger.coeff_ops += m * reps
    err = np.max(np.abs(ref - bit), axis=1)
    return float(np.sqrt(np.mean(err * err))), ledger
