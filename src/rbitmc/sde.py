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
1/(m 2**level), where it is piecewise linear.  The strong-error experiment
(:func:`strong_error_experiment`) holds its increments step-major, the layout
the recursion runs on, and decodes them in blocks of steps on min(2, usable
CPUs) threads (:func:`bitcore.run_blocks`), the q-bit increments straight
from the parents' fields (:class:`gausskl.RunDecoder`).  With an exact
reference it holds three (m, reps) float64 arrays at once and its tail
allocates no other: the Brownian path is summed into the parents' buffer,
which is dropped once the model has built its reference from it, and the
error is formed in the Milstein path's buffer.

Coefficients are assumed differentiable with bounded, Lipschitz continuous
derivatives (a caller obligation; it cannot be checked at runtime), and
b(x0) != 0 so the equation is genuinely stochastic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bitcore import MAX_BITS, BitAllocation, BitSource, CostLedger, check_count, check_finite, run_blocks
# truncate_indices: unused, kept for perfbench/selftest.py
from .bitcore import truncate_indices  # noqa: F401
from .bridge import allocation_bridge, allocation_bridge_total, nodes_from_drawn
from .errors import InternalInvariantError, NumericFailure
from .gausskl import RunDecoder, draw_rows, read_runs
from .normal import Phi, grid_normal_values

PARENT_BITS = MAX_BITS  # precision of the coupling uniforms in experiments
FINE_FACTOR = 64  # step refinement of the fallback reference scheme
_BLOCK_BYTES = 1 << 20  # fields of all step blocks in flight in strong_error_experiment
_BATCH_BYTES = 4 << 20  # drawn words per batch of steps


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
    check_finite(mu=mu, sigma=sigma, x0=x0)
    if sigma == 0.0 or x0 == 0.0:
        raise ValueError("geometric model requires sigma != 0 and x0 != 0")

    def exact(t_grid, w_grid):
        # x0 * exp(drift * t + sigma * w), built in one array
        t = np.asarray(t_grid, dtype=np.float64)
        w = np.asarray(w_grid, dtype=np.float64)
        out = np.multiply(sigma, w, out=np.empty(np.broadcast_shapes(t.shape, w.shape)))
        out += (mu - 0.5 * sigma * sigma) * t
        np.exp(out, out=out)
        out *= x0
        return out

    return SDEModel(
        drift=lambda x: mu * x,
        diffusion=lambda x: sigma * x,
        diffusion_deriv=lambda x: sigma * np.ones_like(np.asarray(x, dtype=np.float64)),
        x0=x0,
        exact_strong_solution=exact,
    )


def _check_scheme(m: int, q: int) -> None:
    """Refuse m steps or q-bit increments before any bit is drawn."""
    check_count("m", m, 1)
    check_count("q", q, 1, PARENT_BITS)  # truncations of the parents


def milstein_rows(model: SDEModel, m: int, normals) -> np.ndarray:
    """Milstein scheme on m steps for a batch of driving rows: normalized
    increments of shape (rows, m) -> path values at t_k = k/m, (rows, m + 1).

    The random-bit scheme drives it with q-bit grid normals, the rows of
    :func:`gausskl.sample_rows` under m q-bit coefficients; their index rows
    are what a coupled companion re-truncates.  The recursion runs step by
    step on a contiguous step-major (m, rows) copy of the increments, which
    is no copy when ``normals`` is the transpose of step-major rows, and
    fills an (m + 1, rows) array whose (rows, m + 1) transpose it returns.
    A non-finite state raises NumericFailure naming its step.
    """
    check_count("m", m, 1)
    normals = np.asarray(normals, dtype=np.float64)
    if normals.ndim != 2 or normals.shape[1] != m:
        raise ValueError(f"expected normalized increments of shape (rows, {m}), got shape {normals.shape}")
    steps = np.ascontiguousarray(normals.T)
    out = np.empty((m + 1, normals.shape[0]), dtype=np.float64)
    x = np.full(normals.shape[0], model.x0, dtype=np.float64)
    out[0] = x
    inv_m = 1.0 / m
    sq_m = math.sqrt(inv_m)
    for k in range(m):
        y = steps[k]
        bx = model.diffusion(x)
        x = (x + model.drift(x) * inv_m + bx * sq_m * y
             + 0.5 * bx * model.diffusion_deriv(x) * inv_m * (y * y - 1.0))
        if not np.all(np.isfinite(x)):
            raise NumericFailure(f"non-finite state at step {k + 1}", step=k + 1)
        out[k + 1] = x
    return out.T


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
    x_m.  Draw order: the n skeleton rows (the rows of one
    :func:`gausskl.sample_rows` call under m q-bit coefficients, decoded
    from their runs with no index rows), then n * m bridge rows under
    :func:`bridge.allocation_bridge`, path-major (row i * m + k is step k of
    path i), which go from their drawn words straight to node rows
    (:func:`bridge.nodes_from_drawn`).  Bits = n * sde_bit_cost; m, q,
    level and n are refused before the first draw.
    """
    check_count("n", n, 1)
    expected = n * sde_bit_cost(m, q, level)
    before = src.bits_drawn
    skeleton = BitAllocation(np.full(m, q))
    x = milstein_rows(model, m, RunDecoder(skeleton, skeleton)(read_runs(draw_rows(src, skeleton, n), 0, n), n))
    bridges = draw_rows(src, allocation_bridge(level), n * m)
    used = src.bits_drawn - before
    if used != expected:
        raise InternalInvariantError(f"bit accounting mismatch: {used} != {expected}")
    h = 1 << level
    s = np.arange(h) / h
    xk, xk1 = x[:, :-1, np.newaxis], x[:, 1:, np.newaxis]
    bridge = nodes_from_drawn(read_runs(bridges, 0, n * m), n * m)[:, :-1].reshape(n, m, h)
    nodes = s * xk1 + (1.0 - s) * xk + model.diffusion(xk) * bridge / math.sqrt(m)
    return np.concatenate([nodes.reshape(n, m * h), x[:, m:]], axis=1)


def _decode_steps(src: BitSource, parent: BitAllocation, out: np.ndarray,
                  child: Optional[BitAllocation] = None, out_child: Optional[np.ndarray] = None) -> None:
    """Draw len(out) step rows under ``parent`` from ``src`` and decode them
    into the step-major rows ``out``, and their q-bit truncations under
    ``child`` into ``out_child`` when given.

    The calling thread draws the steps a batch at a time, _BATCH_BYTES of
    words (at least one step), in the stream order of one
    :func:`gausskl.sample_rows` call on all of them.  The batch's blocks of
    steps are decoded by :func:`bitcore.run_blocks`: each block's runs are
    read once (:func:`gausskl.read_runs`, uint64 fields) and decoded by the
    :class:`gausskl.RunDecoder` of ``parent`` onto itself and onto
    ``child``, with no index rows.  All blocks in flight hold at most
    _BLOCK_BYTES of fields (at least one step each), and each block writes
    only its own rows of ``out`` and ``out_child``.
    """
    reps = len(parent)
    decoders = [(RunDecoder(parent, parent), out)]
    if child is not None:
        decoders.append((RunDecoder(parent, child), out_child))
    batch = max(1, _BATCH_BYTES * 8 // parent.total)
    for s0 in range(0, len(out), batch):
        drawn = draw_rows(src, parent, min(batch, len(out) - s0))

        def blocks_for(threads: int) -> list[tuple[int, int]]:
            per = max(1, _BLOCK_BYTES // threads // (8 * reps))
            return [(a, min(a + per, drawn.n)) for a in range(0, drawn.n, per)]

        def run(blocks: list[tuple[int, int]]) -> None:
            for a, b in blocks:
                runs = read_runs(drawn, a, b)
                for decode, rows in decoders:
                    decode(runs, b - a, None, rows[s0 + a:s0 + b])

        run_blocks(run, blocks_for)


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
    are its :func:`gausskl.coarsen_rows`, decoded from the same fields with
    no index rows (:func:`_decode_steps`).  The increments are held
    step-major, (steps, reps), as :func:`milstein_rows` runs its recursion.
    The calling thread draws the steps in batches of _BATCH_BYTES (4 MiB)
    of words; blocks of a batch's steps are decoded (and coarsened) on
    min(2, usable CPUs) threads (:func:`bitcore.run_blocks`), the blocks in
    flight holding at most _BLOCK_BYTES (1 MiB) of uint64 fields, at least
    one step each.  So besides the increments, the decode holds one batch
    of words and the blocks in flight.  Neither the batches, the blocks nor
    the threads change a value or a bit count.  With the exact reference
    the run holds three (m, reps) float64 arrays at once: the parent
    normals and the q-bit increments while decoding; then the parents'
    cumulative sum, scaled in their own buffer to the Brownian path, the
    increments and the model's reference, built from that path; then, the
    path's buffer dropped, the increments, the reference and the Milstein
    path, in whose buffer |ref - bit| is formed.  The model's array is
    never written, so it may be read-only or a view of its w argument.
    The ledger's bits are what the run's source counted: |p|
    of every step row, PARENT_BITS * reps (53 * reps per fine step).  A
    reference that is not finite raises NumericFailure, as a non-finite
    Milstein state does.
    """
    _check_scheme(m, q)
    check_count("reps", reps, 1)
    src = BitSource(seed)
    ledger = CostLedger()
    if model.exact_strong_solution is not None:
        y = np.empty((m, reps), dtype=np.float64)
        yq = np.empty((m, reps), dtype=np.float64)
        _decode_steps(src, BitAllocation(np.full(reps, PARENT_BITS)), y, BitAllocation(np.full(reps, q)), yq)
        np.cumsum(y, axis=0, out=y)  # the Brownian path, in the parents' buffer
        y /= math.sqrt(m)
        t = np.arange(1, m + 1, dtype=np.float64) / m
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
            ref = model.exact_strong_solution(t, y.T)
        del y  # the tail reads only the model's array from here on
        if not np.all(np.isfinite(ref)):
            raise NumericFailure("non-finite exact reference solution")
        yq = yq.T
    else:
        mf = FINE_FACTOR * m
        yf = np.empty((mf, reps), dtype=np.float64)
        _decode_steps(src, BitAllocation(np.full(reps, 53)), yf)
        # summed over the contiguous rep-major copy: numpy's pairwise order there is the one the values pin
        y = np.ascontiguousarray(yf.T).reshape(reps, m, FINE_FACTOR).sum(axis=2) / math.sqrt(FINE_FACTOR)
        u = Phi(y)
        idx_q = np.minimum((u * 2.0**q).astype(np.uint64), np.uint64((1 << q) - 1))  # u = 1 is the top cell
        yq = grid_normal_values(idx_q, q)
        ref = milstein_rows(model, mf, yf.T)[:, FINE_FACTOR::FINE_FACTOR]
    ledger.bits = src.bits_drawn
    bit = milstein_rows(model, m, yq)[:, 1:]
    ledger.coeff_ops += m * reps
    diff = np.subtract(ref, bit, out=bit)  # into the path's own buffer: ref may be read-only, or a view
    err = np.max(np.abs(diff, out=diff), axis=1)
    return float(np.sqrt(np.mean(err * err))), ledger
