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
(:func:`strong_error_experiment`) is one pass over batches of steps, about
1 MiB of drawn bits each: it decodes a batch step-major, the layout the
recursion runs on, in blocks of steps on min(2, usable CPUs) threads
(:func:`bitcore.run_blocks`), the q-bit increments straight from the
parents' fields (:class:`gausskl.RunDecoder`), then runs the reference, the
Milstein recursion and the error on that batch alone, carrying only the
states and sums that cross a batch boundary.  So its memory is bounded by
the batch's bytes, not by m.  The recursion is written once
(:func:`_milstein_steps`), for :func:`milstein_rows` and for both paths of
the experiment.

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
_BATCH_BYTES = 1 << 20  # bytes of drawn bits per batch of steps in strong_error_experiment


@dataclass
class SDEModel:
    drift: Callable
    diffusion: Callable
    diffusion_deriv: Callable
    x0: float
    # exact pathwise solution (t_grid, W_grid) -> values, when available;
    # strong_error_experiment calls it once per batch of steps, with the
    # batch's times (steps,) and Brownian values (reps, steps), so it must be
    # pointwise in (t, W(t)), as geometric_model's is
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


def _milstein_steps(model: SDEModel, m: int, x: np.ndarray, steps: np.ndarray, out: np.ndarray,
                    k0: int = 0) -> np.ndarray:
    """The Milstein recursion on the m-step grid from the states x (rows,)
    after step k0, driven by the step-major increments ``steps`` (k, rows)
    of steps k0 + 1..k0 + k: writes the state after each step to its row of
    ``out`` (k, rows), which may be ``steps`` itself, and returns the last.
    A non-finite state raises NumericFailure naming its step on the grid.
    """
    inv_m = 1.0 / m
    sq_m = math.sqrt(inv_m)
    for i, y in enumerate(steps):
        bx = model.diffusion(x)
        x = (x + model.drift(x) * inv_m + bx * sq_m * y
             + 0.5 * bx * model.diffusion_deriv(x) * inv_m * (y * y - 1.0))
        if not np.all(np.isfinite(x)):
            raise NumericFailure(f"non-finite state at step {k0 + i + 1}", step=k0 + i + 1)
        out[i] = x
    return x


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
    out = np.empty((m + 1, normals.shape[0]), dtype=np.float64)
    x = np.full(normals.shape[0], model.x0, dtype=np.float64)
    out[0] = x
    _milstein_steps(model, m, x, np.ascontiguousarray(normals.T), out[1:])
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


def _exact_reference(model: SDEModel, m: int, k0: int, w: np.ndarray,
                     carry: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact reference at steps k0 + 1..k0 + n from the batch's parent
    normals w (n, reps), after the unscaled Brownian sum ``carry`` at step
    k0: turns w into the batch's Brownian path in place and returns the
    model's array, (reps, n), and the unscaled sum after the batch."""
    w[0] += carry
    np.cumsum(w, axis=0, out=w)  # the Brownian path, in the parents' buffer
    carry = w[-1].copy()
    w /= math.sqrt(m)
    t = np.arange(k0 + 1, k0 + len(w) + 1, dtype=np.float64) / m
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        ref = model.exact_strong_solution(t, w.T)
    if not np.all(np.isfinite(ref)):
        raise NumericFailure("non-finite exact reference solution")
    return ref, carry


def _fine_reference(model: SDEModel, m: int, q: int, k0: int, yf: np.ndarray, out: np.ndarray,
                    carry: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fine Milstein reference at steps k0 + 1..k0 + n from the batch's
    64 n fine increments yf, after the fine state ``carry`` at step k0:
    writes the batch's q-bit increments, the truncations of the coarse sums,
    to ``out`` (n, reps), runs the fine states over their own increments,
    and returns every 64th, (reps, n), and the fine state after the batch."""
    n, reps = out.shape
    # summed over the contiguous rep-major copy: numpy's pairwise order there is the one the values pin
    y = np.ascontiguousarray(yf.T).reshape(reps, n, FINE_FACTOR).sum(axis=2) / math.sqrt(FINE_FACTOR)
    u = Phi(y)
    idx_q = np.minimum((u * 2.0**q).astype(np.uint64), np.uint64((1 << q) - 1))  # u = 1 is the top cell
    out[...] = grid_normal_values(idx_q, q).T
    carry = _milstein_steps(model, FINE_FACTOR * m, carry, yf, yf, FINE_FACTOR * k0)
    return yf[FINE_FACTOR - 1::FINE_FACTOR].T, carry


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
    no index rows (:class:`gausskl.RunDecoder`).

    The run is one pass over batches of steps, each _BATCH_BYTES (1 MiB) of
    drawn words or one step if that is more (whole steps of the scheme, 64
    fine steps each, for the fallback).  The calling thread draws a batch in
    stream order, and :func:`bitcore.run_blocks` decodes (and coarsens) its
    steps in blocks on min(2, usable CPUs) threads, with half the batch's
    steps in flight: on two threads a batch of n steps is cut into blocks of
    max(2, n // 4) steps (four quarters when 4 divides n and n >= 8), which
    the calling thread and the pool thread take in turn; on one thread it is
    two halves.  Each block's runs are read once (:func:`gausskl.read_runs`,
    which generates the block's words with the thread's own generator) for
    all its decodes, and each block writes only its own rows.  The tail
    then runs on that batch alone, carrying from batch to batch only the
    unscaled Brownian sum (with the exact reference), the Milstein states
    (the fine one too for the fallback) and the running max error of each
    replication.  So the run holds a few batches' bytes of arrays at any m:
    a block's words, the increments held step-major, (steps, reps), as the
    recursion runs on them, and the reference; the Brownian path is summed
    in the parents' buffer, the Milstein states overwrite their own
    increments, and |ref - bit| is formed in the Milstein path's buffer.
    The model's array is never written, so it may be read-only or a view of
    its w argument.  Neither the batches, the blocks nor the threads change
    a value or a bit count: the cumulative sum is sequential, so the carry
    added into a batch's first step gives the additions of one sum; max is
    exact; and a fallback coarse increment is still the pairwise sum of its
    64 contiguous rep-major fine values.

    The ledger's bits are what the run's source counted: |p| of every step
    row, PARENT_BITS * reps (53 * reps per fine step).  Batch by batch, the
    reference before the random-bit path, a reference that is not finite
    raises NumericFailure, as a non-finite Milstein state does, naming its
    step on its own grid.  An rms error whose squares overflow a double,
    though every max error is finite, raises NumericFailure too.
    """
    _check_scheme(m, q)
    check_count("reps", reps, 1)
    src = BitSource(seed)
    exact = model.exact_strong_solution is not None
    fine = 1 if exact else FINE_FACTOR  # parent steps per step of the scheme
    parent = BitAllocation(np.full(reps, PARENT_BITS if exact else 53))
    decoders = [RunDecoder(parent, parent)]
    if exact:  # the fallback's q-bit increments are the truncated coarse sums, not a decode
        decoders.append(RunDecoder(parent, BitAllocation(np.full(reps, q))))
    batch = min(m, max(1, _BATCH_BYTES * 8 // (fine * parent.total)))
    # one buffer for the parents and the path (the q-bit increments, then the
    # random-bit states): freed, it lifts glibc's dynamic mmap and trim
    # thresholds above a batch's temporaries, which a split pair left to be
    # trimmed and faulted in again every batch (4,800 against 21,000 minor
    # faults per 16..1024 sweep at 1000 replications)
    buf = np.empty(((fine + 1) * batch, reps), dtype=np.float64)
    parents, path = buf[:fine * batch], buf[fine * batch:]
    x = np.full(reps, model.x0, dtype=np.float64)
    carry = np.zeros(reps) if exact else np.full(reps, model.x0, dtype=np.float64)
    err = np.zeros(reps)
    for k0 in range(0, m, batch):
        n = min(batch, m - k0)
        y, bit = parents[:fine * n], path[:n]
        drawn = draw_rows(src, parent, len(y))

        def run(blocks: list[tuple[int, int]]) -> None:
            for a, b in blocks:
                runs = read_runs(drawn, a, b)
                for decode, rows in zip(decoders, (y, bit)):
                    decode(runs, b - a, None, rows[a:b])

        run_blocks(len(y), len(y) // 2, run)
        if exact:
            ref, carry = _exact_reference(model, m, k0, y, carry)
            if np.may_share_memory(ref, parents):  # the model's array is never written
                parents = np.empty_like(parents)
        else:
            ref, carry = _fine_reference(model, m, q, k0, y, bit, carry)
        x = _milstein_steps(model, m, x, bit, bit, k0)
        diff = np.subtract(ref, bit.T, out=bit.T)  # into the path's own buffer: ref may be read-only
        np.maximum(err, np.max(np.abs(diff, out=diff), axis=1), out=err)
        del ref, drawn  # before the next batch is drawn
    ledger = CostLedger()
    ledger.bits = src.bits_drawn
    ledger.coeff_ops += m * reps
    with np.errstate(over="ignore"):  # refused below, not warned about
        rms = float(np.sqrt(np.mean(err * err)))
    if not math.isfinite(rms):
        raise NumericFailure(f"non-finite rms error: the squares of max errors up to {err.max():.6g} overflow")
    return rms, ledger
