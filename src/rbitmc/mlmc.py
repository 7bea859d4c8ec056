"""Random-bit multilevel Monte Carlo for Lipschitz functionals of a Gaussian
model given either by the Schauder expansion of a Brownian bridge or by a
Karhunen-Loeve expansion with eigenvalue decay parameters (beta, alpha).

Level l of the estimator samples the model's random-bit approximation of
dimension 2**l (bridge: 2**l - 1 hat coefficients) and couples it with its
own coarsening to dimension 2**(l-1); the coarse term is an exact
re-truncation of the fine sample's retained uniforms, so a level difference
costs no extra random bits.  Level 1 enters without a coarse term.

The replication schedule follows the accuracy parameter eps:

    z   = 1 + eps**-1 * (ln eps**-1)**(-alpha/2)
    L   = ceil(2/(beta-1) * log2(z))
    N_l = ceil(2**(-l*beta/2) * l**(-alpha/2) * K(eps))

with the four-case constant K(eps) defined in :func:`mlmc_params`.

Cost accounting distinguishes random bits (exact count), the
variable-subspace oracle cost (dimension of the argument per functional
evaluation), and generated coefficients as an arithmetic proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import gausskl
# truncate_indices, grid_normal_values: unused, kept for perfbench/selftest.py
from .bitcore import MAX_BITS, BitAllocation, BitSource, CostLedger, check_count, check_finite, run_blocks
from .bitcore import truncate_indices  # noqa: F401
from .bridge import BridgeRows, allocation_bridge, nodes_from_coeffs, nodes_from_drawn
from .errors import ConfigurationError, InternalInvariantError
from .gausskl import EigenSpec, KLRows, allocation_kl
from .normal import grid_normal_values  # noqa: F401

EPS_MAX = math.exp(-2.0)
# node values of all evaluation blocks in flight, split among the threads; a level-13
# bridge block peaks at about three times its node values (the norm's two temporaries)
_EVAL_BYTES = 9 << 19
_BATCH_BYTES = 32 << 20  # drawn words per plain_mc batch
_BATCH_ROWS = 4096  # only keeps the batch sums of levels <= 14; goes once those sums are exact


@dataclass
class MLMCParams:
    eps: float
    beta: float
    alpha: float
    z: float
    L: int
    K: float
    N: list[int]


def mlmc_params(eps: float, beta: float, alpha: float) -> MLMCParams:
    """Level count, replication numbers and scaling constant for accuracy eps."""
    if not 0.0 < eps <= EPS_MAX:
        raise ValueError(f"eps must lie in (0, e^-2], got {eps}")
    check_finite(beta=beta, alpha=alpha)
    if not beta > 1.0:
        raise ValueError("beta must exceed 1")
    log_inv = math.log(1.0 / eps)
    exponent = max(2.0, beta / (beta - 1.0))
    try:  # a power that overflows raises, and so does ceil of an infinite product
        z = 1.0 + (1.0 / eps) * log_inv ** (-alpha / 2.0)
        # z > 1 exactly, so L >= 1; z rounds to 1.0 when the increment is below half an ulp
        L = max(1, math.ceil(2.0 / (beta - 1.0) * math.log2(z)))
        if beta > 2.0:
            log_factor = 1.0
        elif beta == 2.0 and alpha != 2.0:
            log_factor = log_inv ** max(0.0, 1.0 - alpha / 2.0)
        elif beta == 2.0:
            log_factor = math.log(log_inv)
        else:
            log_factor = log_inv ** (alpha / (2.0 * (1.0 - beta)))
        try:
            K = eps ** -exponent * log_factor
        except OverflowError:
            K = math.inf
        if not math.isfinite(K):
            raise ValueError(f"eps {eps!r} is too small for beta {beta!r}: the replication constant "
                             f"K(eps) overflows, as eps is raised to -max(2, beta/(beta-1)) = {-exponent:.6g}")
        N = [max(1, math.ceil(2.0 ** (-l * beta / 2.0) * l ** (-alpha / 2.0) * K))
             for l in range(1, L + 1)]
    except OverflowError:
        raise ValueError(f"eps {eps!r} with beta {beta!r} and alpha {alpha!r} overflows z(eps), "
                         f"the log factor of K(eps) or a replication number N_l") from None
    return MLMCParams(eps, beta, alpha, z, L, K, N)


def theoretical_cost(params: MLMCParams) -> float:
    """Level-dimension cost proxy sum_l 2**l * N_l of the schedule."""
    return float(sum((1 << l) * n for l, n in zip(range(1, params.L + 1), params.N)))


# ---------------------------------------------------------------------------
# models


class ExpansionModel:
    """Random-bit Gaussian expansion whose level l is its bit allocation p(l).

    Subclasses supply ``base_allocation`` (a :class:`BitAllocation` per
    level), ``functional_rows`` and, unless all coefficients have unit
    scale, ``scale``; ``min_bits`` raises every count of p(l) to at least
    that.  The allocation is all there is to know of a level: its length is
    the level's dimension, and its total |p| the bits of one row.
    Allocations (and scales) are computed once per level, read-only.

    Rows pass as arrays: ``sample_rows`` draws a level's stream words,
    blocks of them are read run by run (:func:`gausskl.read_runs`) and
    decoded with ``scale(level)`` (:class:`gausskl.RunDecoder`; bridge
    blocks go straight to node rows, :func:`bridge.nodes_from_drawn`),
    ``coarsen_rows`` decodes the same runs one level down, with no index
    rows, and ``functional_rows`` makes coefficient rows the batch of
    :attr:`LipFunctional.rows`.
    """

    def __init__(self, min_bits: int = 0):
        check_count("min_bits", min_bits, 0, MAX_BITS)
        self.min_bits = int(min_bits)
        self._allocs: dict[int, BitAllocation] = {}
        self._decoders: dict[tuple[int, int], gausskl.RunDecoder] = {}

    def scale(self, level: int) -> Optional[np.ndarray]:
        return None

    def allocation(self, level: int) -> BitAllocation:
        alloc = self._allocs.get(level)
        if alloc is None:
            alloc = self.base_allocation(level)
            if self.min_bits:
                alloc = BitAllocation(np.maximum(alloc.counts, self.min_bits))
            self._allocs[level] = alloc
        return alloc

    def sample_rows(self, src: BitSource, level: int, n: int) -> gausskl.DrawnRows:
        """n fine rows at ``level``, drawn in the order of :func:`gausskl.sample_rows`
        and held as their stream words (:func:`gausskl.draw_rows`, n |p| / 8 bytes)."""
        return gausskl.draw_rows(src, self.allocation(level), n)

    def coarsen_rows(self, runs: list, level: int, nb: int) -> np.ndarray:
        """The nb coefficient rows one level below ``level`` of the rows whose
        runs :func:`gausskl.read_runs` read at ``level``, decoded straight
        from those runs' stream bytes and fields with ``scale(level - 1)``
        and no index rows: the bytes of :func:`gausskl.coarsen_rows` on their
        index rows."""
        return self._decoder(level, level - 1)(runs, nb, self.scale(level - 1))

    def _decoder(self, level: int, below: int) -> gausskl.RunDecoder:
        """The :class:`gausskl.RunDecoder` of the runs of ``level`` onto the
        allocation of level ``below`` (``level`` itself, or the one below),
        built once per pair: its segments and the nesting check."""
        decode = self._decoders.get((level, below))
        if decode is None:
            decode = self._decoders[level, below] = gausskl.RunDecoder(self.allocation(level), self.allocation(below))
        return decode


class BridgeModel(ExpansionModel):
    """Brownian bridge model: level l lives on 2**l - 1 hat coefficients."""

    beta = 2.0
    alpha = 0.0

    def base_allocation(self, level: int) -> BitAllocation:
        return allocation_bridge(level)

    def functional_rows(self, coeffs: np.ndarray, level: int) -> BridgeRows:
        return BridgeRows(nodes_from_coeffs(coeffs, level))


class KLModel(ExpansionModel):
    """Karhunen-Loeve model: level l truncates the expansion at m = 2**l.

    Any :class:`EigenSpec` runs, explicit spectra too: the allocation and
    the schedule's rates are the spec's declared (beta, alpha), and the
    coefficient scales the square roots of its eigenvalues.
    """

    def __init__(self, spec: EigenSpec, min_bits: int = 0):
        super().__init__(min_bits)
        self.spec = spec
        self._scales: dict[int, np.ndarray] = {}
        self.beta = spec.beta
        self.alpha = spec.alpha

    def base_allocation(self, level: int) -> BitAllocation:
        return allocation_kl(1 << level, self.spec)

    def scale(self, level: int) -> np.ndarray:
        scale = self._scales.get(level)
        if scale is None:
            scale = self._scales[level] = np.sqrt(self.spec.eigenvalues(np.arange(1, (1 << level) + 1)))
            scale.flags.writeable = False
        return scale

    def functional_rows(self, coeffs: np.ndarray, level: int) -> KLRows:
        return KLRows(coeffs)


def bridge_model() -> BridgeModel:
    return BridgeModel()


def kl_model(spec: EigenSpec) -> KLModel:
    return KLModel(spec)


# ---------------------------------------------------------------------------
# Lipschitz functionals


@dataclass
class LipFunctional:
    """Real functional on the model space with Lipschitz constant one.

    ``rows`` evaluates a batch: it receives the rows the model's
    ``functional_rows`` makes of coefficient rows, a :class:`BridgeRows` or
    a :class:`KLRows`, and returns one value per row.  Both row types offer
    ``norm()`` and ``linear(w)``, so a functional written against those two
    runs on either model.
    """

    name: str
    rows: Callable[[BridgeRows | KLRows], np.ndarray]


CLIP = 1.0  # clip level of the catalog's clipped_norm
SOFT_WEIGHTS = np.array([0.6, 0.48, 0.384, 0.3072])  # soft_linear's: norm 0.9123, 1.268 over the bridge hats


def builtin_functionals() -> dict[str, LipFunctional]:
    """Catalog of 1-Lipschitz functionals addressable by name; the linear ones
    are ``rows.linear(w)`` with their weights w written out."""
    return {
        "coord1": LipFunctional("coord1", lambda rows: rows.linear((1.0,))),
        "coord2": LipFunctional("coord2", lambda rows: rows.linear((0.0, 1.0))),
        "norm": LipFunctional("norm", lambda rows: rows.norm()),
        "clipped_norm": LipFunctional(f"clipped_norm({CLIP:g})", lambda rows: np.minimum(CLIP, rows.norm())),
        "soft_linear": LipFunctional("soft_linear", lambda rows: rows.linear(SOFT_WEIGHTS)),
    }


def lookup_functional(name: str) -> LipFunctional:
    catalog = builtin_functionals()
    if name not in catalog:
        raise ConfigurationError(
            f"unknown functional {name!r}; available: {sorted(catalog)}")
    return catalog[name]


# ---------------------------------------------------------------------------
# estimator


@dataclass
class MLMCResult:
    estimate: float
    ledger: CostLedger
    level_means: list[float] = field(default_factory=list)
    level_vars: list[float] = field(default_factory=list)
    level_ns: list[int] = field(default_factory=list)

    @property
    def stderr(self) -> float:
        """sqrt(sum_l V_l / N_l), summed left to right (the built-in ``sum`` of
        floats rounds differently from Python 3.12 on)."""
        total = 0.0
        for v, n in zip(self.level_vars, self.level_ns):
            total += v / n
        return math.sqrt(total)


def _evaluate(f: LipFunctional, model, level: int, drawn: gausskl.DrawnRows,
              coarse: bool) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """``f.rows`` of every row of ``drawn`` (rows of ``level``) and, with
    ``coarse``, of its coarsening one level down (else None), in blocks of
    rows.  Each block's runs are read once (:func:`gausskl.read_runs`), and
    that one read feeds both decodes: the coarse rows are decoded from the
    runs by ``model.coarsen_rows``, with no index rows; then a bridge block
    goes from the runs straight to its node rows
    (:func:`bridge.nodes_from_drawn`, which drops their fields once
    decoded), with no coefficient rows, and any other block is decoded by
    the :class:`gausskl.RunDecoder` of its allocation.

    :func:`bitcore.run_blocks` cuts the blocks and runs them on min(2,
    usable CPUs) threads: with two or more blocks and two CPUs, the calling
    thread and one pool thread take every other block.  A lazily built
    table is stored only once complete, so a second thread at worst builds
    it again.  _EVAL_BYTES bounds the node values of all blocks in flight,
    dim + 2 per row, so a block holds _EVAL_BYTES / threads of them.  Only
    the drawn words and the blocks in flight are held: a thread decodes its
    fine coefficient blocks into one reused buffer (a bridge block has
    none) and writes its rows' values to their own slices of the result,
    and nothing is reduced across threads.  Rows are evaluated
    independently, so every value equals that of one call on the whole
    batch.
    """
    n, dim = drawn.n, len(drawn.alloc)
    bridge = isinstance(model, BridgeModel)  # fine rows straight from the runs to node rows
    decode = None if bridge else model._decoder(level, level)
    scale = model.scale(level)
    y = np.empty(n, dtype=np.float64)
    y_coarse = np.empty(n, dtype=np.float64) if coarse else None

    def run(blocks: list[tuple[int, int]]) -> None:
        buf = None if bridge else np.empty((max(b - a for a, b in blocks), dim))
        for a, b in blocks:
            runs = gausskl.read_runs(drawn, a, b)
            if coarse:  # first, as a bridge block's node rows drop the fields of the runs
                y_coarse[a:b] = f.rows(model.functional_rows(model.coarsen_rows(runs, level, b - a), level - 1))
            if bridge:
                node_rows = nodes_from_drawn(runs, b - a)
                y[a:b] = f.rows(BridgeRows(node_rows))
                del node_rows  # freed before the next block's rows are built
            else:
                y[a:b] = f.rows(model.functional_rows(decode(runs, b - a, scale, buf[:b - a]), level))
            del runs  # and its stream bytes before the next block is read

    run_blocks(n, _EVAL_BYTES // (8 * (dim + 2)), run)
    return y, y_coarse


def _level_values(f: LipFunctional, model, src: BitSource, level: int, n: int,
                  coarse: bool, ledger: CostLedger) -> np.ndarray:
    """f at n rows of ``level`` drawn from ``src``, minus f at their coupled
    coarsening with ``coarse``; charges the bits drawn and the oracle cost
    and coefficients of every evaluated row to ``ledger``.  The words are
    drawn on the calling thread before :func:`_evaluate` runs any block on
    a second thread, so the stream order does not depend on the threads."""
    before = src.bits_drawn
    drawn = model.sample_rows(src, level, n)
    ledger.bits += src.bits_drawn - before
    width = len(model.allocation(level - 1)) if coarse else 0
    y, y_coarse = _evaluate(f, model, level, drawn, coarse)
    dims = len(drawn.alloc) + width
    ledger.oracle_cost += n * dims
    ledger.coeff_ops += n * dims
    return y - y_coarse if coarse else y


def mlmc_estimate(f: LipFunctional, model, params: MLMCParams, src: BitSource) -> MLMCResult:
    """Run the multilevel estimator once, drawing every level from ``src``.

    The bit budget sum_l N_l |p(l)| is summed top level first, before the
    first draw, so a level beyond the model's cap raises with nothing drawn.
    A level (:func:`_level_values`) draws all its N_l rows at once, in the
    stream order of :func:`gausskl.sample_rows`, and holds only their words
    (N_l |p(l)| / 8 bytes).  Its fine and coarse terms are decoded and
    evaluated in cache-sized blocks of rows, on two threads when a level
    has two or more blocks (:func:`_evaluate`); each block's coarse rows
    are decoded from the runs its fine rows were read from.  Level values, means and
    variances are those of one thread.
    """
    ledger = CostLedger()
    estimate = 0.0
    level_means: list[float] = []
    level_vars: list[float] = []
    expected_bits = sum(params.N[level - 1] * model.allocation(level).total
                        for level in range(params.L, 0, -1))
    for level in range(1, params.L + 1):
        y = _level_values(f, model, src, level, params.N[level - 1], level >= 2, ledger)
        level_means.append(float(np.mean(y)))
        level_vars.append(float(np.var(y, ddof=1)) if len(y) > 1 else 0.0)
        estimate += level_means[-1]  # left to right, as MLMCResult.stderr sums
    if ledger.bits != expected_bits:
        raise InternalInvariantError(
            f"bit budget mismatch: drew {ledger.bits}, schedule says {expected_bits}")
    return MLMCResult(estimate, ledger, level_means, level_vars, list(params.N))


def plain_mc(f: LipFunctional, model, level: int, n: int,
             src: BitSource) -> tuple[float, float, CostLedger]:
    """Single-level Monte Carlo reference at the given level: (mean, stderr, ledger).

    Rows are drawn a batch at a time (:func:`_level_values`, with no coarse
    term) in the stream order of :func:`gausskl.sample_rows`.  A batch holds
    at most _BATCH_ROWS rows and _BATCH_BYTES of drawn words (one row if a
    row alone is larger), and is decoded and evaluated in cache-sized
    blocks, on two threads when it has two or more (:func:`_evaluate`),
    so no (batch, dim) array and no index row is ever built; neither the
    blocks nor the threads change a value, and the batch sums are taken on
    the calling thread in row order.
    """
    check_count("n", n, 1)
    batch = max(1, min(_BATCH_ROWS, _BATCH_BYTES * 8 // model.allocation(level).total))
    ledger = CostLedger()
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        b = min(batch, n - done)
        y = _level_values(f, model, src, level, b, False, ledger)
        total += float(np.sum(y))
        total_sq += float(np.sum(y * y))
        done += b
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1) if n > 1 else 0.0
    return mean, math.sqrt(var / n), ledger
