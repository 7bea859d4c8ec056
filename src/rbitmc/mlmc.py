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
from .bitcore import BitAllocation, BitSource, CostLedger, child_source, truncate_indices  # noqa: F401
from .bridge import (
    BridgePath,
    allocation_bridge,
    nodes_from_coeffs,
    pl_inner,
    pl_l2_norm_sq,
    schauder,
    schauder_norm_sq,
)
from .errors import ConfigurationError, InternalInvariantError
from .gausskl import EigenSpec, KLVector, allocation_kl
from .normal import grid_normal_values  # noqa: F401

EPS_MAX = math.exp(-2.0)
_EVAL_BYTES = 4 << 20  # node values per functional evaluation, a block that stays in cache


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
    if not beta > 1.0:
        raise ValueError("beta must exceed 1")
    log_inv = math.log(1.0 / eps)
    z = 1.0 + (1.0 / eps) * log_inv ** (-alpha / 2.0)
    L = math.ceil(2.0 / (beta - 1.0) * math.log2(z))
    exponent = max(2.0, beta / (beta - 1.0))
    if beta > 2.0:
        log_factor = 1.0
    elif beta == 2.0 and alpha != 2.0:
        log_factor = log_inv ** max(0.0, 1.0 - alpha / 2.0)
    elif beta == 2.0:
        log_factor = math.log(log_inv)
    else:
        log_factor = log_inv ** (alpha / (2.0 * (1.0 - beta)))
    K = eps ** -exponent * log_factor
    N = [max(1, math.ceil(2.0 ** (-l * beta / 2.0) * l ** (-alpha / 2.0) * K))
         for l in range(1, L + 1)]
    return MLMCParams(eps, beta, alpha, z, L, K, N)


def theoretical_cost(params: MLMCParams) -> float:
    """Level-dimension cost proxy sum_l 2**l * N_l of the schedule."""
    return float(sum((1 << l) * n for l, n in zip(range(1, params.L + 1), params.N)))


# ---------------------------------------------------------------------------
# models


class ExpansionModel:
    """Random-bit Gaussian expansion with level_dim(l) coefficients at level l.

    Subclasses supply ``level_dim``, ``base_allocation`` (bit counts per
    coefficient), ``functional_rows`` and, unless all coefficients have unit
    scale, ``scale``.  Allocations (and scales) are computed once per model
    and level and returned as read-only arrays.
    """

    def __init__(self):
        self._allocs: dict[tuple[int, int], BitAllocation] = {}

    def scale(self, level: int) -> Optional[np.ndarray]:
        return None

    def allocation(self, level: int, min_bits: int = 0) -> BitAllocation:
        alloc = self._allocs.get((level, min_bits))
        if alloc is None:
            alloc = self.base_allocation(level)
            if min_bits:
                alloc = BitAllocation(np.maximum(alloc.counts, min_bits))
            self._allocs[level, min_bits] = alloc
        return alloc

    def bits_per_fine(self, level: int, min_bits: int = 0) -> int:
        return self.allocation(level, min_bits).total

    def sample_rows(self, src: BitSource, level: int, n: int, min_bits: int = 0) -> dict:
        """n fine rows at ``level``, drawn in the order of :func:`gausskl.sample_rows`.

        The state holds the drawn stream words (:func:`gausskl.draw_rows`,
        n |p| / 8 bytes), not the rows; :meth:`decode_rows` decodes a block
        of them.  Looking up ``"coeffs"`` or ``"idx"`` decodes all n rows.
        """
        alloc = self.allocation(level, min_bits)
        return _DrawnState(level=level, alloc=alloc, min_bits=min_bits, scale=self.scale(level),
                           drawn=gausskl.draw_rows(src, alloc, n))

    def decode_rows(self, state: dict, a: int, b: int, coarse: bool = False,
                    out: Optional[np.ndarray] = None) -> tuple[dict, Optional[dict]]:
        """Rows a..b of the drawn ``state``: (the fine coefficient rows, into
        ``out`` when given; with ``coarse``, their coupled coarsening one level
        down, re-truncated from the block's index rows, else None)."""
        level, alloc = state["level"], state["alloc"]
        width = self.level_dim(level - 1) if coarse else 0
        coeffs, idx = gausskl.decode_rows(state["drawn"], a, b, state["scale"], width, out)
        fine = {"level": level, "coeffs": coeffs, "alloc": alloc}
        if not coarse:
            return fine, None
        return fine, self.coarsen_rows({"level": level, "idx": idx, "alloc": alloc}, state["min_bits"])

    def coarsen_rows(self, state: dict, min_bits: int = 0) -> dict:
        """The rows of ``state`` coarsened one level by :func:`gausskl.coarsen_rows`."""
        level = state["level"] - 1
        alloc = self.allocation(level, min_bits)
        coeffs, idx = gausskl.coarsen_rows(state["idx"], state["alloc"], alloc, self.scale(level))
        return {"level": level, "coeffs": coeffs, "idx": idx, "alloc": alloc}


class _DrawnState(dict):
    """State of :meth:`ExpansionModel.sample_rows`: "level", "alloc",
    "min_bits", "scale" and "drawn".  "coeffs" and "idx" are not stored;
    looking one up decodes all rows (:meth:`dict.__missing__`)."""

    def __missing__(self, key):
        if key not in ("coeffs", "idx"):
            raise KeyError(key)
        drawn = self["drawn"]
        coeffs, idx = gausskl.decode_rows(drawn, 0, drawn.n, self["scale"], len(drawn.alloc))
        return coeffs if key == "coeffs" else idx


class BridgeModel(ExpansionModel):
    """Brownian bridge model: level l lives on 2**l - 1 hat coefficients."""

    name = "bridge"
    beta = 2.0
    alpha = 0.0

    def level_dim(self, level: int) -> int:
        return (1 << level) - 1

    def base_allocation(self, level: int) -> BitAllocation:
        return allocation_bridge(level)

    def functional_rows(self, state: dict) -> dict:
        coeffs = state["coeffs"]
        return {"kind": "bridge", "nodes": nodes_from_coeffs(coeffs, state["level"]), "coeffs": coeffs}


class KLModel(ExpansionModel):
    """Karhunen-Loeve model: level l truncates the expansion at m = 2**l."""

    name = "kl"

    def __init__(self, spec: EigenSpec):
        super().__init__()
        if not spec.analytic:
            raise ConfigurationError("multilevel schedule requires the analytic eigenvalue mode")
        self.spec = spec
        self._scales: dict[int, np.ndarray] = {}
        self.beta = spec.beta
        self.alpha = spec.alpha

    def level_dim(self, level: int) -> int:
        return 1 << level

    def base_allocation(self, level: int) -> BitAllocation:
        return allocation_kl(1 << level, self.spec)

    def scale(self, level: int) -> np.ndarray:
        scale = self._scales.get(level)
        if scale is None:
            scale = self._scales[level] = np.sqrt(self.spec.eigenvalues(np.arange(1, (1 << level) + 1)))
            scale.flags.writeable = False
        return scale

    def functional_rows(self, state: dict) -> dict:
        return {"kind": "kl", "coeffs": state["coeffs"]}


def bridge_model() -> BridgeModel:
    return BridgeModel()


def kl_model(spec: EigenSpec) -> KLModel:
    return KLModel(spec)


# ---------------------------------------------------------------------------
# Lipschitz functionals


@dataclass
class LipFunctional:
    """Real functional on the model space with Lipschitz constant one.

    ``rows`` evaluates a batch: it receives the dict produced by the model's
    ``functional_rows`` and returns one value per sample row.
    """

    name: str
    rows: Callable[[dict], np.ndarray]

    def evaluate(self, x) -> float:
        """Evaluate on a single KLVector or BridgePath.

        The vector goes through ``rows`` as a two-row batch (itself twice):
        numpy's matmul rounds a one-row product differently, so this gives
        the value ``rows`` gives the vector inside any larger batch.
        """
        if isinstance(x, BridgePath):
            nodes = x.node_values()
            return float(self.rows({"kind": "bridge", "nodes": np.stack([nodes, nodes]),
                                    "coeffs": np.stack([x.coeffs, x.coeffs])})[0])
        if isinstance(x, KLVector):
            return float(self.rows({"kind": "kl", "coeffs": np.stack([x.coeffs, x.coeffs])})[0])
        raise TypeError(f"unsupported argument type {type(x).__name__}")


def _hat_on_nodes(j: int, n_nodes: int) -> np.ndarray:
    """Normalized hat e_j = s_j / ||s_j|| on a dyadic node grid (exact kinks)."""
    t = np.arange(n_nodes, dtype=np.float64) / (n_nodes - 1)
    vals = schauder(j, t)
    return vals / math.sqrt(schauder_norm_sq(j))


def _refine_nodes(nodes: np.ndarray, level: int) -> np.ndarray:
    """Node rows on a mesh of at most 2**-level, by midpoint insertion.

    The inserted values are the averages 0.5 * (a + b) of nodes_from_coeffs,
    so the rows are the same piecewise-linear functions on a finer grid;
    rows already that fine are returned as they are.
    """
    while nodes.shape[1] < (1 << level) + 1:
        refined = np.empty((nodes.shape[0], 2 * nodes.shape[1] - 1), dtype=np.float64)
        refined[:, 0::2] = nodes
        refined[:, 1::2] = 0.5 * (nodes[:, :-1] + nodes[:, 1:])
        nodes = refined
    return nodes


def make_coord(j: int) -> LipFunctional:
    """Coordinate functional: the j-th KL coordinate, or for bridge paths the
    inner product with the j-th normalized hat function."""
    if j < 1:
        raise ValueError("coordinate index must be >= 1")

    def rows(batch: dict) -> np.ndarray:
        if batch["kind"] == "kl":
            coeffs = batch["coeffs"]
            if j > coeffs.shape[1]:
                return np.zeros(coeffs.shape[0])
            return coeffs[:, j - 1].copy()
        nodes = _refine_nodes(batch["nodes"], j.bit_length())  # hat j kinks on mesh 2**-bit_length(j)
        return pl_inner(nodes, _hat_on_nodes(j, nodes.shape[1])[np.newaxis, :])

    return LipFunctional(f"coord{j}", rows)


def make_norm() -> LipFunctional:
    def rows(batch: dict) -> np.ndarray:
        if batch["kind"] == "kl":
            c = batch["coeffs"]
            return np.sqrt(np.einsum("ij,ij->i", c, c))
        return np.sqrt(pl_l2_norm_sq(batch["nodes"]))

    return LipFunctional("norm", rows)


def make_clipped_norm(clip: float) -> LipFunctional:
    if clip <= 0.0:
        raise ValueError("clip level must be positive")
    base = make_norm()

    def rows(batch: dict) -> np.ndarray:
        return np.minimum(clip, base.rows(batch))

    return LipFunctional(f"clipped_norm({clip:g})", rows)


def make_soft_linear(weights) -> LipFunctional:
    """x -> sum_j w_j x_j with the weight vector scaled so ||w|| <= 1.

    For bridge paths the coordinates are inner products with normalized hat
    functions, whose combination is rescaled by its true L2 norm so the
    functional stays 1-Lipschitz despite the basis not being orthogonal.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or len(w) == 0:
        raise ValueError("weights must be a non-empty 1-d sequence")
    nrm = math.sqrt(float(np.dot(w, w)))
    if nrm > 1.0:
        w = w / nrm

    def rows(batch: dict) -> np.ndarray:
        if batch["kind"] == "kl":
            c = batch["coeffs"]
            k = min(len(w), c.shape[1])
            return c[:, :k] @ w[:k]
        nodes = _refine_nodes(batch["nodes"], len(w).bit_length())  # mesh of the last hat
        n_nodes = nodes.shape[1]
        g = np.zeros(n_nodes)
        for j, wj in enumerate(w, start=1):
            g += wj * _hat_on_nodes(j, n_nodes)
        g_norm = math.sqrt(float(pl_l2_norm_sq(g[np.newaxis, :])[0]))
        if g_norm > 1.0:
            g = g / g_norm
        return pl_inner(nodes, g[np.newaxis, :])

    return LipFunctional("soft_linear", rows)


def builtin_functionals(clip: float = 1.0, weights=(0.6, 0.48, 0.384, 0.3072)) -> dict[str, LipFunctional]:
    """Catalog of 1-Lipschitz functionals addressable by name."""
    return {
        "coord1": make_coord(1),
        "coord2": make_coord(2),
        "norm": make_norm(),
        "clipped_norm": make_clipped_norm(clip),
        "soft_linear": make_soft_linear(weights),
    }


def lookup_functional(name: str, **kwargs) -> LipFunctional:
    catalog = builtin_functionals(**kwargs)
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
        return math.sqrt(sum(v / n for v, n in zip(self.level_vars, self.level_ns)))


def _evaluate(f: LipFunctional, model, state: dict,
              coarse: bool = False) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """``f.rows`` of every row of the drawn ``state`` and, with ``coarse``,
    of its coarsening one level down (else None), decoded by
    ``model.decode_rows`` in blocks that hold at most _EVAL_BYTES of fine
    node values each.

    Only the drawn words and one block are held; fine coefficient blocks are
    decoded into one reused buffer.  Rows are evaluated independently, so
    every value equals that of one call on the whole batch.  No block has a
    single row unless the batch has: numpy's matmul rounds a one-row product
    differently (seen with the KL ``soft_linear``).
    """
    n = state["drawn"].n
    dim = model.level_dim(state["level"])
    step = max(2, _EVAL_BYTES // (8 * (dim + 2)))
    bounds = [0, n] if n <= step else [*range(0, n - 1, step), n]  # a last single row joins the block before it
    buf = np.empty((min(n, step + 1), dim))
    y = np.empty(n, dtype=np.float64)
    y_coarse = np.empty(n, dtype=np.float64) if coarse else None
    for a, b in zip(bounds, bounds[1:]):
        fine, coarse_rows = model.decode_rows(state, a, b, coarse, buf[:b - a])
        y[a:b] = f.rows(model.functional_rows(fine))
        if coarse:
            y_coarse[a:b] = f.rows(model.functional_rows(coarse_rows))
    return y, y_coarse


def mlmc_estimate(f: LipFunctional, model, params: MLMCParams, src: BitSource,
                  min_bits: int = 0, base_seed: Optional[int] = None) -> MLMCResult:
    """Run the multilevel estimator once.

    Replications within a level run sequentially on the given source.  With
    ``base_seed`` each level draws from its own child source instead (seed
    derivation: SeedSequence(base_seed, spawn_key=(level,))), which makes
    level blocks independently reproducible; bit counts are summed into the
    same ledger.

    A level draws all its N_l rows at once, in the stream order of
    :func:`gausskl.sample_rows`, and holds only their words
    (N_l |p(l)| / 8 bytes).  Its fine and coarse terms are decoded and
    evaluated in cache-sized blocks of rows (:func:`_evaluate`); each
    block's coarse rows are re-truncated from its index rows.
    """
    ledger = CostLedger()
    estimate = 0.0
    level_means: list[float] = []
    level_vars: list[float] = []
    ns: list[int] = []
    expected_bits = 0
    for level in range(1, params.L + 1):
        n = params.N[level - 1]
        level_src = src if base_seed is None else child_source(base_seed, level)
        before = level_src.bits_drawn
        fine = model.sample_rows(level_src, level, n, min_bits)
        ledger.bits += level_src.bits_drawn - before
        expected_bits += n * model.bits_per_fine(level, min_bits)
        y, y_coarse = _evaluate(f, model, fine, coarse=level >= 2)
        ledger.oracle_cost += n * model.level_dim(level)
        ledger.coeff_ops += n * model.level_dim(level)
        if level >= 2:
            y = y - y_coarse
            ledger.oracle_cost += n * model.level_dim(level - 1)
            ledger.coeff_ops += n * model.level_dim(level - 1)
        mean = float(np.mean(y))
        estimate += mean
        level_means.append(mean)
        level_vars.append(float(np.var(y, ddof=1)) if n > 1 else 0.0)
        ns.append(n)
    if ledger.bits != expected_bits:
        raise InternalInvariantError(
            f"bit budget mismatch: drew {ledger.bits}, schedule says {expected_bits}")
    return MLMCResult(estimate, ledger, level_means, level_vars, ns)


def plain_mc(f: LipFunctional, model, level: int, n: int, src: BitSource,
             min_bits: int = 0, batch: int = 4096) -> tuple[float, float, CostLedger]:
    """Single-level Monte Carlo reference at the given level: (mean, stderr, ledger).

    Rows are drawn ``batch`` at a time in the stream order of
    :func:`gausskl.sample_rows`.  A batch is held as its drawn words
    (batch * |p| / 8 bytes) and decoded and evaluated in cache-sized blocks
    (:func:`_evaluate`), so no (batch, dim) array and no index row is ever
    built; neither changes a value.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if batch < 1:
        raise ValueError(f"batch must be a positive integer, got {batch!r}")
    ledger = CostLedger()
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        b = min(batch, n - done)
        before = src.bits_drawn
        state = model.sample_rows(src, level, b, min_bits)
        ledger.bits += src.bits_drawn - before
        y, _ = _evaluate(f, model, state)
        ledger.oracle_cost += b * model.level_dim(level)
        ledger.coeff_ops += b * model.level_dim(level)
        total += float(np.sum(y))
        total_sq += float(np.sum(y * y))
        done += b
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1) if n > 1 else 0.0
    return mean, math.sqrt(var / n), ledger
