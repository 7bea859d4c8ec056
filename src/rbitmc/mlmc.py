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
    scale, ``scale``.
    """

    def scale(self, level: int) -> Optional[np.ndarray]:
        return None

    def allocation(self, level: int, min_bits: int = 0) -> BitAllocation:
        alloc = self.base_allocation(level)
        if min_bits:
            alloc = BitAllocation(np.maximum(alloc.counts, min_bits))
        return alloc

    def bits_per_fine(self, level: int, min_bits: int = 0) -> int:
        return self.allocation(level, min_bits).total

    def sample_rows(self, src: BitSource, level: int, n: int, min_bits: int = 0,
                    indices: bool = True) -> dict:
        """n fine rows at ``level``, drawn in the order of :func:`gausskl.sample_rows`;
        ``indices=False`` leaves out the index rows (``"idx"`` is None)."""
        alloc = self.allocation(level, min_bits)
        coeffs, idx = gausskl.sample_rows(src, alloc, n, self.scale(level), indices)
        return {"level": level, "coeffs": coeffs, "idx": idx, "alloc": alloc}

    def coarsen_rows(self, state: dict, min_bits: int = 0) -> dict:
        """The rows of ``state`` coarsened one level by :func:`gausskl.coarsen_rows`."""
        level = state["level"] - 1
        alloc = self.allocation(level, min_bits)
        coeffs, idx = gausskl.coarsen_rows(state["idx"], state["alloc"], alloc, self.scale(level))
        return {"level": level, "coeffs": coeffs, "idx": idx, "alloc": alloc}


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
        nodes = nodes_from_coeffs(state["coeffs"], state["level"])
        return {"kind": "bridge", "nodes": nodes, "coeffs": state["coeffs"]}


class KLModel(ExpansionModel):
    """Karhunen-Loeve model: level l truncates the expansion at m = 2**l."""

    name = "kl"

    def __init__(self, spec: EigenSpec):
        if not spec.analytic:
            raise ConfigurationError("multilevel schedule requires the analytic eigenvalue mode")
        self.spec = spec
        self.beta = spec.beta
        self.alpha = spec.alpha

    def level_dim(self, level: int) -> int:
        return 1 << level

    def base_allocation(self, level: int) -> BitAllocation:
        return allocation_kl(1 << level, self.spec)

    def scale(self, level: int) -> np.ndarray:
        return np.sqrt(self.spec.eigenvalues(np.arange(1, (1 << level) + 1)))

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
        """Evaluate on a single KLVector or BridgePath."""
        if isinstance(x, BridgePath):
            nodes = x.node_values()[np.newaxis, :]
            return float(self.rows({"kind": "bridge", "nodes": nodes,
                                    "coeffs": x.coeffs[np.newaxis, :]})[0])
        if isinstance(x, KLVector):
            return float(self.rows({"kind": "kl", "coeffs": x.coeffs[np.newaxis, :]})[0])
        raise TypeError(f"unsupported argument type {type(x).__name__}")


def _hat_on_nodes(j: int, n_nodes: int) -> np.ndarray:
    """Normalized hat e_j = s_j / ||s_j|| on a dyadic node grid (exact kinks)."""
    t = np.arange(n_nodes, dtype=np.float64) / (n_nodes - 1)
    vals = schauder(j, t)
    return vals / math.sqrt(schauder_norm_sq(j))


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
        nodes = batch["nodes"]
        n_nodes = nodes.shape[1]
        if 2 * j >= n_nodes and j > 1:
            raise ConfigurationError(
                f"coord({j}) needs node mesh finer than the hat support")
        return pl_inner(nodes, _hat_on_nodes(j, n_nodes)[np.newaxis, :])

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
        nodes = batch["nodes"]
        n_nodes = nodes.shape[1]
        if 2 * len(w) >= n_nodes and len(w) > 1:
            raise ConfigurationError("soft_linear needs node mesh finer than its hat supports")
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


def _evaluate(f: LipFunctional, model, state: dict) -> np.ndarray:
    """``f.rows(model.functional_rows(state))``, taken over blocks of rows
    that hold at most _EVAL_BYTES of node values each.

    Rows are evaluated independently, so every value equals that of one
    call on the whole batch; the blocks only keep the node arrays in cache.
    No block has a single row unless the batch has: numpy's matmul rounds a
    one-row product differently (seen with the KL ``soft_linear``).
    """
    coeffs = state["coeffs"]
    n = coeffs.shape[0]
    step = max(2, _EVAL_BYTES // (8 * (coeffs.shape[1] + 2)))
    if n <= step:
        return f.rows(model.functional_rows(state))
    bounds = [*range(0, n - 1, step), n]  # a last single row joins the block before it
    y = np.empty(n, dtype=np.float64)
    for a, b in zip(bounds, bounds[1:]):
        y[a:b] = f.rows(model.functional_rows({**state, "coeffs": coeffs[a:b]}))
    return y


def mlmc_estimate(f: LipFunctional, model, params: MLMCParams, src: BitSource,
                  min_bits: int = 0, base_seed: Optional[int] = None) -> MLMCResult:
    """Run the multilevel estimator once.

    Replications within a level run sequentially on the given source.  With
    ``base_seed`` each level draws from its own child source instead (seed
    derivation: SeedSequence(base_seed, spawn_key=(level,))), which makes
    level blocks independently reproducible; bit counts are summed into the
    same ledger.
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
        y = _evaluate(f, model, fine)
        ledger.oracle_cost += n * model.level_dim(level)
        ledger.coeff_ops += n * model.level_dim(level)
        if level >= 2:
            coarse = model.coarsen_rows(fine, min_bits)
            y = y - _evaluate(f, model, coarse)
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

    Rows are drawn ``batch`` at a time, without index rows, and evaluated
    in cache-sized blocks (:func:`_evaluate`); neither changes a value.
    """
    ledger = CostLedger()
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        b = min(batch, n - done)
        before = src.bits_drawn
        state = model.sample_rows(src, level, b, min_bits, indices=False)
        ledger.bits += src.bits_drawn - before
        y = _evaluate(f, model, state)
        ledger.oracle_cost += b * model.level_dim(level)
        ledger.coeff_ops += b * model.level_dim(level)
        total += float(np.sum(y))
        total_sq += float(np.sum(y * y))
        done += b
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1) if n > 1 else 0.0
    return mean, math.sqrt(var / n), ledger
