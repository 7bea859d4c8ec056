"""Random-bit approximation of probability distributions and random-bit
multilevel Monte Carlo quadrature, with exact error evaluation and bit-cost
accounting."""

from .bitcore import BitAllocation, BitSource, CostLedger, DyadicValue, child_source, truncate
from .bridge import BridgePath, allocation_bridge, bridge_bit_error_sq, bridge_truncation_error_sq, coarsen, sample_bridge
from .gausskl import EigenSpec, KLVector, allocation_kl, coarsen_kl, kl_error_sq, sample_kl
from .mlmc import MLMCParams, builtin_functionals, mlmc_estimate, mlmc_params, theoretical_cost
from .normal import (
    Phi,
    bit_normal_mse,
    bit_normal_mse_moments,
    bit_normal_sample,
    optimal_points,
    phi,
    phi_inv,
    phi_inv_tail,
)
from .sde import SDEModel, geometric_model, milstein_path, rbit_milstein_path, sde_bit_cost
from .wasserstein1d import DiscreteUniform, QuantileSpec, rbit_error, w2_empirical, w2_uniform

__version__ = "0.1.0"

__all__ = [
    "BitAllocation", "BitSource", "CostLedger", "DyadicValue", "child_source", "truncate",
    "BridgePath", "allocation_bridge", "bridge_bit_error_sq", "bridge_truncation_error_sq",
    "coarsen", "sample_bridge",
    "EigenSpec", "KLVector", "allocation_kl", "coarsen_kl", "kl_error_sq", "sample_kl",
    "MLMCParams", "builtin_functionals", "mlmc_estimate", "mlmc_params", "theoretical_cost",
    "Phi", "bit_normal_mse", "bit_normal_mse_moments", "bit_normal_sample", "optimal_points",
    "phi", "phi_inv", "phi_inv_tail",
    "SDEModel", "geometric_model", "milstein_path", "rbit_milstein_path", "sde_bit_cost",
    "DiscreteUniform", "QuantileSpec", "rbit_error", "w2_empirical", "w2_uniform",
]
