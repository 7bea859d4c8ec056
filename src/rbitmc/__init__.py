"""Random-bit approximation of probability distributions and random-bit
multilevel Monte Carlo quadrature, with exact error evaluation and bit-cost
accounting."""

from .bitcore import BitAllocation, BitSource, CostLedger, child_source
from .bridge import allocation_bridge, bridge_bit_error_sq, bridge_truncation_error_sq
from .gausskl import EigenSpec, allocation_kl, coarsen_rows, kl_error_sq, sample_rows
from .mlmc import MLMCParams, builtin_functionals, mlmc_estimate, mlmc_params, theoretical_cost
from .normal import Phi, bit_normal_mse, bit_normal_mse_moments, optimal_points, phi, phi_inv, phi_inv_tail
from .sde import SDEModel, geometric_model, milstein_rows, refined_rows, sde_bit_cost
from .wasserstein1d import DiscreteUniform, QuantileSpec, rbit_error, w2_uniform

__version__ = "0.1.0"

__all__ = [
    "BitAllocation", "BitSource", "CostLedger", "child_source",
    "allocation_bridge", "bridge_bit_error_sq", "bridge_truncation_error_sq",
    "EigenSpec", "allocation_kl", "coarsen_rows", "kl_error_sq", "sample_rows",
    "MLMCParams", "builtin_functionals", "mlmc_estimate", "mlmc_params", "theoretical_cost",
    "Phi", "bit_normal_mse", "bit_normal_mse_moments", "optimal_points", "phi", "phi_inv", "phi_inv_tail",
    "SDEModel", "geometric_model", "milstein_rows", "refined_rows", "sde_bit_cost",
    "DiscreteUniform", "QuantileSpec", "rbit_error", "w2_uniform",
]
