"""Golden pins of the exact W2 tables of both shipped laws.

``float.hex`` of ``rbit_error`` at every p = 1..23, so every summation
order is pinned: one 2**20-cell chunk or less up to p = 20 (21 when only the
upper half of the grid is summed), several from there on.  ``float.hex`` of
``w2_uniform`` against the midpoint support ``bit_normal_support(p)`` at
p = 1..20, the route for points other than the law's own averages, and
against one point (p = 0).  sha256 digests pin ``optimal_points`` at p = 20
and 23, where the cells span one and eight chunks.
"""

import hashlib

import numpy as np
import pytest

from rbitmc import normal as N
from rbitmc import wasserstein1d as W

SPECS = {"normal": W.standard_normal_spec(), "uniform": W.uniform_spec()}

# law -> p -> float.hex of rbit_error; the uniform law's is 2**-p / (2 sqrt 3), one rounding
RBIT = {
    "normal": {
        1: '0x1.34a38c618ab2dp-1', 2: '0x1.7e616f72a6519p-2', 3: '0x1.e0261f95383f2p-3',
        4: '0x1.3150eee6d38b4p-3', 5: '0x1.891e655868975p-4', 6: '0x1.fff6c6ed51e46p-5',
        7: '0x1.50b5d1df179d3p-5', 8: '0x1.bea904b95a5dbp-6', 9: '0x1.2a59f44ff1c78p-6',
        10: '0x1.90e708fd5fa9cp-7', 11: '0x1.0ea73225c62ddp-7', 12: '0x1.6ee92eba2273bp-8',
        13: '0x1.f31568c288842p-9', 14: '0x1.5468aa941d051p-9', 15: '0x1.d1822aec6e22ap-10',
        16: '0x1.3ef8d2c440177p-10', 17: '0x1.b5f24f06a62a6p-11', 18: '0x1.2d25bd48cdba4p-11',
        19: '0x1.9ec563c7ff274p-12', 20: '0x1.1e02e3392dbcdp-12', 21: '0x1.8aeb1e1a0cebfp-13',
        22: '0x1.10f19ce21448bp-13', 23: '0x1.79a890783f3dap-14',
    },
    "uniform": {p: f"0x1.279a74590331cp-{p + 2}" for p in range(1, 24)},
}

# law -> p -> float.hex of w2_uniform against bit_normal_support(p)
SUPPORT_W2 = {
    "normal": {
        1: '0x1.3b09ec9353529p-1', 2: '0x1.884641fc4d345p-2', 3: '0x1.ede78c03f6c69p-3',
        4: '0x1.3ab413bf117a6p-3', 5: '0x1.95e4ec9585341p-4', 6: '0x1.08ad83269b7b1p-4',
        7: '0x1.5c8f21994795cp-5', 8: '0x1.ced2d4d9113b7p-6', 9: '0x1.3563ac628cc53p-6',
        10: '0x1.9fff7c0ef1969p-7', 11: '0x1.18fd4e8eb4758p-7', 12: '0x1.7d15ea4be06d5p-8',
        13: '0x1.0346317b0b2a5p-8', 14: '0x1.61ca732cf18fcp-9', 15: '0x1.e3ee77bb377c6p-10',
        16: '0x1.4bab1f575bba1p-10', 17: '0x1.c777396a62289p-11', 18: '0x1.393f2e5f9857cp-11',
        19: '0x1.af7fea69b0eafp-12', 20: '0x1.29960ebaff266p-12',
    },
    "uniform": {
        1: '0x1.57d9d6f8a1e5ap-1', 2: '0x1.84167b0fd6289p-1', 3: '0x1.9fc6370ecb9f7p-1',
        4: '0x1.af6508cf7df09p-1', 5: '0x1.b7d439db137c8p-1', 6: '0x1.bc473debd2f90p-1',
        7: '0x1.be97b4cfb8191p-1', 8: '0x1.bfc91116415b0p-1', 9: '0x1.c065769aa65c3p-1',
        10: '0x1.c0b5348687f77p-1', 11: '0x1.c0ddba7621bf5p-1', 12: '0x1.c0f24507af91fp-1',
        13: '0x1.c0fca96810217p-1', 14: '0x1.c101e93e31b65p-1', 15: '0x1.c1048f3549965p-1',
        16: '0x1.c105e4e4412cep-1', 17: '0x1.c10690f2bdaaep-1', 18: '0x1.c106e786be91bp-1',
        19: '0x1.c1071310ce76dp-1', 20: '0x1.c10728f322b4ap-1',
    },
}

# law -> (its one point at p = 0, float.hex of w2_uniform against it): sqrt(E Y^2) = 1 and sqrt(1/12)
ONE_POINT = {"normal": (0.0, '0x1.0000000000000p+0'), "uniform": (0.5, '0x1.279a74590331cp-2')}

# law -> p -> sha256 of optimal_points
OPTIMAL_SHA256 = {
    "normal": {20: "a84951128fa50e11de236b55693c3d1d9063636b1a9c2023d4a2906866ad4368",
               23: "459eace7527559117f9d56ed3592ceff806bcff5c8ea621c9b471ad8e38541f2"},
    "uniform": {20: "c2740a9dc29621e457ed1035b6a2475a1e5554fa6558311f3400d20b888432ec",
                23: "671da0894ae42b2032d28dce867d4e7bcb19dfa5e2be1e52a436fd71e6dee0ea"},
}


def _sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("law", sorted(SPECS))
def test_rbit_error_golden(law):
    got = {p: W.rbit_error(SPECS[law], p).hex() for p in range(1, 24)}
    assert got == RBIT[law]


@pytest.mark.parametrize("law", sorted(SPECS))
def test_w2_uniform_against_the_midpoint_support_golden(law):
    got = {p: W.w2_uniform(SPECS[law], W.DiscreteUniform(N.bit_normal_support(p))).hex() for p in range(1, 21)}
    assert got == SUPPORT_W2[law]


@pytest.mark.parametrize("law", sorted(SPECS))
def test_w2_uniform_against_one_point_golden(law):
    point, want = ONE_POINT[law]
    assert W.w2_uniform(SPECS[law], W.DiscreteUniform([point])).hex() == want


@pytest.mark.parametrize("law,p", [(law, p) for law in sorted(SPECS) for p in (20, 23)])
def test_optimal_points_golden(law, p):
    assert _sha256(N.optimal_points(SPECS[law], p)) == OPTIMAL_SHA256[law][p]
