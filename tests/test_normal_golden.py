"""Golden pins of the exact p-bit normal enumerations.

``float.hex`` of the mean-square gap, the cross moment and the moments 2 and
4 at p = 1, 2, 8, 21 and 22: the gap from ``bit_normal_mse`` and from the
fused ``bit_normal_mse_moments``, the moments from the fused pass (their only
route), the cross moment from ``bit_normal_cross_moment``.  At p = 21 the
upper half of the grid is exactly one 2**20-cell chunk, at p = 22 it spans
two, so the chunked summation order is pinned as well as the cell formulas.  sha256 digests pin the support, the
grid table of ``grid_normal_values`` and the best fixed-weight points of the
normal law (whose first and last cells have the infinite edges u = 0 and
u = 1), and ``float.hex`` pins their W2 distance; at p = 21 and 22 the cell
edges span many blocks of ``phi_inv`` on either side of u = 1/2.
"""

import hashlib

import numpy as np
import pytest

from rbitmc import normal as N
from rbitmc import wasserstein1d as W

# p -> (mse, cross moment, moment 2, moment 4), each as float.hex
ENUMERATIONS = {
    1: ('0x1.83b16c950c090p-2', '0x1.138a5b7dcbc8ap-1', '0x1.d1dada8c3b2bap-2', '0x1.a7de6485302e4p-3'),
    2: ('0x1.2c8b9eae69b64p-3', '0x1.90cf88460696bp-1', '0x1.6cc1f837a79b0p-1', '0x1.c2edcff0eb36bp-1'),
    8: ('0x1.a25ed2f0afa58p-11', '0x1.fe82e6258d25fp-1', '0x1.fd6e63ffd677dp-1', '0x1.71c4d307ed399p+1'),
    21: ('0x1.49d7ce38e64a0p-25', '0x1.fffff49f89ec4p-1', '0x1.ffffea88eba6cp-1', '0x1.7ffed0e7f7457p+1'),
    22: ('0x1.3b2eb9dcc44a0p-26', '0x1.fffffa5185884p-1', '0x1.fffff540a26d8p-1', '0x1.7fff61074ea60p+1'),
}

SUPPORT_SHA256 = {
    1: "b08c86c1492bb47839db2ea1af8f586acaada85ed27b0c6f954dfa7757cc2b5c",
    4: "fe921142a97f3a9278915272f7b100098fbab1b1c709219305238ce727428388",
    12: "52ad5951f4cb1daa85c236a3c3bbb52dec83947314ea245a375910d02909244d",
}

# p -> (sha256 of optimal_points, float.hex of rbit_error), normal law
OPTIMAL = {
    1: ("684cb0b5a7065a8860aa6d842b79a92ee8f672e5963aa33885fe6c43001b8130", '0x1.34a38c618ab2dp-1'),
    6: ("b82d1d59f9a590440b13c1a8c62822d715d2229b5fa398367bd2e0f3f8fa6050", '0x1.fff6c6ed51e46p-5'),
    16: ("3ee21bad2cb969f389c2c28cdf3ea302be1a1f9a2d660e5b102645d6a9796f48", '0x1.3ef8d2c440177p-10'),
    21: ("6cb2a8ec03fa925e5b132002797badd61657245704ee730b1cab0e8797a5069c", '0x1.8aeb1e1a0cebfp-13'),
    22: ("0a1151784912952a3be25450e87ae80c5de6d2aa26f294d48b985e1a47aa1bea", '0x1.10f19ce21448bp-13'),
}


def _sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("p", sorted(ENUMERATIONS))
def test_enumeration_golden(p):
    got = (N.bit_normal_mse(p).hex(), N.bit_normal_cross_moment(p).hex())
    assert got == ENUMERATIONS[p][:2]


@pytest.mark.parametrize("p", sorted(ENUMERATIONS))
def test_fused_normal_error_row_golden(p):
    mse, _, m2, m4 = ENUMERATIONS[p]
    assert [v.hex() for v in N.bit_normal_mse_moments(p)] == [mse, m2, m4]


@pytest.mark.parametrize("p", sorted(SUPPORT_SHA256))
def test_support_golden(p):
    assert _sha256(N.bit_normal_support(p)) == SUPPORT_SHA256[p]


def test_grid_table_golden():
    idx = np.arange(1, (1 << 12) + 1, dtype=np.uint64)
    assert _sha256(N.grid_normal_values(idx, 12)) == SUPPORT_SHA256[12]


@pytest.mark.parametrize("p", sorted(OPTIMAL))
def test_optimal_points_golden(p):
    spec = W.standard_normal_spec()
    assert (_sha256(N.optimal_points(spec, p)), W.rbit_error(spec, p).hex()) == OPTIMAL[p]
