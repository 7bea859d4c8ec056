"""Golden digests of sampled and coarsened expansion rows.

Each case pins the sha256 of ``.tobytes()`` of the coefficient rows and the
retained index rows, so any change in draw order, bit counts, coarsening
or scaling of the bridge, KL and MLMC samplers shows up as a digest change.
The Milstein cases pin the skeleton values, its retained indices and the
bits drawn; the refined path case pins its bridge coefficient rows, and the
refined rows case its node rows and bits.
"""

import hashlib

import numpy as np
import pytest

from rbitmc import bridge as BR
from rbitmc import gausskl as G
from rbitmc import mlmc as M
from rbitmc import sde as S
from rbitmc.bitcore import BitAllocation, BitSource

SPEC = G.EigenSpec(beta=2.0, alpha=0.0)


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(arr).tobytes()).hexdigest()


def _pair(coeffs, idx) -> list[str]:
    assert coeffs.dtype == np.float64 and idx.dtype == np.uint64
    assert coeffs.shape == idx.shape
    return [_digest(coeffs), _digest(idx)]


def _bridge_chain():
    src = BitSource(2024)
    a6, a4, a2 = (BR.allocation_bridge(level) for level in (6, 4, 2))
    path = G.sample_rows(src, a6, 1)
    c4 = G.coarsen_rows(path[1], a6, a4)
    c2 = G.coarsen_rows(c4[1], a4, a2)
    return [d for rows in (path, c4, c2) for d in _pair(*rows)]


def _kl_chain():
    src = BitSource(2025)
    a64, a16 = G.allocation_kl(64, SPEC), G.allocation_kl(16, SPEC)
    x = G.sample_rows(src, a64, 1, np.sqrt(SPEC.eigenvalues(np.arange(1, 65))))
    c16 = G.coarsen_rows(x[1], a64, a16, np.sqrt(SPEC.eigenvalues(np.arange(1, 17))))
    return [d for rows in (x, c16) for d in _pair(*rows)]


def _model_rows(model, seed, level, n):
    src = BitSource(seed)
    drawn = model.sample_rows(src, level, n)
    assert src.bits_drawn == n * model.allocation(level).total
    coeffs, idx = G.decode_rows(drawn, 0, n, model.scale(level), len(drawn.alloc))
    coarse = model.coarsen_rows(idx, level)
    return [d for rows in ((coeffs, idx), coarse) for d in _pair(*rows)]


def _refined_path():
    src = BitSource(2026)
    G.sample_rows(src, BitAllocation(np.full(5, 8)), 1)  # the 5-step 8-bit skeleton row
    coeffs, _ = G.sample_rows(src, BR.allocation_bridge(4), 5)
    assert coeffs.shape == (5, 15)
    return [_digest(coeffs)]


def _refined_rows():
    src = BitSource(2026)
    nodes = S.refined_rows(src, S.geometric_model(0.05, 0.2, 1.0), 5, 8, 4, 1)
    assert nodes.shape == (1, 81)
    return [_digest(nodes), src.bits_drawn]


def _milstein_path(q, head=0):
    src = BitSource(2031 + q)
    if head:
        src.draw_bits(head)
    y, idx = G.sample_rows(src, BitAllocation(np.full(37, q)), 1)
    values = S.milstein_rows(S.geometric_model(0.05, 0.2, 1.0), 37, y)
    return [_digest(values), _digest(idx), src.bits_drawn]


CASES = {
    "bridge": _bridge_chain,
    "kl": _kl_chain,
    "bridge_model_min0": lambda: _model_rows(M.bridge_model(), 2027, 6, 9),
    # at min_bits 4 the level-4 and level-5 blocks (p = 4, 2 -> 4) draw as one run
    "bridge_model_min4": lambda: _model_rows(M.BridgeModel(min_bits=4), 2028, 6, 9),
    "kl_model_min0": lambda: _model_rows(M.kl_model(SPEC), 2029, 6, 9),
    "kl_model_min4": lambda: _model_rows(M.KLModel(SPEC, min_bits=4), 2030, 6, 9),
    "refined_path": _refined_path,
    # the node rows of the same path
    "refined_rows": _refined_rows,
    "milstein_q2": lambda: _milstein_path(2),
    "milstein_q5": lambda: _milstein_path(5),
    # the skeleton starts 3 bits into the stream
    "milstein_q8_head3": lambda: _milstein_path(8, head=3),
    "milstein_q52": lambda: _milstein_path(52),
    "milstein_q63": lambda: _milstein_path(63),
}

GOLDEN = {
    "bridge": [
        "caf2430e01a01b85e5b05f3277612967e853dd77e36de3b0505de0de2eb35e96",
        "48c88cb6c0c03ca7a6bfa14656a65b726430200ad5cb6e7badcdb9c55d126e79",
        "cdb35797f471f9f438bdce1e83699d82ecc38f5d62968c85ec3aa842d71c77e7",
        "fa7b78db182c7feaf076506fdfae6cc689c3a3f20b4ff266aeaebeb6f797ca70",
        "1e03920dacc120890320544d3ef6145d91400a415f210d20a9b2ee58ae379882",
        "6578b8e9689bfb45039c123aa8f231ede979c85dc7239360d986ef60987a9aa4",
    ],
    "bridge_model_min0": [
        "815c5bebf17c416c3622c7615773a4c7b10ff72eefc390cdae2418d0ce7896b8",
        "a7cfb028fb1223d5a946f2ca34e4f26919fc96700f636a8aaf530332eda5050e",
        "dacc34ff61e2a32ef4ff68080fa5a374f2eeb9901a6211c4d8588f812b134377",
        "1c372683607f765da2bedffc54326635ff95708d30be58d6b951bc764fa086f3",
    ],
    "bridge_model_min4": [
        "4e6ceb391a26bf9d8dd07edeb1b897c58367a510a0cf059fd9366425606c9a5f",
        "3eed9481866375f43f2a5f85c48975434501a4390e228b48c915a4beeec78682",
        "42dd9d52072df45581994d49d99ef033a073c70aad34b701caba900869090422",
        "253065c5b37552325631f4470790c528a82de2d16ab183a1d60d01e76a592f37",
    ],
    "kl": [
        "2e6a38e28b4913a25769d1a53b8d9a62aa461d82f8bf46e0cb330fdf4d6a5d57",
        "3b59be0ff68916faa89c123afab9f56770cc65ad763e4b2d5cc006a0391a5bc5",
        "e51cc76126a6bbb3dfaf11ba95e40fe240525ab9986bf827b3f62fb92fd79038",
        "95fbe2fe337feab7303a89e92216b309415d051ac12da9e3910f1cf5eff5634b",
    ],
    "kl_model_min0": [
        "850af51ab9df50ed783fe0952fe54f42c1698a85c44c4f46dd4aeb902b4107a0",
        "074d2b7a3f425668f9fd8044962473bf07b29b8d07e0bf9526a6eadc81321fb8",
        "5f3aa35c3556c6724827644f5440b6d1574c480b44255347798f775df063e7d2",
        "6227cdacd0f0e5c05438799c5af69f3b6b57c1034506eaa82d525e8f070cf80c",
    ],
    "kl_model_min4": [
        "1bcbb80fe7b5efc6cb3ad4be0086e91907a4c0c481f5eb600a88b3575e863ed8",
        "c5aec7279d2006e5816aaa7ca7da4ee10b7eefd89185bdfa88d317661eadb1e8",
        "d7f47c9fb93ca26281fb648cfe08eda868c9cfe0125cf352762209414a6a34de",
        "819becfe1f441778e86aff29fc5f47a6646cf4ec8e7798890ea727f22be32ee5",
    ],
    "refined_path": [
        "7d2efaf9020c31eaeb20d862d16f2eaec3b1b7f0ddc63525c8f309adf3dff1ac",
    ],
    "refined_rows": [
        "d4793ddfc832849952ea4a6267d6c699c77ff8ac723d958a58504ad01b9d5f1f",
        300,
    ],
    "milstein_q2": [
        "6b9ab73f11fe5d77407ea6ef9b2f76c1389a3935713f97e29f059f5c063b9f5a",
        "7a6f088a359c8d49c2157fef73aa0ee942a6b28f4572cd67c1a33ebc97281228",
        74,
    ],
    "milstein_q5": [
        "6aafd81c10a683414d1680882defb17e9c73f34f6e32a92c9904973bbee19712",
        "2a204c6cc7f4e464fe9709ef1e7de7a3dcbcfe6e4e2b17f4c08dd5bc1c85caae",
        185,
    ],
    "milstein_q8_head3": [
        "9f11a98a62d56609503f340d476d8138207dc4938022c693eff20064e75bc25f",
        "5162a07ea52755e104c42c8fc9659a475ae54a7becaa018658c24c96f02037ba",
        299,
    ],
    "milstein_q52": [
        "e46fb8ee22d0159584f2c40446fcf065277170169062f42e829b11d364c5069e",
        "3416ba01293a1db539cd8e7e778452f8cc8ff9479ea8c3c861f0de9ad8ff7bac",
        1924,
    ],
    "milstein_q63": [
        "8f75f1a50cd5472a2bdd0c9beab1f451268d8a3927d4888c2ce2575329ca55b2",
        "f7c575eda038400d7c89608b4aecf38b59102cc565ecf67abb6b9210cc2b6c5f",
        2331,
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_expansion_rows_match_golden_digests(name):
    assert CASES[name]() == GOLDEN[name]
