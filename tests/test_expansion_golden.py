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

from oracles import decode_block

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
    coeffs, idx = decode_block(drawn, 0, n, model.scale(level))
    coarse_idx = G.coarsen_rows(idx, drawn.alloc, model.allocation(level - 1))[1]
    coarse = (model.coarsen_rows(G.read_runs(drawn, 0, n), level, n), coarse_idx)
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
        "013f66759ccb2c4cea572749bd16f91ad6207b4c17aff75bcd691223bb6c37ae",
        "cdb35797f471f9f438bdce1e83699d82ecc38f5d62968c85ec3aa842d71c77e7",
        "daa6076affa97904cf48a0930f30bcc7e5b53f5e591fb02a0dc8f3e996625f10",
        "1e03920dacc120890320544d3ef6145d91400a415f210d20a9b2ee58ae379882",
        "4bd202a0ebe8b3f86e55b8747cdac69c1e9d3b03c259471e4be50bf40ba36c7b",
    ],
    "bridge_model_min0": [
        "815c5bebf17c416c3622c7615773a4c7b10ff72eefc390cdae2418d0ce7896b8",
        "81b300884dc0da62fb2bcd839cb1bfe8caf583abc20961f20e4d74b6ae756c1d",
        "dacc34ff61e2a32ef4ff68080fa5a374f2eeb9901a6211c4d8588f812b134377",
        "68031b5b774696d407909c87154a756f1530dc7d3b6e002ac10ff6dc5b22682e",
    ],
    "bridge_model_min4": [
        "4e6ceb391a26bf9d8dd07edeb1b897c58367a510a0cf059fd9366425606c9a5f",
        "5851ea8e2659bc750375d46c374710c9b335922dabf79d3d24e49851a4966f8d",
        "42dd9d52072df45581994d49d99ef033a073c70aad34b701caba900869090422",
        "4a2ef70a5120a7fa475101784663f69ebce3ab60094f58be81750baf3eebb37e",
    ],
    "kl": [
        "2e6a38e28b4913a25769d1a53b8d9a62aa461d82f8bf46e0cb330fdf4d6a5d57",
        "5f9028e3bfb1f87fcad6ad93108c1745950b87aaced4800ba7a55b7320653480",
        "e51cc76126a6bbb3dfaf11ba95e40fe240525ab9986bf827b3f62fb92fd79038",
        "0e650c485d53690474c69c452c240d0cf4eb1afaa340967f92a7d2a44594b420",
    ],
    "kl_model_min0": [
        "850af51ab9df50ed783fe0952fe54f42c1698a85c44c4f46dd4aeb902b4107a0",
        "2de6463ae4cc520ebd20b07d8b3812f7d4815bf23b7ca63a096b7af81e5519df",
        "5f3aa35c3556c6724827644f5440b6d1574c480b44255347798f775df063e7d2",
        "723905c7547190630cf758c45b6a66a230ba1f917920419d3bab1e19dbd5c00c",
    ],
    "kl_model_min4": [
        "1bcbb80fe7b5efc6cb3ad4be0086e91907a4c0c481f5eb600a88b3575e863ed8",
        "e12f80243d4cc5b2b5baa6c184e805d8eba4a0bd9428468ca724593c4e936996",
        "d7f47c9fb93ca26281fb648cfe08eda868c9cfe0125cf352762209414a6a34de",
        "f6c30a21f81a1151066b74ebd60d5f6b6ea63207901607a8241d1a646e14f00a",
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
        "bb7046e07f18b36545d8089313895fb3baf5c3c15247c515b0da134cf7bfbdac",
        74,
    ],
    "milstein_q5": [
        "6aafd81c10a683414d1680882defb17e9c73f34f6e32a92c9904973bbee19712",
        "e5c8e567365ae002403f62755015467b0d8ab9ea0d4fb5f5343db3ab891a42a9",
        185,
    ],
    "milstein_q8_head3": [
        "9f11a98a62d56609503f340d476d8138207dc4938022c693eff20064e75bc25f",
        "72452c64e32b4cde057c2179cf40c6aa1cd197de9f7296c0e8e770ee8073b591",
        299,
    ],
    "milstein_q52": [
        "e46fb8ee22d0159584f2c40446fcf065277170169062f42e829b11d364c5069e",
        "c34ec8f248c629d0acec7ba0936f20afb2bf2380cf2af28a2477c9ec9f3f0773",
        1924,
    ],
    "milstein_q63": [
        "8f75f1a50cd5472a2bdd0c9beab1f451268d8a3927d4888c2ce2575329ca55b2",
        "925ac8699b5881997ee31c6e5dfa08143c7d34532c036a7cc89a9c44319686b2",
        2331,
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_expansion_rows_match_golden_digests(name):
    assert CASES[name]() == GOLDEN[name]
