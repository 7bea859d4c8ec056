"""Golden digests of the Schauder hat functions and of lazy bridge evaluation.

sha256 of ``.tobytes()`` of ``schauder(i, t)`` for i = 1..63 (levels 0..5)
and of ``evaluate_coeffs`` at every level 1..12, on one set of points: the
257 dyadic nodes k / 256 (t = 0 and t = 1 among them), 512 off-grid
points u drawn from a seeded ``BitSource`` and their cubes u**3, whose
mantissas are full where the u, multiples of 2**-53, are short.  The tolerance tests of
test_bridge.py admit rounding changes; these pins admit none.
"""

import hashlib

import numpy as np
import pytest

from rbitmc import bridge as BR
from rbitmc.bitcore import BitSource
from rbitmc.gausskl import sample_rows

SCHAUDER_SHA256 = "97c638f12f0399f1fb3d619900a8d4bf4a365ae9029fae2d10549fdf3f6af924"

# level -> sha256 of evaluate_coeffs over three sampled coefficient rows of the level
EVALUATE_SHA256 = {
    1: "4ef71d3ec4c02d46e838f14ce8a7e4b8732ae689bc35953702d1ccc9a5a43847",
    2: "69ac2db871898a96fc21a550b826d93046d8e3a044172907b360465968966508",
    3: "f99368d78554862d107e966824ec4737f3beaf149eceed7e5346fbd0b7dfb573",
    4: "aa43b44475fcaf303c9117fa482a0eadceef9765b073fde50a374bfb8689f65a",
    5: "2dec05c56ca8301d1562fffeb0d3a38164268a58f35f3b7feb01b59caa38f1c9",
    6: "cca1434ecca047dfed943507a932c3133103d3eb7ea332e936e0bac27db7456e",
    7: "c1658547a6827652657fcb7216ddec1f2c5083f0612e730c783e9476525e2abf",
    8: "27f16b8da918b1082ceabffaec71ad885bc8f32996a884e3530efd042c8c0ebd",
    9: "268bd67acd108abadf925169df87eac6f9aab64f7feb00c16e9b4d1081174951",
    10: "1183a2fdbe991297ba403664422abf46ce95c5fd125cabb785db2d0883a79ae4",
    11: "d30cfdb445f0992775bbcfe767346c94cc7456ad9c0483aff0ba2d8dd79c7af9",
    12: "9d49f8e7dcbab62a60176ea2350fcaee46b336b2ead8fcfd84703040ea0a293b",
}


def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()


def _points() -> np.ndarray:
    nodes = np.arange(257, dtype=np.float64) / 256.0
    u = BitSource(2027).draw_bits_array(53, 512).astype(np.float64) * 2.0 ** -53
    return np.concatenate((nodes, u, u ** 3))  # the cubes carry full mantissas near 0


POINTS = _points()


def test_schauder_golden():
    values = np.stack([BR.schauder(i, POINTS) for i in range(1, 64)])
    assert _digest(values) == SCHAUDER_SHA256


@pytest.mark.parametrize("level", range(1, 13))
def test_evaluate_coeffs_golden(level):
    coeffs, _ = sample_rows(BitSource(2028 + level), BR.allocation_bridge(level), 3)
    values = np.stack([BR.evaluate_coeffs(row, level, POINTS) for row in coeffs])
    assert _digest(values) == EVALUATE_SHA256[level]
