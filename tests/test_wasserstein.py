import math
from fractions import Fraction

import numpy as np
import pytest

from rbitmc import normal as N
from rbitmc.bitcore import BitSource
from rbitmc.wasserstein1d import (
    DiscreteUniform,
    QuantileSpec,
    rbit_error,
    standard_normal_spec,
    uniform_spec,
    w2_uniform,
)

NORMAL = standard_normal_spec()
UNIFORM = uniform_spec()


def w2_empirical(a, b) -> float:
    """Exact W2 between the empirical measures of two equal-size samples."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) == 0:
        raise ValueError("samples must be non-empty 1-d sequences of equal length")
    d = np.sort(a) - np.sort(b)
    return math.sqrt(np.mean(d * d))


def test_w2_uniform_law_midpoint_grid():
    for p in (1, 4, 8):
        pts = N.optimal_points(UNIFORM, p)
        d = w2_uniform(UNIFORM, DiscreteUniform(pts))
        assert abs(d - 2.0 ** -p / (2.0 * math.sqrt(3.0))) < 1e-14 * d


def test_uniform_grid_cells_are_correctly_rounded():
    # on its own grid every uniform cell is int (u - m)^2 du = w^3 / 12,
    # rounded once; pinned byte for byte
    for p in range(1, 23):
        cells = UNIFORM.cell_sq_error(p, UNIFORM.cell_average(p))
        assert cells.tobytes() == np.full(1 << p, 2.0 ** (-3 * p) / 12.0).tobytes(), p


def test_uniform_off_grid_cells_match_exact_integrals():
    # int_lo^hi (u - c)^2 du in exact rationals; the float c is exact as a Fraction
    rng = np.random.default_rng(11)
    for p in (1, 4, 10, 16):
        n = 1 << p
        c = np.sort(rng.uniform(-0.5, 1.5, n))
        cells = UNIFORM.cell_sq_error(p, c)
        for k in rng.choice(n, size=min(n, 64), replace=False):
            lo, hi, ck = Fraction(int(k), n), Fraction(int(k) + 1, n), Fraction(float(c[k]))
            exact = ((hi - ck) ** 3 - (lo - ck) ** 3) / 3
            assert abs(Fraction(float(cells[k])) - exact) <= Fraction(1, 10 ** 14) * exact, (p, k)


def test_w2_normal_two_point_optimal():
    pts = N.optimal_points(NORMAL, 1)
    d = w2_uniform(NORMAL, DiscreteUniform(pts))
    assert abs(d - math.sqrt(1.0 - 2.0 / math.pi)) < 1e-13
    assert abs(d - 0.60281) < 1e-5


def test_w2_normal_midpoints_equal_rmse():
    sup = N.bit_normal_support(1)
    d = w2_uniform(NORMAL, DiscreteUniform(sup))
    assert abs(d - math.sqrt(N.bit_normal_mse(1))) < 1e-14


def test_w2_unsorted_points_rejected():
    with pytest.raises(ValueError):
        DiscreteUniform(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        w2_uniform(NORMAL, DiscreteUniform(np.array([0.0, 1.0, 2.0])))  # not 2**p


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_rejected(bad):
    # a NaN passes the sortedness check, and w2_uniform would then blame the law
    for points, index in (([0.0, bad], 1), ([bad, 0.0, 1.0, 2.0], 0), ([0.0, 1.0, bad, bad], 2)):
        with pytest.raises(ValueError, match=f"support points must be finite, got {bad} at index {index}"):
            DiscreteUniform(np.array(points))


def test_specs_without_closed_forms_or_with_divergent_cells_are_refused():
    # both cell forms are required fields of the dataclass
    with pytest.raises(TypeError, match="'cell_average' and 'cell_sq_error'"):
        QuantileSpec(name="no-cells")
    with pytest.raises(TypeError, match="cell_sq_error"):
        QuantileSpec(name="no-sq-error", cell_average=NORMAL.cell_average)
    # a spec given by its quantile alone is refused
    with pytest.raises(TypeError, match="quantile"):
        QuantileSpec(name="old-style", quantile=lambda u: u, second_moment=1.0)
    # a caller's own spec may still give non-finite cells; both entry points refuse them
    for value in (math.nan, math.inf, -math.inf):
        broken = QuantileSpec(
            name="broken",
            cell_average=lambda p, v=value: np.where(np.arange(1 << p) == (1 << p) - 1, v, 0.5),
            cell_sq_error=lambda p, c, v=value: np.where(np.arange(1 << p) == 0, v, 0.25),
        )
        with pytest.raises(ValueError, match="quantile not integrable"):
            N.optimal_points(broken, 2)
        with pytest.raises(ValueError, match="quantile not integrable"):
            rbit_error(broken, 2)
        with pytest.raises(ValueError, match="divergent Wasserstein cell integral"):
            w2_uniform(broken, DiscreteUniform(np.zeros(4)))
    with pytest.raises(ValueError, match="divergent Wasserstein cell integral"):
        w2_uniform(QuantileSpec("negative", NORMAL.cell_average, lambda p, c: np.full(1 << p, -1.0)),
                   DiscreteUniform(np.zeros(2)))


def test_rbit_error_uniform_constant():
    for p in range(1, 13):
        scaled = rbit_error(UNIFORM, p) * 2.0 ** p
        assert abs(scaled - 1.0 / (2.0 * math.sqrt(3.0))) <= 1e-8 * scaled


def test_rbit_error_normal_below_midpoint_rmse():
    for p in range(1, 17):
        assert rbit_error(NORMAL, p) <= math.sqrt(N.bit_normal_mse(p))


def test_rbit_error_monotone_and_scaled():
    vals = [rbit_error(NORMAL, p) for p in range(1, 16)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    for p in range(8, 13):
        scaled = 2.0 ** p * p * vals[p - 1] ** 2
        assert 0.05 <= scaled <= 6.0


def test_rbit_error_times_2p_unbounded():
    grown = [rbit_error(NORMAL, p) * 2.0 ** p for p in range(6, 19)]
    assert all(b > a for a, b in zip(grown, grown[1:]))


def test_optimal_points_are_locally_optimal():
    p = 4
    base = N.optimal_points(NORMAL, p)
    d0 = w2_uniform(NORMAL, DiscreteUniform(base))
    rng = np.random.default_rng(5)
    for _ in range(10):
        pts = np.sort(base * (1.0 + 1e-2 * rng.standard_normal(base.shape)))
        assert w2_uniform(NORMAL, DiscreteUniform(pts)) >= d0


def test_w2_empirical_examples():
    assert w2_empirical([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert w2_empirical([0.0, 0.0], [1.0, 1.0]) == 1.0
    assert w2_empirical([0.0, 1.0], [1.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        w2_empirical([1.0], [1.0, 2.0])


def test_w2_empirical_between_samplers():
    # same grid law sampled twice stays close in W2
    src = BitSource(3)
    a = N.grid_normal_values(src.draw_bits_array(6, 20_000) + np.uint64(1), 6)
    b = N.grid_normal_values(src.draw_bits_array(6, 20_000) + np.uint64(1), 6)
    assert w2_empirical(a, b) < 0.05
