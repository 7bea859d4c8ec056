import math
import time

import numpy as np
import pytest

from rbitmc import gausskl as G
from rbitmc.bitcore import BitAllocation, BitSource, child_source
from rbitmc.errors import InternalInvariantError
from rbitmc.normal import bit_normal_mse, bit_normal_moment
from rbitmc.wasserstein1d import w2_empirical

SPEC = G.EigenSpec(beta=2.0, alpha=0.0)


def _sample_batch(src, m, n):
    """n KL rows of dimension m: (coeff rows, index rows, allocation)."""
    alloc = G.allocation_kl(m, SPEC)
    coeffs, idx = G.sample_rows(src, alloc, n, np.sqrt(SPEC.eigenvalues(np.arange(1, m + 1))))
    return coeffs, idx, alloc


def test_allocation_examples():
    assert list(G.allocation_kl(4, SPEC).counts) == [4, 2, 1, 1]
    assert G.allocation_kl(4, SPEC).total == 8
    assert list(G.allocation_kl(1, SPEC).counts) == [1]
    with pytest.raises(ValueError):
        G.allocation_kl(4, G.EigenSpec(beta=2.0, alpha=0.0, explicit=lambda i: i ** -2.0))


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("alpha", [-2.0, 0.0, 2.0])
def test_allocation_monotone_and_linear(beta, alpha):
    spec = G.EigenSpec(beta=beta, alpha=alpha)
    bound = 1.0 + beta * math.log2(math.e) + 2.0 * abs(alpha)
    prev = None
    for level in range(1, 17):
        counts = G.allocation_kl(1 << level, spec).counts
        if prev is not None:
            assert np.all(prev <= counts[: len(prev)])
        ratio = counts.sum() / (1 << level)
        assert 1.0 <= ratio <= bound
        prev = counts


def test_sampling_accounting_and_norm():
    src = BitSource(17)
    x = G.sample_kl(src, 32, SPEC)
    assert src.bits_drawn == x.allocation.total
    assert abs(x.norm_sq() - float(np.sum(x.coeffs ** 2))) <= 1e-12 * x.norm_sq()


def test_coarsen_nesting_and_no_bits():
    src = BitSource(18)
    x = G.sample_kl(src, 64, SPEC)
    drawn = src.bits_drawn
    mid = G.coarsen_kl(x, 16, SPEC)
    a = G.coarsen_kl(mid, 4, SPEC)
    b = G.coarsen_kl(x, 4, SPEC)
    assert np.array_equal(a.retained_indices, b.retained_indices)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert src.bits_drawn == drawn
    with pytest.raises(ValueError):
        G.coarsen_kl(x, 64, SPEC)


def test_coarsen_rejects_non_nested_allocation():
    src = BitSource(19)
    x = G.sample_kl(src, 4, SPEC)
    bigger = BitAllocation(np.array([60, 60]))
    with pytest.raises(InternalInvariantError):
        G.coarsen_kl(x, 2, SPEC, allocation=bigger)


def test_empirical_norm_matches_moment_sum():
    m, n = 64, 100_000
    src = BitSource(21)
    coeffs, _, alloc = _sample_batch(src, m, n)
    lam = SPEC.eigenvalues(np.arange(1, m + 1))
    expected = math.fsum(lam[i] * bit_normal_moment(int(alloc.counts[i]), 2)
                         for i in range(m))
    norm_sq = np.einsum("ij,ij->i", coeffs, coeffs)
    se = norm_sq.std(ddof=1) / math.sqrt(n)
    assert abs(norm_sq.mean() - expected) < 4.0 * se


def test_coordinates_have_zero_mean():
    m, n = 8, 200_000
    src = BitSource(22)
    coeffs, _, _ = _sample_batch(src, m, n)
    means = coeffs.mean(axis=0)
    ses = coeffs.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(means) < 4.0 * ses)


def test_coupling_law_two_sample():
    # coordinate 1 of a coarsened fine sample has exactly the coarse law
    m, m2, n = 16, 4, 100_000
    src = BitSource(23)
    _, idx_rows, alloc_f = _sample_batch(src, m, n)
    alloc_c = G.allocation_kl(m2, SPEC)
    _, idx_c = G.coarsen_rows(idx_rows, alloc_f, alloc_c)
    lam1 = math.sqrt(float(SPEC.eigenvalues(np.array([1.0]))[0]))
    from rbitmc.normal import grid_normal_values
    coarse_coord1 = lam1 * grid_normal_values(idx_c[:, 0], int(alloc_c.counts[0]))
    fresh_src = BitSource(24)
    fresh, _, _ = _sample_batch(fresh_src, m2, n)
    observed = w2_empirical(coarse_coord1, fresh[:, 0]) ** 2
    # simulated null: distances between independent samples of the same law
    null = []
    for r in range(60):
        s1 = child_source(900, r, 0)
        s2 = child_source(900, r, 1)
        a, _, _ = _sample_batch(s1, m2, n)
        b, _, _ = _sample_batch(s2, m2, n)
        null.append(w2_empirical(a[:, 0], b[:, 0]) ** 2)
    null = np.array(null)
    assert observed <= null.mean() + 3.0 * null.std(ddof=1)


def test_tail_sum_matches_trigamma():
    from scipy.special import polygamma
    lo, hi = G.tail_sum(64, SPEC)
    exact = float(polygamma(1, 65))
    assert lo <= exact <= hi
    assert (hi - lo) <= 1e-5 * lo


@pytest.mark.parametrize("eig", [lambda i: 1.0 - 1.0 / i, lambda i: i ** -0.5, lambda i: 1.0 / i],
                         ids=["rising", "inverse_sqrt", "harmonic"])
def test_tail_sum_rejects_non_summable_spectrum(eig):
    # the rising spectrum used to hang, the other two returned finite wrong tails
    spec = G.EigenSpec(beta=2.0, alpha=0.0, explicit=eig)
    start = time.perf_counter()
    with pytest.raises(ValueError):
        G.tail_sum(16, spec)
    assert time.perf_counter() - start < 5.0


def test_kl_error_explicit_bridge_spectrum():
    pspec = G.EigenSpec(beta=2.0, alpha=0.0, explicit=lambda i: (math.pi * i) ** -2.0)
    for p1 in (1, 4):
        got = G.kl_error_sq(1, pspec, allocation=BitAllocation(np.array([p1])))
        want = bit_normal_mse(p1) * math.pi ** -2 + (1.0 / 6.0 - math.pi ** -2)
        assert abs(got - want) <= 1e-9 * want


def test_kl_error_decreasing_in_m():
    errs = [G.kl_error_sq(1 << level, SPEC) for level in range(1, 11)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_kl_error_interval_contains_value():
    lo, hi = G.kl_error_interval(256, SPEC)
    val = G.kl_error_sq(256, SPEC)
    assert lo <= val <= hi
    assert (hi - lo) <= 1e-5 * val


def test_invalid_spec():
    with pytest.raises(ValueError):
        G.EigenSpec(beta=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        G.EigenSpec(beta=2.0, alpha=0.0, scale=0.0)
