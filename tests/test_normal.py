import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from rbitmc import normal as N
from rbitmc import wasserstein1d as W
from rbitmc.bitcore import BitAllocation, BitSource, dyadic_edges, dyadic_values, exact_sum, exact_sum_chunks
from rbitmc.errors import CapacityError
from rbitmc.gausskl import sample_rows

from oracles import bit_normal_cross_moment, gaussian_cell_average, gaussian_cell_sq_error

mp.mp.dps = 40


def test_phi_and_Phi_basics():
    assert N.Phi(0.0) == 0.5
    assert abs(N.phi(0.0) - 0.3989422804014327) < 1e-16
    # tail equivalent: 1 - Phi(x) ~ phi(x)/x at x = 8 within 2 percent
    x = 8.0
    assert abs(N.Phi(-x) / (N.phi(x) / x) - 1.0) < 0.02


def test_Phi_tail_absolute_accuracy():
    # complementary evaluation keeps tiny tail values meaningful
    val = N.Phi(-37.0)
    true = float(mp.ncdf(-37))
    assert val > 0.0
    assert abs(val - true) <= 1e-300 + 1e-13 * true


def test_phi_inv_median_and_quartile():
    assert N.phi_inv(0.5) == 0.0
    oracle = brentq(lambda y: N.Phi(y) - 0.75, 0.0, 1.0, xtol=1e-16, rtol=8.9e-16)
    assert abs(N.phi_inv(0.75) - oracle) < 1e-15
    assert abs(N.phi_inv(0.75) - 0.6744897501960817) < 1e-15


def test_phi_inv_residual_contract():
    rng = np.random.default_rng(7)
    us = np.concatenate([
        rng.uniform(1e-12, 1.0 - 1e-12, 500),
        2.0 ** -np.arange(2, 63, dtype=np.float64),
        1.0 - 2.0 ** -np.arange(2, 53, dtype=np.float64),
    ])
    ys = N.phi_inv(us)
    for u, y in zip(us, ys):
        resid = abs(float(mp.ncdf(mp.mpf(y)) - mp.mpf(u)))
        assert resid <= 1e-15 * max(u, 1.0 - u)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True))
def test_phi_inv_antisymmetry_exact(w):
    assert N.phi_inv(w) == -N.phi_inv(1.0 - w)


def test_phi_inv_domain_errors():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            N.phi_inv(bad)
    # a bad point in a later block is refused too
    us = np.full(N._PHI_INV_BLOCK + 2, 0.25)
    us[-1] = 1.0
    with pytest.raises(ValueError):
        N.phi_inv(us)


@pytest.mark.parametrize("bad", [math.nan, [0.5, math.nan], [math.nan, 0.25]])
def test_phi_inv_refuses_nan(bad):
    """NaN is outside 0 < u < 1: phi_inv(nan) gave nan and [0.5, nan] gave [0, nan]."""
    with pytest.raises(ValueError, match="0 < u < 1"):
        N.phi_inv(bad)
    us = np.full(N._PHI_INV_BLOCK + 2, 0.25)
    us[-1] = math.nan  # in a later block
    with pytest.raises(ValueError, match="0 < u < 1"):
        N.phi_inv(us)


def test_top_grid_indices_are_the_mirrors_of_the_bottom_ones():
    """From p = 53 on the midpoint of the top fields rounds to 1.0, where
    phi_inv raised: field 2**53 - 1 at p = 53 and the top 513 fields at p = 63.
    There the value is minus that of the mirror field 2**p - 1 - f; every
    other field keeps phi_inv(dyadic_values(f, p)), bit for bit."""
    for p, top in ((53, 1), (63, 513)):
        idx = (np.uint64(1) << np.uint64(p)) - np.arange(1, 1031, dtype=np.uint64)  # 2**p - 1 down to 2**p - 1030
        u = dyadic_values(idx, p)
        assert int(np.sum(u == 1.0)) == top
        got = N.grid_normal_values(idx, p)
        mirror = np.uint64((1 << p) - 1) - idx
        assert got[:top].tobytes() == (-N.grid_normal_values(mirror[:top], p)).tobytes()
        assert got[top:].tobytes() == N.phi_inv(u[top:]).tobytes()
        assert got[0] == -N.grid_normal_values(np.uint64(0), p) > 8.0
        # the batched route of the decode gives them too, beside a run below the limit
        runs = N.grid_normal_runs([(idx[:3].reshape(1, 3), p), (np.array([0, 1], np.uint64), 30)])
        assert runs[0].shape == (1, 3) and runs[0].tobytes() == got[:3].tobytes()
        assert runs[1].tobytes() == N.phi_inv(dyadic_values(np.array([0, 1]), 30)).tobytes()


def _grid_pair(p):
    """Indices (p-bit fields) in a 0-d, 1-d or 2-d shape, drawn from the whole
    grid and from its top 1101 fields (where the mirror acts from p = 53 on)."""
    index = st.one_of(st.integers(0, 2**p - 1), st.integers(max(0, 2**p - 1101), 2**p - 1))
    return st.sampled_from([(), (3,), (2, 3)]).flatmap(
        lambda shape: st.lists(index, min_size=math.prod(shape), max_size=math.prod(shape)).map(
            lambda v: (np.array(v, dtype=np.uint64).reshape(shape), p)))


_GRID_P = st.one_of(st.sampled_from([1, 2, 4, 8]), st.sampled_from([3, 5, 12, 20]), st.integers(21, 52),
                    st.integers(53, 63))


@settings(max_examples=150, deadline=None)
@given(runs=st.lists(_GRID_P.flatmap(_grid_pair), max_size=6))
def test_grid_normal_runs_match_phi_inv_at_the_midpoints(runs):
    """Each array of grid_normal_runs is phi_inv(dyadic_values(i, p)) byte for
    byte in the shape of its indices (minus the mirror value at the top
    indices of p >= 53), for byte, table and phi_inv precisions mixed in one
    list, and the list costs one phi_inv call if a pair is above the table
    cap, none otherwise."""
    N.grid_normal_runs(runs)  # builds the grid tables, which call phi_inv once each
    with mock.patch.object(N, "phi_inv", wraps=N.phi_inv) as spy:
        got = N.grid_normal_runs(runs)
    assert spy.call_count == int(any(p > N.GRID_TABLE_MAX_P for _, p in runs))
    assert len(got) == len(runs)
    for y, (i, p) in zip(got, runs):
        u = dyadic_values(i, p).reshape(-1)
        top = u == 1.0
        u[top] = dyadic_values(np.uint64(2**p - 1) - i.reshape(-1)[top], p)
        want = N.phi_inv(u)
        want[top] = -want[top]
        assert np.shape(y) == i.shape
        assert np.asarray(y).tobytes() == want.tobytes()
    assert N.grid_normal_runs([]) == []


def test_blocked_phi_inv_matches_scalar_calls():
    """phi_inv over blocks of _PHI_INV_BLOCK points equals one scalar call per
    point, bit for bit: sizes block - 1, block and block + 1, a 2-d input,
    both halves of (0, 1) and both tails beyond _ACK_SPLIT."""
    block = N._PHI_INV_BLOCK
    rng = np.random.default_rng(11)
    us = rng.uniform(0.0, 1.0, block + 1)
    quarter = (block + 1) // 4
    us[:quarter] = N._ACK_SPLIT * 2.0 ** -rng.uniform(0.0, 60.0, quarter)
    us[quarter:2 * quarter] = 1.0 - N._ACK_SPLIT * 2.0 ** -rng.uniform(0.0, 40.0, quarter)
    us = us[rng.permutation(block + 1)]
    assert np.all((us > 0.0) & (us < 1.0))
    for part in (us < N._ACK_SPLIT, us > 1.0 - N._ACK_SPLIT, (us > 0.25) & (us < 0.5), (us > 0.5) & (us < 0.75)):
        assert part[:block - 1].any()
    oracle = np.array([N.phi_inv(float(u)) for u in us])
    for size in (block - 1, block, block + 1):
        assert N.phi_inv(us[:size]).tobytes() == oracle[:size].tobytes()
    grid = us.reshape(5, -1)  # 5 rows of 3277; the last one straddles the block boundary
    got = N.phi_inv(grid)
    assert got.shape == grid.shape and got.tobytes() == oracle.tobytes()
    assert N.phi_inv(us[::-1])[::-1].tobytes() == oracle.tobytes()  # strided input
    assert N.phi_inv(np.empty((0, 3))).shape == (0, 3)
    assert isinstance(N.phi_inv(np.array(0.3)), float)


def _select_block_body(u):
    """phi_inv's block body as it was with branch selects, the oracle of the
    select-free one: np.where folds and unfolds the upper half, and the
    Acklam start evaluates each rational on its own cells only."""
    a, b, c, d = N._ACK_A, N._ACK_B, N._ACK_C, N._ACK_D
    upper = u > 0.5
    low = np.where(upper, 1.0 - u, u)
    start = np.empty_like(low)
    tail = low < N._ACK_SPLIT
    if np.any(tail):
        q = np.sqrt(-2.0 * np.log(low[tail]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        start[tail] = num / den
    mid = ~tail
    if np.any(mid):
        q = low[mid] - 0.5
        r = q * q
        num = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        start[mid] = num / den
    y = N._halley_low(low, start)
    return np.where(upper, -y, y)


_SPLIT_EDGES = [edge for s in (N._ACK_SPLIT, 1.0 - N._ACK_SPLIT)
                for edge in (s, np.nextafter(s, 0.0), np.nextafter(s, 1.0))]
_PHI_INV_EDGES = [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), *_SPLIT_EDGES,
                  *(float(dyadic_values(np.uint64(f), p)) for p in (22, 52, 63) for f in (0, 2**p - 1)
                    if dyadic_values(np.uint64(f), p) < 1.0)]


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([22, 52, 63]), fields=st.lists(st.integers(0, 2**63 - 1), max_size=200),
       edges=st.lists(st.sampled_from(_PHI_INV_EDGES), max_size=20))
def test_phi_inv_block_body_is_the_select_form_byte_for_byte(p, fields, edges):
    """phi_inv folds with np.minimum, runs the central rational on the whole
    block and negates the upper half in place: the bytes of the form with
    selects, at p-bit midpoints and at the edges (one half, the split
    +-0.02425 of the tails and their neighbours, the extreme cells)."""
    u = np.concatenate([dyadic_values(np.array(fields, dtype=np.uint64) >> np.uint64(63 - p), p), edges])
    u = u[u < 1.0]  # the top 63-bit cells round to 1
    assert N.phi_inv(u).tobytes() == _select_block_body(u).tobytes()


def _kernel_points():
    """block + 1 points over both halves of (0, 1) and both tails beyond
    _ACK_SPLIT, followed by the _PHI_INV_EDGES."""
    block = N._PHI_INV_BLOCK
    rng = np.random.default_rng(5)
    us = rng.uniform(0.0, 1.0, block + 1)
    quarter = (block + 1) // 4
    us[:quarter] = N._ACK_SPLIT * 2.0 ** -rng.uniform(0.0, 60.0, quarter)
    us[quarter:2 * quarter] = 1.0 - N._ACK_SPLIT * 2.0 ** -rng.uniform(0.0, 40.0, quarter)
    return np.concatenate([us[rng.permutation(block + 1)], _PHI_INV_EDGES])


def test_phi_inv_in_place_is_the_out_of_place_bytes():
    """phi_inv(u, out=u) overwrites u with the bytes of phi_inv(u), at block - 1,
    block and block + 1 points, on a 2-d input straddling a block boundary and
    on the edges alone; a separate out gets the same bytes, and phi_inv(u)
    leaves u as it was."""
    block = N._PHI_INV_BLOCK
    points = _kernel_points()
    assert np.all((points > 0.0) & (points < 1.0))
    for part in (points < N._ACK_SPLIT, points > 1.0 - N._ACK_SPLIT, (points > 0.25) & (points < 0.5),
                 (points > 0.5) & (points < 0.75)):
        assert part[:block - 1].any()
    for u in (points[:block - 1], points[:block], points[:block + 1], points[-len(_PHI_INV_EDGES):],
              points[:5 * 3277].reshape(5, 3277)):
        kept = u.copy()
        want = N.phi_inv(u)
        assert u.tobytes() == kept.tobytes()
        out = np.full_like(u, np.nan)
        assert N.phi_inv(u, out=out) is out and out.tobytes() == want.tobytes()
        u = u.copy()
        assert N.phi_inv(u, out=u) is u and u.tobytes() == want.tobytes()
    zero_d = np.array(0.3)
    assert N.phi_inv(zero_d, out=zero_d) is zero_d and float(zero_d) == N.phi_inv(0.3)


def _read_only(n):
    out = np.zeros(n)
    out.flags.writeable = False
    return out


# each builds a bad out for the 10 points backing[:10] of a 12-point array
_BAD_OUTS = {
    "list": lambda backing: [0.0] * 10,
    "float32": lambda backing: np.zeros(10, dtype=np.float32),
    "shape": lambda backing: np.zeros(11),
    "strided": lambda backing: np.zeros(20)[::2],
    "read_only": lambda backing: _read_only(10),
    "overlap": lambda backing: backing[2:],
}


@pytest.mark.parametrize("kind", list(_BAD_OUTS))
def test_phi_inv_refuses_a_bad_out_before_writing(kind):
    """An out that is not a writable C-contiguous float64 array of u's shape,
    or that overlaps u without being u, raises ValueError and nothing is
    written, neither to out nor to u."""
    backing = np.linspace(0.1, 0.9, 12)
    u, out = backing[:10], _BAD_OUTS[kind](backing)
    kept_u, kept_out = u.copy(), np.array(out, copy=True)
    with pytest.raises(ValueError, match="^phi_inv out must be"):
        N.phi_inv(u, out=out)
    assert u.tobytes() == kept_u.tobytes()
    assert np.asarray(out).tobytes() == kept_out.tobytes()


def test_phi_inv_tail_values():
    assert N.phi_inv_tail(1.0) == 0.0
    assert abs(N.phi_inv_tail(2.0) - 0.6744897501960817) < 1e-14
    with pytest.raises(ValueError):
        N.phi_inv_tail(0.5)
    # ratio to sqrt(ln 4) sqrt(t): increasing on [10, 60], ~0.955 at t = 50
    ts = np.arange(10, 61, dtype=np.float64)
    ratios = [N.phi_inv_tail(t) / (math.sqrt(N.LN4) * math.sqrt(t)) for t in ts]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    at50 = ratios[40]
    assert 0.9 <= at50 <= 1.0
    assert abs(at50 - 0.955) < 5e-3


def test_bit_normal_support_examples():
    s1 = N.bit_normal_support(1)
    assert np.allclose(s1, [-0.6744897502, 0.6744897502], atol=1e-9)
    s2 = N.bit_normal_support(2)
    assert np.allclose(s2, [-1.1503493804, -0.3186393639, 0.3186393639, 1.1503493804], atol=1e-9)
    # antisymmetry, monotonicity, and an exactly-zero mean
    for p in (1, 2, 5, 8):
        s = N.bit_normal_support(p)
        assert np.all(s[::-1] == -s)
        assert np.all(np.diff(s) > 0)
        assert math.fsum(s) == 0.0


def test_bit_normal_sampling_matches_support():
    src = BitSource(11)
    s2 = set(N.bit_normal_support(2))
    coeffs, _ = sample_rows(src, BitAllocation(np.full(200, 2)), 1)
    assert set(coeffs[0]) <= s2
    assert src.bits_drawn == 400
    arr = N.grid_normal_values(src.draw_bits_array(2, 1000), 2)
    assert set(arr) <= s2


def test_bit_normal_empirical_mean_p8():
    src = BitSource(20)
    n = 1_000_000
    draws = N.grid_normal_values(src.draw_bits_array(8, n), 8)
    sigma_hat = draws.std(ddof=1)
    assert abs(draws.mean()) < 4.0 * sigma_hat / 1000.0


def test_mse_p1_closed_form():
    x = N.phi_inv(0.75)
    closed = 1.0 + x * x - 4.0 * x * N.phi(0.0)
    assert abs(N.bit_normal_mse(1) - closed) < 1e-16
    assert abs(N.bit_normal_mse(1) - 0.37862) < 2e-5


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("p", [1, 2, 4, 6])
def test_mse_against_quadrature_oracle(p):
    n = 1 << p
    total = 0.0
    for k in range(1, n + 1):
        c = N.phi_inv((2 * k - 1) / (2 * n))
        v, _ = quad(lambda u: (N.phi_inv(u) - c) ** 2, (k - 1) / n, k / n,
                    epsabs=1e-16, epsrel=1e-13, limit=300)
        total += v
    assert abs(N.bit_normal_mse(p) - total) < 1e-12 * total


def test_mse_monotone_decreasing():
    vals = [N.bit_normal_mse(p) for p in range(1, 17)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("p", [4, 8, 12, 16])
def test_mse_cross_moment_identity(p):
    mse, m2, _ = N.bit_normal_mse_moments(p)
    ident = 1.0 + m2 - 2.0 * bit_normal_cross_moment(p)
    assert abs(mse - ident) <= 1e-10 * mse


def test_mse_rate_slope_over_12_24():
    ps = np.arange(12, 25, dtype=np.float64)
    y = np.log(np.array([N.bit_normal_mse(int(p)) for p in ps]) * ps)
    slope = np.polyfit(ps * math.log(2.0), y, 1)[0]
    assert -1.10 <= slope <= -0.95


def test_mse_capacity_and_surrogate():
    with pytest.raises(CapacityError):
        N.bit_normal_mse(27)
    assert N.bit_normal_mse_extended(12) == N.bit_normal_mse(12)
    assert N.bit_normal_mse_extended(30) == N.MSE_SCALED_LIMIT * 2.0 ** -30 / 30


@pytest.mark.parametrize("enumerate_cells", [
    N.bit_normal_support, N.bit_normal_mse, N.bit_normal_mse_moments,
    bit_normal_cross_moment, lambda p: N.optimal_points(W.standard_normal_spec(), p),
    lambda p: W.rbit_error(W.standard_normal_spec(), p),
], ids=["support", "mse", "mse_moments", "cross_moment", "optimal_points", "rbit_error"])
def test_exact_enumerations_check_the_precision(enumerate_cells):
    for p in (0, -1):
        with pytest.raises(ValueError, match="positive integer"):
            enumerate_cells(p)
    with pytest.raises(CapacityError):
        enumerate_cells(N.MSE_EXACT_MAX_P + 1)


def test_gaussian_cell_average_matches_quadrature():
    lo = np.array([0.0, 0.1, 0.5, 0.75])
    hi = np.array([0.25, 0.3, 0.625, 1.0])
    got = gaussian_cell_average(lo, hi)
    for a, b, g in zip(lo, hi, got):
        want = quad(N.phi_inv, a, b, epsabs=0.0, epsrel=1e-12)[0] / (b - a)
        assert abs(g - want) <= 1e-10 * abs(want)
    assert gaussian_cell_average(0.0, 1.0) == 0.0
    assert gaussian_cell_average(0.0, 0.5) == -gaussian_cell_average(0.5, 1.0)


@pytest.mark.parametrize("p", range(0, 13))
def test_edge_density_matches_direct_density(p):
    """The density terms at the edges k 2**-p of the upper half are the
    mirror of those of the lower half, bit for bit (phi_inv(1 - u) =
    -phi_inv(u), phi(y) even, y phi(y) odd): the cells of the normal mirror
    exactly, which rbit_error's doubled upper half relies on."""
    n = 1 << p
    half = n >> 1
    pdf_low, ypdf_low = N._quantile_density(dyadic_edges(0, half, p))
    mirror = slice(n - half - 1, None, -1)  # edges n - k for k = half + 1..n
    pdf = np.concatenate((pdf_low, pdf_low[mirror]))
    ypdf = np.concatenate((ypdf_low, -ypdf_low[mirror]))
    ypdf[n] = 0.0  # +0.0 at the infinite edge u = 1, as _quantile_density gives
    want_pdf, want_ypdf = N._quantile_density(np.arange((1 << p) + 1, dtype=np.float64) * 2.0 ** -p)
    assert pdf.tobytes() == want_pdf.tobytes() and ypdf.tobytes() == want_ypdf.tobytes()


@pytest.mark.parametrize("p", [0, 1, 2, 5, 12])
def test_grid_closed_forms_match_cell_forms(p):
    """The range forms equal the per-cell forms over the whole grid, and a
    range of cells gives the slice of the whole grid, bit for bit."""
    n = 1 << p
    lo = np.arange(0, n, dtype=np.float64) / n
    hi = np.arange(1, n + 1, dtype=np.float64) / n
    avg, sq = N.gaussian_cells(p, 0, n)
    assert avg.tobytes() == gaussian_cell_average(lo, hi).tobytes()
    assert sq.tobytes() == gaussian_cell_sq_error(lo, hi, avg).tobytes()
    c = avg * 1.01 + 0.125
    sq_c = N.gaussian_cells(p, 0, n, c)[1]
    assert sq_c.tobytes() == gaussian_cell_sq_error(lo, hi, c).tobytes()
    f0, f1 = n // 3, n - n // 5
    assert [a.tobytes() for a in N.gaussian_cells(p, f0, f1)] == [avg[f0:f1].tobytes(), sq[f0:f1].tobytes()]
    assert N.gaussian_cells(p, f0, f1, c[f0:f1])[1].tobytes() == sq_c[f0:f1].tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 8, 12, 21])
def test_fused_normal_error_row_matches_separate_calls(p, monkeypatch):
    """The mse equals the mse-only pass, and each moment equals 2**-p times
    the exactly rounded fsum of x_k^r over the whole support: up to p = 21
    the upper half is one chunk, and the sum over both halves is twice it."""
    monkeypatch.setattr(N, "_MSE_CACHE", {})
    row = N.bit_normal_mse_moments(p)
    monkeypatch.setattr(N, "_MSE_CACHE", {})
    support = N.bit_normal_support(p)
    separate = (N.bit_normal_mse(p), 2.0 ** -p * math.fsum(support ** 2), 2.0 ** -p * math.fsum(support ** 4))
    assert [v.hex() for v in row] == [v.hex() for v in separate]


def test_chunked_moment_sums_are_one_ulp_off_at_p22():
    """At p = 22 the upper half spans two 2**20-cell chunks.  The sum of the
    rounded chunk sums (_upper_sums' order) gives the pinned moment 4,
    1 ulp above the correctly rounded sum of all x_f^4, which the streaming
    exact sum gives (fsum's value)."""
    p = 22
    chunks = [N._mid_quantiles(p, f0, f1) ** 4 for f0, f1 in N.cell_chunks(p, upper=True)]
    assert len(chunks) == 2
    scale = 2.0 ** -(p - 1)
    one_rounding = (scale * exact_sum_chunks(chunks)).hex()
    assert one_rounding == (scale * math.fsum(np.concatenate(chunks))).hex() == "0x1.7fff61074ea5fp+1"
    assert (scale * exact_sum([exact_sum(c) for c in chunks])).hex() == "0x1.7fff61074ea60p+1"


def test_moments():
    x = N.phi_inv(0.75)
    _, m2, _ = N.bit_normal_mse_moments(1)
    assert abs(m2 - x * x) < 1e-15
    assert abs(m2 - 0.4549364231) < 1e-9
    for p in (2, 6, 10, 16):
        _, m2, m4 = N.bit_normal_mse_moments(p)
        assert m2 <= 1.0
        assert m4 <= 3.0


def test_monte_carlo_second_moment_consistency():
    p, n = 10, 1_000_000
    src = BitSource(31)
    draws = N.grid_normal_values(src.draw_bits_array(p, n), p)
    _, m2, m4 = N.bit_normal_mse_moments(p)
    se = math.sqrt((m4 - m2 * m2) / n)
    assert abs(np.mean(draws * draws) - m2) < 4.0 * se


def test_grid_normal_values_match_phi_inv():
    src = BitSource(8)
    idx = src.draw_bits_array(14, 1000)
    direct = N.phi_inv((2.0 * idx.astype(np.float64) + 1.0) * 2.0 ** -15)
    assert np.array_equal(N.grid_normal_values(idx, 14), direct)


def test_optimal_points_normal_two_point():
    pts = N.optimal_points(_normal_spec(), 1)
    root = math.sqrt(2.0 / math.pi)
    assert np.allclose(pts, [-root, root], rtol=1e-13)


def _normal_spec():
    from rbitmc.wasserstein1d import standard_normal_spec
    return standard_normal_spec()


def _uniform_spec():
    from rbitmc.wasserstein1d import uniform_spec
    return uniform_spec()


def test_optimal_points_uniform_are_midpoints():
    for p in (1, 3, 6):
        pts = N.optimal_points(_uniform_spec(), p)
        mids = (2.0 * np.arange(1, (1 << p) + 1) - 1.0) * 2.0 ** -(p + 1)
        assert np.array_equal(pts, mids)


def test_optimal_points_interleave_midpoints_p4():
    p = 4
    opt = N.optimal_points(_normal_spec(), p)
    mid = N.bit_normal_support(p)
    n = 1 << p
    for k in range(n // 2 + 1, n):  # 1-based cells in the upper half, not the last
        assert mid[k - 1] < opt[k - 1] < mid[k]


def test_func_g():
    assert abs(N.func_g(0.0) - 0.5) < 1e-15
    brute, _ = quad(lambda x: (x - 1.0) ** 2 * N.phi(x), 1.0, 40.0, epsabs=1e-15, epsrel=1e-12)
    assert abs(N.func_g(1.0) - brute) < 1e-12
    assert abs(N.func_g(1.0) - 0.0753) < 1e-4
    with pytest.raises(ValueError):
        N.func_g(-1.0)


def _h_series(a: float) -> float:
    total, term, n = 0.0, a, 0
    while True:
        contrib = term / (2 * n + 1)
        total += contrib
        if abs(contrib) < 1e-18 * abs(total):
            return total
        n += 1
        term *= a * a / (2.0 * n)


def test_func_h_series_oracle():
    for a in (0.1, 0.5, 1.0, 2.5):
        assert abs(N.func_h(a) - _h_series(a)) < 1e-10 * _h_series(a)
    assert abs(N.func_h(0.1) - 0.100167) < 1e-6
    with pytest.raises(ValueError):
        N.func_h(0.0)
    with pytest.raises(CapacityError):
        N.func_h(45.0)


def test_func_h_refuses_an_overflowing_argument_before_quadrature(monkeypatch):
    """h(a) overflows once 0.5 a**2 > 709; the refusal names a and its bound
    and runs no quadrature (every a in (37.66, 40] ran quad, then raised)."""
    import scipy.integrate

    def quad(*args, **kwargs):
        raise AssertionError("quad ran")

    monkeypatch.setattr(scipy.integrate, "quad", quad)
    for a in (37.7, 40.0, 45.0):
        with pytest.raises(CapacityError, match=rf"a above sqrt\(1418\) = 37.66 .*got a = {a}$"):
            N.func_h(a)


def test_phi_inv_tail_names_its_bound():
    """2**-t underflows beyond t = 1074: a bare 'math domain error' named neither."""
    assert abs(N.phi_inv_tail(1074.0) - 38.467) < 1e-3
    for t in (1074.5, 1080.0):
        with pytest.raises(ValueError, match=rf"t must be at most 1074 \(2\*\*-t underflows beyond it\), got {t}$"):
            N.phi_inv_tail(t)


def test_asymptotic_ratio_brackets():
    table = N.asymptotic_ratios(np.arange(10, 51, dtype=np.float64))
    for name in ("ratio1", "ratio2", "ratio3", "ratio4"):
        assert np.all(table[name] >= 0.5) and np.all(table[name] <= 2.0)
    assert abs(table["ratio1"][-1] - 0.955) < 5e-3
    assert np.all(table["ratio5"] > 0.0)
    with pytest.raises(ValueError):
        N.asymptotic_ratios([0.5])


def test_ratio3_is_finite_where_2_pow_p_overflows():
    """2.0 ** p overflowed from p = 1024 on and ratio3 read inf (exit 0 in
    appendix-ratios); the suite turns the RuntimeWarning into an error."""
    table = N.asymptotic_ratios(np.arange(1020, 1030, dtype=np.float64))
    r3 = table["ratio3"]
    assert np.all(np.abs(r3 - 1.0019) < 1e-3)
    # below the overflow the bits are those of g * 2.0 ** p, pinned before the change
    assert [float(v).hex() for v in r3[:4]] == [
        "0x1.007ddc0d6b0e6p+0", "0x1.007dc9f1fa0edp+0", "0x1.007db225907b7p+0", "0x1.007da019f31a3p+0"]
    for p in (10.5, 1000.25):  # a real p keeps its fractional power of two
        expected = N.func_g(N.phi_inv_tail(p + 1.0)) * 2.0 ** p * p * N.LN4
        assert N.asymptotic_ratios([p])["ratio3"][0] == expected
