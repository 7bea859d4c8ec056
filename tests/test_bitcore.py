import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from rbitmc import bitcore
from rbitmc.bitcore import (
    MAX_BITS,
    BitAllocation,
    BitSource,
    byte_fields,
    child_source,
    dyadic_values,
    exact_sum,
    read_bytes,
    truncate_indices,
)
from rbitmc.bridge import allocation_bridge
from rbitmc.gausskl import sample_rows


def test_draw_bits_range_and_counter():
    src = BitSource(1)
    for _ in range(200):
        assert src.draw_bits(1) in (0, 1)
    assert src.bits_drawn == 200
    before = src.bits_drawn
    src.draw_bits(5)
    assert src.bits_drawn == before + 5


def test_equal_seeds_equal_streams():
    a, b = BitSource(12345), BitSource(12345)
    assert [a.draw_bits(3) for _ in range(50)] == [b.draw_bits(3) for _ in range(50)]


def test_scalar_and_array_draws_share_the_stream():
    a, b = BitSource(77), BitSource(77)
    scalars = [a.draw_bits(13) for _ in range(257)]
    array = b.draw_bits_array(13, 257)
    assert scalars == [int(v) for v in array]
    assert a.bits_drawn == b.bits_drawn == 13 * 257
    # continue scalar after an array draw: stream position must agree
    assert a.draw_bits(7) == b.draw_bits(7)


def test_take_words_fill_the_stream_once():
    # a draw over several random_raw chunks holds the unchunked stream words,
    # leaves the stream where it was, and holds those words about once
    import tracemalloc

    nwords = 3 * 2 ** 16 + 5
    src = BitSource(9)
    head = src.draw_bits(3)
    w, start = src.take_words(61 + 64 * nwords - 7)  # the 61 leftover bits, then 7 unread
    raw = np.random.PCG64(9).random_raw(nwords + 2)
    assert head == int(raw[0]) >> 61 and start == 3
    assert np.array_equal(w[1:nwords + 1], raw[1:nwords + 1]) and w[-1] == 0
    assert src.draw_bits(10) == (int(raw[nwords]) & 0x7F) << 3 | int(raw[nwords + 1]) >> 61
    total = 64 << 21  # 16 MiB of words
    tracemalloc.start()
    try:
        BitSource(10).take_words(total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * total / 8


def test_array_draw_wide_words():
    a, b = BitSource(5), BitSource(5)
    wide = [a.draw_bits(63) for _ in range(65)]
    assert wide == [int(v) for v in b.draw_bits_array(63, 65)]


@settings(max_examples=400, deadline=None)
@given(p=st.integers(1, 63), n=st.one_of(st.integers(0, 300), st.integers(301, 4000)),
       head=st.integers(0, 63), after=st.integers(1, 63), seed=st.integers(0, 2**32 - 1))
@example(p=2, n=3001, head=3, after=7, seed=1)   # stream 3 bits off a byte
@example(p=1, n=4099, head=0, after=9, seed=2)   # aligned, tail inside a word
@example(p=4, n=2001, head=4, after=5, seed=3)   # half-byte offset
@example(p=8, n=1000, head=63, after=63, seed=4)  # from the last leftover bit
@example(p=8, n=7, head=8, after=1, seed=5)      # exactly the leftover bits
@example(p=2, n=3, head=61, after=2, seed=6)     # across a word boundary
@example(p=6, n=6000, head=5, after=3, seed=7)   # gather at p <= 8 (36000 bits)
@example(p=5, n=6554, head=1, after=3, seed=8)   # first gathered length at p = 5
@example(p=9, n=3640, head=9, after=3, seed=9)   # last unpacked length at p = 9
@example(p=9, n=3641, head=9, after=3, seed=9)   # first gathered length at p = 9
@example(p=3, n=4000, head=2, after=3, seed=10)  # p = 3 always unpacks
@example(p=52, n=631, head=12, after=52, seed=11)  # gather below p = 53
@example(p=54, n=1, head=10, after=5, seed=3)    # fills the leftover bits exactly
@example(p=27, n=1, head=10, after=5, seed=3)    # fits inside the leftover bits
@example(p=53, n=1, head=10, after=63, seed=3)   # 53 of 54 leftover bits
@example(p=63, n=65, head=1, after=63, seed=4)   # 63 + 63*64 bits: ends on a word
@example(p=32, n=6, head=0, after=1, seed=4)     # aligned head, ends on a word
@example(p=63, n=300, head=17, after=63, seed=5)
def test_draw_bits_array_matches_scalar_draws(p, n, head, after, seed):
    a, b = BitSource(seed), BitSource(seed)
    if head:
        a.draw_bits(head)
        b.draw_bits(head)
    array = a.draw_bits_array(p, n)
    assert array.dtype == np.uint64 and array.shape == (n,)
    assert [int(v) for v in array] == [b.draw_bits(p) for _ in range(n)]
    assert a.bits_drawn == b.bits_drawn == head + p * n
    assert a.draw_bits(after) == b.draw_bits(after)


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_byte_fields_split_every_byte(p):
    table = byte_fields(p)
    assert table.shape == (256, 8 // p) and table.dtype == np.uint64
    for b in range(256):
        bits = format(b, "08b")
        assert [int(v) for v in table[b]] == [int(bits[j:j + p], 2) + 1 for j in range(0, 8, p)]


@pytest.mark.parametrize("head", [0, 3, 8, 61])
@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_draw_bytes_hold_the_scalar_draws(p, head):
    a, b = BitSource(31), BitSource(31)
    if head:
        a.draw_bits(head)
        b.draw_bits(head)
    n = 1001
    codes = read_bytes(*a.take_words(p * n), p, n)
    assert codes.dtype == np.uint8 and codes.shape == (-(-p * n // 8),)
    values = byte_fields(p)[codes].reshape(-1)[:n]
    assert [int(v) for v in values] == [b.draw_bits(p) + 1 for _ in range(n)]
    assert a.bits_drawn == b.bits_drawn == head + p * n
    assert a.draw_bits(13) == b.draw_bits(13)


def test_invalid_bit_counts():
    src = BitSource(0)
    for p in (0, -1, 64, 100):
        with pytest.raises(ValueError):
            src.draw_bits(p)


def test_dyadic_grid_small_p():
    src = BitSource(3)
    vals1 = set(dyadic_values(src.draw_bits_array(1, 64) + np.uint64(1), 1))
    assert vals1 <= {0.25, 0.75}
    vals2 = set(dyadic_values(src.draw_bits_array(2, 256) + np.uint64(1), 2))
    assert vals2 == {0.125, 0.375, 0.625, 0.875}


def test_dyadic_value_invariants():
    assert dyadic_values([3], 2)[0] == 0.625
    # grid is symmetric about 1/2: the mirror index gives 1 - value
    for p in (1, 2, 5, 20):
        k = np.arange(1, (1 << p) + 1)
        assert np.array_equal(dyadic_values((1 << p) + 1 - k, p), 1.0 - dyadic_values(k, p))


def _truncate_to(i: int, p_from: int, p_to: int) -> int:
    """Exact scalar re-truncation of a 1-based grid index, in Python ints."""
    return ((i - 1) >> (p_from - p_to)) + 1


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_truncation_nesting(data):
    p_small, p_mid, p_big = sorted(data.draw(st.lists(st.integers(1, 63), min_size=3, max_size=3), label="p"))
    idx = np.array(data.draw(st.lists(st.integers(1, 1 << p_big), min_size=1, max_size=30), label="idx"),
                   dtype=np.uint64)
    direct = truncate_indices(idx, p_big, p_small)
    assert np.array_equal(truncate_indices(truncate_indices(idx, p_big, p_mid), p_mid, p_small), direct)
    with pytest.raises(ValueError, match="cannot refine"):
        truncate_indices(idx, p_small, p_small + 1)


def test_truncate_indices_matches_scalar():
    rng = np.random.default_rng(0)
    idx = rng.integers(1, 1 << 16, size=1000).astype(np.uint64)
    out = truncate_indices(idx, 16, 9)
    for i, o in zip(idx[:50], out[:50]):
        assert _truncate_to(int(i), 16, 9) == int(o)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_truncate_indices_matches_truncate_to(data):
    p_from = data.draw(st.integers(1, 63), label="p_from")
    p_to = data.draw(st.integers(1, p_from), label="p_to")
    # the end cells 1 and 2**p_from go in every batch
    idx = [1, 1 << p_from, *data.draw(st.lists(st.integers(1, 1 << p_from), max_size=30))]
    out = truncate_indices(np.array(idx, dtype=np.uint64), p_from, p_to)
    assert out.dtype == np.uint64
    assert [int(o) for o in out] == [_truncate_to(i, p_from, p_to) for i in idx]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_truncate_indices_with_a_count_per_column_is_one_call_per_column(data):
    """One call with a count per column of index rows gives the columns of
    one scalar-count call each, and refuses a column it would refine."""
    p_from = np.array(data.draw(st.lists(st.integers(1, 63), min_size=1, max_size=8), label="p_from"))
    p_to = np.array([data.draw(st.integers(1, int(p)), label="p_to") for p in p_from])
    rows = np.array([[data.draw(st.integers(1, 1 << int(p))) for p in p_from] for _ in range(3)], dtype=np.uint64)
    out = truncate_indices(rows, p_from, p_to)
    assert out.dtype == np.uint64 and out.shape == rows.shape
    for j, (pf, pt) in enumerate(zip(p_from, p_to)):
        assert np.array_equal(out[:, j], truncate_indices(rows[:, j], int(pf), int(pt)))
    with pytest.raises(ValueError, match="cannot refine"):
        truncate_indices(rows, p_from, p_from + (np.arange(len(p_from)) == len(p_from) - 1))


@pytest.mark.parametrize("p", [1, 4, 8])
def test_chi_square_uniformity(p):
    n = 100_000
    src = BitSource(1000 + p)
    idx = src.draw_bits_array(p, n) + np.uint64(1)
    counts = np.bincount(idx.astype(np.int64) - 1, minlength=1 << p)
    expected = n / (1 << p)
    stat = float(np.sum((counts - expected) ** 2) / expected)
    threshold = chi2.ppf(1.0 - 1e-6, df=(1 << p) - 1)
    assert stat < threshold


def test_dyadic_mean_clt():
    n = 1_000_000
    src = BitSource(42)
    vals = dyadic_values(src.draw_bits_array(4, n) + np.uint64(1), 4)
    sd = math.sqrt((1.0 - 2.0 ** -8) / 12.0)  # closed-form sd of uniform on D(4)
    assert abs(vals.mean() - 0.5) < 3.0 * sd / 1000.0


def test_composite_bit_accounting():
    src = BitSource(9)
    src.draw_bits(5)
    src.draw_bits_array(7, 11)
    sample_rows(src, BitAllocation([3, 1]), 2)
    assert src.bits_drawn == 5 + 7 * 11 + 2 * 4


def test_child_sources_are_deterministic_and_distinct():
    a = child_source(123, 4, 5)
    b = child_source(123, 4, 5)
    c = child_source(123, 4, 6)
    sa = [a.draw_bits(8) for _ in range(16)]
    assert sa == [b.draw_bits(8) for _ in range(16)]
    assert sa != [c.draw_bits(8) for _ in range(16)]


def test_allocation_validation():
    alloc = BitAllocation(np.array([3, 2, 1]))
    assert alloc.total == 6 and len(alloc) == 3
    with pytest.raises(ValueError):
        BitAllocation(np.array([0, 1]))
    with pytest.raises(ValueError):
        BitAllocation(np.array([], dtype=np.int64))
    # fractional and non-finite counts are refused, not truncated
    for counts in ([2.5, 3.9], [1.5, 1.5], [np.nan], [3.0, np.inf], [64.0]):
        with pytest.raises(ValueError):
            BitAllocation(counts)
    # integral floats, as np.ceil gives them, are counts
    assert BitAllocation(np.ceil([1.2, 3.0])).counts.tolist() == [2, 3]


@pytest.mark.parametrize("draw", [
    lambda src: sample_rows(src, allocation_bridge(3), -1),
    lambda src: sample_rows(src, allocation_bridge(3), 2.5),
    lambda src: src.take_words(-7),
    lambda src: src.take_words(22.0),
    lambda src: src.draw_bits_array(5, -1),
], ids=["rows_n=-1", "rows_n=2.5", "take_words=-7", "take_words=22.0", "draw_bits_array_n=-1"])
def test_a_bad_count_leaves_the_stream_untouched(draw):
    """A negative or non-integer count moved the stream before numpy refused
    it: bits_drawn read -22 and the next draw_bits(5) returned 0."""
    src = BitSource(1)
    with pytest.raises(ValueError, match="non-negative integer"):
        draw(src)
    assert src.bits_drawn == 0
    assert src.draw_bits(5) == BitSource(1).draw_bits(5)


def _sum_or_error(total, x):
    """``total(x)`` as float.hex, or the type of the exception it raised."""
    try:
        return total(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


# any finite float64, m 2**e over the whole exponent range, and the edge values
_SUMMANDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_SUMMANDS, max_size=40))
@example([])
@example([-0.0])
@example([-0.0, -0.0])
@example([1.0, -1.0, -0.0])
@example([5e-324])
@example([1e308, 1e308])                # the sum overflows
@example([1e308, 1e308, -1e308])        # fsum's intermediate overflow
@example([1.0, 2.0 ** -53, 2.0 ** -106])  # a tie broken by the last value
def test_exact_sum_is_fsum_bit_for_bit(values):
    x = np.array(values, dtype=np.float64)
    assert _sum_or_error(exact_sum, x) == _sum_or_error(math.fsum, x)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_SUMMANDS, min_size=1, max_size=8),
       special=st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1.5e308, 2.0 ** 984]),
       at=st.integers(0, 8))
@example(values=[-math.inf, 1.0], special=math.inf, at=0)  # fsum's ValueError for inf - inf
def test_exact_sum_keeps_fsums_nan_inf_and_overflow(values, special, at):
    """Non-finite values and exponents near overflow go to math.fsum whole:
    its NaN or inf, or its OverflowError or ValueError, is the result."""
    x = np.array(values[:at] + [special] + values[at:], dtype=np.float64)
    assert _sum_or_error(exact_sum, x) == _sum_or_error(math.fsum, x)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5]),
       seed=st.integers(0, 2**32 - 1), lo=st.integers(-1074, 963), width=st.integers(0, 60))
@example(n=(1 << 16) - 1, seed=1, lo=959, width=60)  # fsum's intermediate overflow
def test_exact_sum_of_long_arrays_is_fsum_bit_for_bit(n, seed, lo, width):
    """Arrays around the 2**16-value block, with exponents in a band of
    ``width`` from 2**lo on, so every bin is filled across several blocks."""
    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, lo + width + 1, n))
    assert _sum_or_error(exact_sum, x) == _sum_or_error(math.fsum, x)


def test_exact_sum_restarts_its_bins(monkeypatch):
    """The running bins start afresh every _SUM_BIN_VALUES values (2**26, more
    than a test can hold): with 2**17 the 5-block array takes three runs."""
    monkeypatch.setattr(bitcore, "_SUM_BIN_VALUES", 1 << 17)
    rng = np.random.default_rng(7)
    for x in (rng.standard_normal(5 << 16), np.ldexp(rng.uniform(-1.0, 1.0, 5 << 16), -1060),
              np.ldexp(rng.uniform(0.5, 1.0, 5 << 16), 900)):
        assert exact_sum(x).hex() == math.fsum(x).hex()


def test_exact_sum_takes_any_float_sequence():
    """A list, a strided view and a 2-d array are summed as their flat values."""
    x = np.random.default_rng(3).standard_normal((4, 5))
    assert exact_sum(x[:, ::2]).hex() == math.fsum(x[:, ::2].ravel()).hex()
    assert exact_sum(x.tolist()[0]).hex() == math.fsum(x[0]).hex()


_DRAW_METHODS = {"draw_bits", "draw_bits_array", "take_words"}


def test_only_bitcore_and_gausskl_draw_from_the_stream():
    """Every sampler draws through gausskl.sample_rows: no other module of
    the package calls a BitSource draw method itself."""
    callers = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DRAW_METHODS):
                callers.add(path.name)
    assert callers == {"bitcore.py", "gausskl.py"}


def test_only_bitcore_states_the_bit_limit():
    """The 63-bit limit is bitcore.MAX_BITS: no other module of the package
    binds a module-level name to it."""
    binders = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Constant)
                    and type(node.value.value) is int and node.value.value == MAX_BITS):
                binders.add(path.name)
    assert binders == {"bitcore.py"}


def test_only_normal_and_cli_decide_about_the_surrogate():
    """The exact-or-surrogate mse is chosen in normal (bit_normal_mse_extended,
    summed by coefficient_error_sq) and flagged in cli: no other module calls
    bit_normal_mse_extended or reads MSE_EXACT_MAX_P, so no expansion module
    writes its own exact-or-surrogate sum."""
    names = {"bit_normal_mse_extended", "MSE_EXACT_MAX_P"}
    users = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in names:
                users.add(path.name)
    assert users == {"normal.py", "cli.py"}


def test_only_normal_chooses_between_the_grid_table_and_phi_inv():
    """Sampled grid indices become normals in normal.grid_normal_runs alone:
    no other module reads GRID_TABLE_MAX_P or calls _grid_table, so no
    sampler writes its own table-or-phi_inv choice."""
    names = {"GRID_TABLE_MAX_P", "_grid_table"}
    users = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in names:
                users.add(path.name)
    assert users == {"normal.py"}


_FSUM_OF_SCALARS = {("normal", "coefficient_error_sq")}


def test_math_fsum_sums_no_array():
    """Arrays are summed by bitcore.exact_sum, at a fraction of fsum's cost:
    math.fsum appears in src/ only inside exact_sum, and as the sum of a
    generator of Python floats in coefficient_error_sq."""
    uses = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if "fsum" not in {getattr(node, name, None) for name in ("attr", "id", "name")}:
                continue
            call = scope = parents.get(node)
            while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parents.get(scope)
            where = (path.stem, getattr(scope, "name", None))
            summand = call.args[0] if isinstance(call, ast.Call) and call.func is node and call.args else None
            uses.add((*where, "scalars" if isinstance(summand, ast.GeneratorExp) else "other"))
    assert uses == {("bitcore", "exact_sum", "other"), *((*where, "scalars") for where in _FSUM_OF_SCALARS)}


def test_quadrature_runs_only_where_no_closed_form_exists():
    """Every law the package ships gives its cells in closed form, so no
    quadrature route comes back for them: scipy's quad and checked_quad are
    called in src/ only by the tail sum of an explicit KL spectrum
    (gausskl.tail_sum), by normal.func_h and inside checked_quad itself."""
    callers = set()
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and
                    {getattr(node.func, name, None) for name in ("attr", "id")} & {"quad", "checked_quad"}):
                continue
            scope = parents.get(node)
            while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parents.get(scope)
            callers.add((path.stem, getattr(scope, "name", None)))
    assert callers == {("gausskl", "tail_sum"), ("normal", "func_h"), ("normal", "checked_quad")}


_PINNED_IMPORTS = {"grid_normal_values", "truncate_indices"}  # re-exports perfbench/selftest.py asserts


def test_every_imported_name_is_used():
    """No linter runs here, so this is the unused-import check: each module
    of the package (``__init__`` re-exports, so it is left out) uses every
    name it imports, except the pinned re-exports on a ``# noqa: F401`` line."""
    unused = []
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and not (noqa and name in _PINNED_IMPORTS):
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_private_module_name_is_read():
    """The dead-code check for private names: every module-level function,
    class or constant of the package whose name starts with one underscore
    is read somewhere in its own module (no other module may use it)."""
    unread = []
    for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            unread += [f"{path.name}:{node.lineno} {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unread == []


# public functions and classes that src/ does not read and rbitmc.__all__ does
# not list, each kept for a reason
_UNREAD_PUBLIC = {
    "precision_sum": "the allocation's precision inequality of criterion 4",
    "kl_error_interval": "kl_error_sq with its tail's certified bracket, checked in test_gausskl",
    "plain_mc": "the plain Monte Carlo reference of criterion 7b and of the plain_mc_deep benchmark",
    "bit_normal_support": "the support of the p-bit normal, pinned in test_normal_golden",
    "bit_normal_cross_moment": "the oracle of the identity mse = 1 + E|Y^(p)|^2 - 2 E[Y Y^(p)]",
    "gaussian_cell_sq_error": "the per-cell oracle of normal.gaussian_grid_sq_error",
    "gaussian_cell_average": "the per-cell oracle of normal.gaussian_grid_average",
    "evaluate_coeffs": "the lazy per-point oracle of bridge.nodes_from_coeffs, pinned in test_schauder_golden",
}


def test_every_public_function_or_class_is_used():
    """The dead-code check for public functions and classes: each one a
    module of the package defines at top level is read somewhere in src/
    outside ``__init__`` (by name in its own module, through an import from
    it, or as an attribute), is listed in ``rbitmc.__all__``, or is kept in
    _UNREAD_PUBLIC with its reason."""
    import rbitmc

    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py"))
             if path.name != "__init__.py"}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    imported = {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = attributes | imported | set(rbitmc.__all__)
    unread = set()
    for tree in trees.values():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread |= {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not node.name.startswith("_") and node.name not in loaded | used}
    assert unread == set(_UNREAD_PUBLIC)


def test_every_module_constant_is_read():
    """The dead-code check for module-level assignments, public ones too: each
    name a module of the package assigns at top level (dunders aside) is read
    somewhere in src/, by name in its own module, through an import from it,
    or as an attribute."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(__file__).resolve().parents[1].glob("src/rbitmc/*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    imported = {(node.module, alias.name) for node in nodes
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = []
    for module, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
            unread += [f"{module}.py:{node.lineno} {t.id}" for t in targets
                       if isinstance(t, ast.Name) and not t.id.startswith("__")
                       and t.id not in loaded and (module, t.id) not in imported and t.id not in attributes]
    assert unread == []


def test_export_list_is_the_import_list():
    """``rbitmc.__all__`` has no duplicates, every name in it resolves on
    the package, and it lists exactly the names ``__init__`` imports: a name
    kept there after its object went would fail only ``from rbitmc import *``,
    and test_every_public_function_or_class_is_used counts a listing as use."""
    import rbitmc

    init = Path(rbitmc.__file__)
    imported = {alias.asname or alias.name for node in ast.parse(init.read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(rbitmc.__all__) == len(set(rbitmc.__all__))
    assert [name for name in rbitmc.__all__ if not hasattr(rbitmc, name)] == []
    assert set(rbitmc.__all__) == imported
