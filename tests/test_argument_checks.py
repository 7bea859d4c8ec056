"""Every integer count and every real parameter of the package is refused by
name, before anything is drawn or built, through bitcore.check_count and
bitcore.check_finite: one table of the refusing sites, each with a value it
must refuse, and the integer types every count accepts."""

import math
import re

import numpy as np
import pytest

from rbitmc import bridge as BR
from rbitmc import cli
from rbitmc import gausskl as G
from rbitmc import mlmc as M
from rbitmc import normal as N
from rbitmc import sde as S
from rbitmc.bitcore import BitSource

SPEC = G.EigenSpec(2.0, 0.0)
GM = S.geometric_model(0.05, 0.2, 1.0)
NORM = M.lookup_functional("norm")


def _strong_error(reps):
    return S.strong_error_experiment(GM, 4, 8, reps, 1)


# (id, call with the bad value and a fresh source, bad value, the name the message gives)
_SITES = [
    # integer counts: a non-integer, or a value below the range
    ("draw_bits.p", lambda v, src: src.draw_bits(v), 2.5, "bit count p"),
    ("draw_bits_array.p", lambda v, src: src.draw_bits_array(v, 3), np.float64(3), "bit count p"),
    ("draw_bits_array.n", lambda v, src: src.draw_bits_array(5, v), 2.5, "n"),
    ("take_words.total", lambda v, src: src.take_words(v), 2.5, "bit count"),
    ("draw_rows.n", lambda v, src: G.draw_rows(src, BR.allocation_bridge(3), v), 2.5, "row count n"),
    ("sample_rows.n", lambda v, src: G.sample_rows(src, BR.allocation_bridge(3), v), np.float64(3), "row count n"),
    ("ExpansionModel.min_bits", lambda v, src: M.BridgeModel(v), 2.5, "min_bits"),
    ("plain_mc.n", lambda v, src: M.plain_mc(NORM, M.bridge_model(), 4, v, src), 2.5, "n"),
    ("milstein_rows.m", lambda v, src: S.milstein_rows(GM, v, np.zeros((1, 2))), 2.5, "m"),
    ("sde_bit_cost.m", lambda v, src: S.sde_bit_cost(v, 8, 2), 2.5, "m"),
    ("sde_bit_cost.q", lambda v, src: S.sde_bit_cost(4, v, 2), 2.5, "q"),
    ("refined_rows.n", lambda v, src: S.refined_rows(src, GM, 4, 8, 2, v), 2.5, "n"),
    ("strong_error_experiment.reps", lambda v, src: _strong_error(v), 2.5, "reps"),
    ("experiment_mlmc.runs", lambda v, src: cli.experiment_mlmc("bridge", 2.0, 0.0, 0.125, "norm", v, 0),
     2.5, "runs"),
    ("allocation_bridge.level", lambda v, src: BR.allocation_bridge(v), 2.5, "level"),
    ("allocation_bridge_total.level", lambda v, src: BR.allocation_bridge_total(v), 0, "level"),
    ("bridge_truncation_error_sq.level", lambda v, src: BR.bridge_truncation_error_sq(v), 2.5, "level"),
    ("bridge_bit_error_sq.level", lambda v, src: BR.bridge_bit_error_sq(v), 2.5, "level"),
    ("precision_sum.level", lambda v, src: BR.precision_sum(v), -1, "level"),
    ("schauder.i", lambda v, src: BR.schauder(v, 0.5), 2.5, "basis index"),
    ("allocation_kl.m", lambda v, src: G.allocation_kl(v, SPEC), 64.0, "m"),
    ("allocation_kl.m_below", lambda v, src: G.allocation_kl(v, SPEC), 0, "m"),
    ("bit_normal_mse.p", lambda v, src: N.bit_normal_mse(v), 2.5, "p"),
    ("bit_normal_mse_extended.p", lambda v, src: N.bit_normal_mse_extended(v), 30.5, "p"),
    ("bit_normal_support.p", lambda v, src: N.bit_normal_support(v), 0, "p"),
    ("tail_sum.m", lambda v, src: G.tail_sum(v, SPEC), 2.5, "m"),
    ("tail_sum.m_below", lambda v, src: G.tail_sum(v, SPEC), -1, "m"),
    # reals: NaN
    ("EigenSpec.beta", lambda v, src: G.EigenSpec(v, 0.0), math.nan, "beta"),
    ("EigenSpec.alpha", lambda v, src: G.EigenSpec(2.0, v), math.nan, "alpha"),
    ("mlmc_params.beta", lambda v, src: M.mlmc_params(0.1, v, 0.0), math.nan, "beta"),
    ("mlmc_params.alpha", lambda v, src: M.mlmc_params(0.1, 2.0, v), math.nan, "alpha"),
    ("geometric_model.mu", lambda v, src: S.geometric_model(v, 0.2), math.nan, "mu"),
    ("geometric_model.x0", lambda v, src: S.geometric_model(0.05, 0.2, v), math.nan, "x0"),
    ("cli_run.pmin", lambda v, src: cli._run("appendix-ratios", {"pmin": v, "pmax": 12.0, "seed": 0}, None, None),
     math.nan, "pmin"),
    ("phi_inv_tail.t", lambda v, src: N.phi_inv_tail(v), math.nan, "t"),
    ("func_h.a", lambda v, src: N.func_h(v), math.nan, "a"),
    ("func_g.a", lambda v, src: N.func_g(v), math.nan, "a"),
    ("asymptotic_ratios.p", lambda v, src: N.asymptotic_ratios([v]), math.nan, "t"),
]


@pytest.mark.parametrize("call, value, name", [site[1:] for site in _SITES], ids=[site[0] for site in _SITES])
def test_every_site_refuses_a_bad_argument_by_name(call, value, name, monkeypatch):
    """schauder(2.5, 0.5), tail_sum(2.5, spec), bridge_truncation_error_sq(2.5)
    and bit_normal_mse_extended(30.5) returned values for objects that do not
    exist, phi_inv_tail, func_h and
    func_g returned nan for nan, and allocation_kl(64.0, spec),
    allocation_bridge(2.5) and bit_normal_mse(2.5) failed inside numpy with a
    TypeError.  A sampler that refuses has moved no stream."""
    sources = []

    class Recording(BitSource):
        def __init__(self, seed):
            super().__init__(seed)
            sources.append(self)

    monkeypatch.setattr(S, "BitSource", Recording)
    src = BitSource(1)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be (a|an|finite).*, got {re.escape(repr(value))}$"):
        call(value, src)
    assert [s.bits_drawn for s in (src, *sources)] == [0] * (1 + len(sources))
    assert src.draw_bits(5) == BitSource(1).draw_bits(5)


def test_numpy_integer_counts_are_counts():
    """np.int64 counts, as numpy arithmetic gives them, pass every count check
    and give what the same Python ints give (draw_bits, take_words and so
    sample_rows raised OverflowError on them, after the words were taken).
    A bool is not a count: strong_error_experiment failed on m or reps True
    with a bare TypeError, and the other sites below took True as 1."""
    bool_sites = [("m", lambda: S.strong_error_experiment(GM, True, 8, 5, 1)),
                  ("reps", lambda: S.strong_error_experiment(GM, 4, 8, True, 1)),
                  ("m", lambda: S.milstein_rows(GM, True, np.zeros((1, 1)))),
                  ("n", lambda: M.plain_mc(NORM, M.bridge_model(), 3, True, BitSource(2))),
                  ("level", lambda: BR.allocation_bridge(True)),
                  ("seed", lambda: BitSource(True))]
    for name, call in bool_sites:
        with pytest.raises(ValueError, match=f"^{name} must be a (positive|non-negative) integer, got True$"):
            call()
    i64 = np.int64
    assert BitSource(1).draw_bits(i64(5)) == BitSource(1).draw_bits(5)
    assert BitSource(1).draw_bits_array(i64(5), i64(4)).tolist() == BitSource(1).draw_bits_array(5, 4).tolist()
    rows, _ = G.sample_rows(BitSource(1), BR.allocation_bridge(i64(3)), i64(2))
    assert rows.tobytes() == G.sample_rows(BitSource(1), BR.allocation_bridge(3), 2)[0].tobytes()
    assert M.BridgeModel(i64(4)).min_bits == 4
    assert M.plain_mc(NORM, M.bridge_model(), i64(3), i64(5), BitSource(2)) == \
        M.plain_mc(NORM, M.bridge_model(), 3, 5, BitSource(2))
    assert S.sde_bit_cost(i64(4), i64(8), i64(2)) == S.sde_bit_cost(4, 8, 2)
    assert S.refined_rows(BitSource(3), GM, i64(2), i64(8), i64(1), i64(2)).tobytes() == \
        S.refined_rows(BitSource(3), GM, 2, 8, 1, 2).tobytes()
    assert S.strong_error_experiment(GM, i64(4), i64(8), i64(3), 1)[0] == S.strong_error_experiment(GM, 4, 8, 3, 1)[0]
    assert BR.bridge_bit_error_sq(i64(4)) == BR.bridge_bit_error_sq(4)
    assert BR.schauder(i64(3), 0.3) == BR.schauder(3, 0.3)
    assert G.allocation_kl(i64(64), SPEC).counts.tolist() == G.allocation_kl(64, SPEC).counts.tolist()
    assert G.tail_sum(i64(8), SPEC) == G.tail_sum(8, SPEC)
    assert N.bit_normal_mse(i64(4)) == N.bit_normal_mse(4)
