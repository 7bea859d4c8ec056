"""Golden float.hex pins of the two estimators' outputs.

Each case pins ``float.hex`` of the mean and the standard error, and the bits
drawn, of :func:`mlmc.plain_mc` and :func:`mlmc.mlmc_estimate` for both
models, every built-in functional that runs on the model, ``min_bits`` 0 and
4, row counts that are not multiples of 4, several ``plain_mc`` batches, and
sources with 3 bits drawn beforehand (so every draw starts off a byte
boundary).  Any change of draw order, sampling path, chunking or summation
order shows up here.
"""

import pytest

from rbitmc import gausskl as G
from rbitmc import mlmc as M
from rbitmc.bitcore import BitSource

SPEC = G.EigenSpec(beta=2.0, alpha=0.0)
MODELS = {"bridge": M.bridge_model(), "kl": M.kl_model(SPEC)}

# plain_mc: (model, functional, level, n, min_bits, head bits, batch)
#   -> (mean.hex(), stderr.hex(), bits drawn); source BitSource(100 + case number)
PLAIN = {
    ('bridge', 'coord1', 10, 1027, 0, 0, 4096): ('0x1.bcff18f1c32cep-10', '0x1.454da68f95ad2p-7', 4181944),
    ('bridge', 'coord2', 10, 1027, 0, 0, 4096): ('-0x1.99d9ecd3f04dcp-14', '0x1.c2d0d91eac8c2p-8', 4181944),
    ('bridge', 'norm', 10, 1027, 0, 0, 4096): ('0x1.890549ee0e1f4p-2', '0x1.35b265d3b4ce9p-8', 4181944),
    ('bridge', 'clipped_norm', 10, 1027, 0, 0, 4096): ('0x1.7f363bc4c3826p-2', '0x1.2e42921617f2dp-8', 4181944),
    ('bridge', 'soft_linear', 10, 1027, 0, 0, 4096): ('-0x1.4433e4f228403p-8', '0x1.3eee1b3004143p-7', 4181944),
    ('bridge', 'coord1', 6, 203, 4, 3, 4096): ('-0x1.12866223aa0c8p-6', '0x1.8d739f9ec13e9p-6', 61715),
    ('bridge', 'coord2', 6, 203, 4, 3, 4096): ('0x1.50a69aeaf54ccp-7', '0x1.f65a28ca73b9fp-7', 61715),
    ('bridge', 'norm', 6, 203, 4, 3, 4096): ('0x1.6c3ac67227b35p-2', '0x1.42df19b6d68fep-7', 61715),
    ('bridge', 'clipped_norm', 6, 203, 4, 3, 4096): ('0x1.8954e28a6ca78p-2', '0x1.5f2b86a4405cep-7', 61715),
    ('bridge', 'soft_linear', 6, 203, 4, 3, 4096): ('-0x1.5f2c51b1b30f2p-8', '0x1.62908144c5353p-6', 61715),
    ('bridge', 'coord1', 8, 301, 0, 3, 128): ('-0x1.e4521ebe970b1p-11', '0x1.1ee13ef70141dp-6', 302207),
    ('bridge', 'coord2', 8, 301, 0, 3, 128): ('0x1.5b72138190821p-7', '0x1.8769bb14595e4p-7', 302207),
    ('bridge', 'norm', 8, 301, 0, 3, 128): ('0x1.8a9de75304d2bp-2', '0x1.2925fe2136481p-7', 302207),
    ('bridge', 'clipped_norm', 8, 301, 0, 3, 128): ('0x1.7ddb7b8ecea1dp-2', '0x1.18cd70bc0178fp-7', 302207),
    ('bridge', 'soft_linear', 8, 301, 0, 3, 128): ('0x1.051b0c2f020f2p-6', '0x1.0f592db3615fdp-6', 302207),
    ('kl', 'coord1', 10, 1027, 0, 0, 4096): ('-0x1.5ac43e69f194bp-7', '0x1.01dcbb249ce75p-5', 3573960),
    ('kl', 'coord2', 10, 1027, 0, 0, 4096): ('-0x1.91521b55c85edp-7', '0x1.067299fa6ca3dp-6', 3573960),
    ('kl', 'norm', 10, 1027, 0, 0, 4096): ('0x1.367ef0e298bbep+0', '0x1.f613521d8f491p-7', 3573960),
    ('kl', 'clipped_norm', 10, 1027, 0, 0, 4096): ('0x1.cfa286f4b4f2cp-1', '0x1.211d6ab87504ep-8', 3573960),
    ('kl', 'soft_linear', 10, 1027, 0, 0, 4096): ('0x1.40a449099eb2ap-6', '0x1.4f1ab7e9719c6p-6', 3573960),
    ('kl', 'coord1', 6, 203, 4, 3, 4096): ('-0x1.5e5e06f18a328p-3', '0x1.2f4bce3058495p-4', 61106),
    ('kl', 'coord2', 6, 203, 4, 3, 4096): ('-0x1.449147e40a642p-5', '0x1.1d94a32a14daep-5', 61106),
    ('kl', 'norm', 6, 203, 4, 3, 4096): ('0x1.354282a7ad65fp+0', '0x1.252a824443b12p-5', 61106),
    ('kl', 'clipped_norm', 6, 203, 4, 3, 4096): ('0x1.cc764329c37d8p-1', '0x1.54bc173740570p-7', 61106),
    ('kl', 'soft_linear', 6, 203, 4, 3, 4096): ('-0x1.b650a3c98b49cp-5', '0x1.7d91c81285d00p-5', 61106),
    ('kl', 'coord1', 8, 301, 0, 3, 128): ('-0x1.0f1b6695d3f0dp-5', '0x1.ce7054c893690p-5', 258863),
    ('kl', 'coord2', 8, 301, 0, 3, 128): ('0x1.77c67dc714a61p-5', '0x1.d77fc8b2f789cp-6', 258863),
    ('kl', 'norm', 8, 301, 0, 3, 128): ('0x1.23a97333924acp+0', '0x1.b512bea02ffefp-6', 258863),
    ('kl', 'clipped_norm', 8, 301, 0, 3, 128): ('0x1.d0f63b777bdefp-1', '0x1.093435273fd35p-7', 258863),
    ('kl', 'soft_linear', 8, 301, 0, 3, 128): ('0x1.3599e27ba49b9p-5', '0x1.2be3112b195c3p-5', 258863),
}

# mlmc_estimate at eps 2^-4: (model, functional, min_bits, head bits)
#   -> (estimate.hex(), stderr.hex(), bits drawn); source BitSource(200 + case number)
MLMC = {
    ('bridge', 'coord1', 0, 0): ('0x1.693bff1c1bb48p-6', '0x1.3f517e72493d8p-6', 21962),
    ('bridge', 'norm', 0, 0): ('0x1.864ecc68d646cp-2', '0x1.0d061db322b63p-6', 21962),
    ('bridge', 'clipped_norm', 0, 0): ('0x1.9f6c8531fbfecp-2', '0x1.c4570e5cc0f13p-7', 21962),
    ('bridge', 'coord1', 4, 3): ('0x1.4321efe329906p-9', '0x1.3bba2ceb70d8dp-6', 28883),
    ('bridge', 'norm', 4, 3): ('0x1.8d2e6ec31c3c2p-2', '0x1.f1abde154285fp-7', 28883),
    ('bridge', 'clipped_norm', 4, 3): ('0x1.5b1b96859f9e9p-2', '0x1.ea008ccb19a5fp-7', 28883),
    ('kl', 'coord1', 0, 0): ('-0x1.51ed1747561ecp-10', '0x1.b951d57d1a732p-5', 19690),
    ('kl', 'coord2', 0, 0): ('-0x1.cf2e370f32e25p-5', '0x1.f6f0d70be23b2p-6', 19690),
    ('kl', 'norm', 0, 0): ('0x1.31c3f7755f334p+0', '0x1.3ba85d525e68bp-5', 19690),
    ('kl', 'clipped_norm', 0, 0): ('0x1.cc81b437459ecp-1', '0x1.9c1f610b2dee2p-6', 19690),
    ('kl', 'soft_linear', 0, 0): ('0x1.77a3df350204fp-7', '0x1.2ffcce81dad6ap-5', 19690),
    ('kl', 'coord1', 4, 3): ('-0x1.48beba58ac523p-6', '0x1.c1cdbfd15549ep-5', 31197),
    ('kl', 'coord2', 4, 3): ('-0x1.333082eca5088p-5', '0x1.b3ba1f94dda6bp-6', 31197),
    ('kl', 'norm', 4, 3): ('0x1.2e25983f66378p+0', '0x1.18f8ef08ef20dp-5', 31197),
    ('kl', 'clipped_norm', 4, 3): ('0x1.cf01da890d80ep-1', '0x1.3a84169f8e736p-6', 31197),
    ('kl', 'soft_linear', 4, 3): ('-0x1.5d81df1b75994p-6', '0x1.35c477fa92c0bp-5', 31197),
}


def _case_id(v) -> str:
    return "-".join(map(str, v)) if isinstance(v, tuple) else str(v)


def _source(seed, head):
    src = BitSource(seed)
    if head:
        src.draw_bits(head)
    return src


@pytest.mark.parametrize("k, case", list(enumerate(PLAIN)), ids=_case_id)
def test_plain_mc_golden(k, case):
    model, f, level, n, min_bits, head, batch = case
    src = _source(100 + k, head)
    mean, stderr, ledger = M.plain_mc(M.lookup_functional(f), MODELS[model], level, n, src,
                                      min_bits=min_bits, batch=batch)
    assert (mean.hex(), stderr.hex(), src.bits_drawn) == PLAIN[case]
    assert ledger.bits == src.bits_drawn - head


@pytest.mark.parametrize("k, case", list(enumerate(MLMC)), ids=_case_id)
def test_mlmc_estimate_golden(k, case):
    model, f, min_bits, head = case
    src = _source(200 + k, head)
    m = MODELS[model]
    res = M.mlmc_estimate(M.lookup_functional(f), m, M.mlmc_params(2.0 ** -4, m.beta, m.alpha),
                          src, min_bits=min_bits)
    assert (res.estimate.hex(), res.stderr.hex(), src.bits_drawn) == MLMC[case]
    assert res.ledger.bits == src.bits_drawn - head
