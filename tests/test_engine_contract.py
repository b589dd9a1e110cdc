"""The engine contract both backends share: term and element type checks,
products of powers in G1, the scalar codec's range and length checks, and
the domain-tag check."""

import random

import pytest

from mtaotibas.errors import EmptyInput, InvalidElement
from mtaotibas.pairing import MockEngine, get_engine


@pytest.fixture(params=["mock", "production"])
def engine(request):
    return MockEngine() if request.param == "mock" else get_engine("production")


def _foreign(engine):
    """The generators of the other backend: right group, wrong engine."""
    other = get_engine("production") if engine.backend == "mock" else MockEngine()
    return other.g1, other.g2


def _bad_terms(engine):
    f1, f2 = _foreign(engine)
    g1, g2 = engine.g1, engine.g2
    return [(g2, g1), (g1, g1), (g2, g2), (f1, g2), (g1, f2), (g1, None), (1, g2)]


def test_pair_rejects_bad_terms_without_counting(engine):
    for p, r in _bad_terms(engine):
        before = engine.pairing_count
        with pytest.raises(InvalidElement):
            engine.pair(p, r)
        assert engine.pairing_count == before


def test_multi_pair_rejects_bad_terms_without_counting(engine):
    good = (engine.g1, engine.g2)
    for bad in _bad_terms(engine):
        for terms in ([bad], [good, bad], [bad, good]):
            before = engine.pairing_count
            with pytest.raises(InvalidElement):
                engine.multi_pair(terms)
            assert engine.pairing_count == before
    before = engine.pairing_count
    with pytest.raises(EmptyInput):
        engine.multi_pair(iter(()))
    assert engine.pairing_count == before


def test_g1_product_matches_power_loop(engine):
    rng = random.Random(8)
    q = engine.order
    bases = [engine.g1 ** rng.randrange(1, q) for _ in range(3)] + [engine.identity_g1, engine.g1]
    scalars = [0, 1, q - 1, q, q + 1] + [rng.randrange(q) for _ in range(5)]
    for n in range(len(bases) + 1):
        pairs = [(b, rng.choice(scalars)) for b in bases[:n]]
        expected = engine.identity_g1
        for b, k in pairs:
            expected = expected * b ** k
        assert engine.g1_product(pairs) == expected
        assert engine.g1_product(iter(pairs)) == expected
    assert engine.g1_product([]) == engine.identity_g1


def test_g1_product_rejects_bad_bases(engine):
    f1, _ = _foreign(engine)
    for bad in (engine.g2, engine.identity_gt, f1, None, 1):
        for pairs in ([(bad, 2)], [(engine.g1, 2), (bad, 3)]):
            with pytest.raises(InvalidElement):
                engine.g1_product(pairs)


def test_encode_rejects_the_other_group(engine):
    f1, f2 = _foreign(engine)
    for e in (engine.g2, f1, engine.identity_gt, 1):
        with pytest.raises(InvalidElement):
            engine.encode_g1(e)
    for e in (engine.g1, f2, engine.identity_gt, 1):
        with pytest.raises(InvalidElement):
            engine.encode_g2(e)


def test_scalar_codec_rejects_out_of_range_and_bad_length(engine):
    for k in (engine.order, engine.order + 1, -1):
        with pytest.raises(InvalidElement):
            engine.encode_scalar(k)
    n = engine.scalar_bytes
    assert len(engine.encode_scalar(engine.order - 1)) == n
    for data in (b"", bytes(n - 1), bytes(n + 1)):
        with pytest.raises(InvalidElement):
            engine.decode_scalar(data)
    with pytest.raises(InvalidElement):
        engine.decode_scalar(b"\xff" * n)


def test_hashes_reject_empty_tag(engine):
    with pytest.raises(ValueError):
        engine.hash_to_g1(b"", b"x")
    with pytest.raises(ValueError):
        engine.hash_to_scalar(b"", b"x")
