"""The engine contract both backends share: term and element type checks,
the scalar codec's range and length checks, and the domain-tag check."""

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
