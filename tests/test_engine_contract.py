"""The engine contract both backends share: term and element type checks,
the batch check of several pairing products, products of powers in G1, the
scalar codec's range and length checks, the domain-tag check, the hash
and decode memos, and that program code checks pairings and forms G1
products through one method each."""

import random
from dataclasses import replace

import pytest

from mtaotibas import envelopes, scheme
from mtaotibas.errors import EmptyInput, InvalidElement
from mtaotibas.harness.challenger import Challenger, CoCDHInstance
from mtaotibas.harness.forger import scripted_forger
from mtaotibas.pairing import bls12381, engine as engine_module, get_engine
from mtaotibas.pairing.mock import MockEngine

from conftest import off_subgroup_g1_point, off_subgroup_g2_point


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
    for bad in (engine.g2, engine.pair(engine.g1, engine.g2), f1, None, 1):
        for pairs in ([(bad, 2)], [(engine.g1, 2), (bad, 3)]):
            with pytest.raises(InvalidElement):
                engine.g1_product(pairs)


def test_encode_rejects_the_other_group(engine):
    f1, f2 = _foreign(engine)
    gt = engine.pair(engine.g1, engine.g2)
    for e in (engine.g2, f1, gt, 1):
        with pytest.raises(InvalidElement):
            engine.encode_g1(e)
    for e in (engine.g1, f2, gt, 1):
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
    # twice in a row: the hash-to-G1 memo never caches an error
    for _ in range(2):
        with pytest.raises(ValueError):
            engine.hash_to_g1(b"", b"x")
        with pytest.raises(ValueError):
            engine.hash_to_scalar(b"", b"x")


def _counting_engine(engine, raw_name="_hash_to_g1"):
    """A new engine of ``engine``'s backend and the list of inputs its uncached
    ``raw_name`` (``_hash_to_g1``, ``_decode_g1`` or ``_decode_g2``) ran on.
    The memo binds the raw function when the engine is built, so the wrapper
    goes on the instance before ``__init__``."""
    fresh = object.__new__(type(engine))
    raw, runs = getattr(fresh, raw_name), []
    setattr(fresh, raw_name, lambda *args: runs.append(args) or raw(*args))
    fresh.__init__()
    return fresh, runs


def test_hash_to_g1_memo_runs_the_raw_hash_once_per_input(engine):
    fresh, runs = _counting_engine(engine)
    first = fresh.hash_to_g1(b"T", b"x")
    assert type(first) is fresh.G1 and first == engine.hash_to_g1(b"T", b"x")
    assert fresh.hash_to_g1(b"T", b"x") == first
    assert fresh.hash_to_g1(bytearray(b"T"), memoryview(b"x")) == first
    assert runs == [(b"T", b"x")]
    fresh.hash_to_g1(b"U", b"x")
    fresh.hash_to_g1(b"T", b"y")
    assert runs == [(b"T", b"x"), (b"U", b"x"), (b"T", b"y")]


@pytest.fixture(params=["g1", "g2"])
def group(request):
    return request.param


def _subgroup_elements(engine, group):
    gen = getattr(engine, group)
    rng = random.Random(20)
    return [gen ** 0, gen] + [gen ** rng.randrange(2, engine.order) for _ in range(3)]


def test_decode_memo_runs_the_raw_decoder_once_per_encoding(engine, group):
    fresh, runs = _counting_engine(engine, f"_decode_{group}")
    decode, raw = getattr(fresh, f"decode_{group}"), getattr(engine, f"_decode_{group}")
    element_class = getattr(fresh, group.upper())
    elements = _subgroup_elements(engine, group)
    encodings = [getattr(fresh, f"encode_{group}")(e) for e in elements]
    for data, expected in zip(encodings, elements):
        uncached = element_class(raw(data))
        for spelling in (data, bytearray(data), memoryview(data), data):
            got = decode(spelling)
            assert type(got) is element_class and got == expected == uncached
    assert runs == [(data,) for data in encodings]
    info = getattr(fresh, f"_decoded_{group}").cache_info()
    assert (info.hits, info.misses, info.currsize) == (3 * len(encodings), len(encodings), len(encodings))


def _rejected_encodings(engine, group):
    """Encodings the decoder must refuse: for the mock a wrong length or a
    value outside Z_q; for BLS12-381 a wrong length, a clear compression
    flag, x >= p, an x off the curve and a curve point outside the subgroup."""
    if engine.backend == "mock":
        return [b"", b"\x00", bytes(3), engine.order.to_bytes(2, "big"), b"\xff\xff"]
    width = 48 if group == "g1" else 96
    codec = bls12381._G1_CODEC if group == "g1" else bls12381._G2_CODEC
    good = getattr(engine, f"encode_{group}")(getattr(engine, group))
    cleared = bytes([good[0] & 0x7F]) + good[1:]
    x_at_p = bytearray(bls12381.PRIME.to_bytes(48, "big") + bytes(width - 48))
    x_at_p[0] |= 0x80
    k = 1
    while codec.y_from_x(k if group == "g1" else (k, 0)) is not None:
        k += 1
    off_curve = bytes([0x80]) + k.to_bytes(width - 1, "big")
    off_subgroup = codec.encode(off_subgroup_g1_point() if group == "g1" else off_subgroup_g2_point())
    return [good[:-1], good + b"\x00", cleared, bytes(x_at_p), off_curve, off_subgroup]


def test_decode_memo_never_caches_a_reject(engine, group):
    fresh, runs = _counting_engine(engine, f"_decode_{group}")
    decode = getattr(fresh, f"decode_{group}")
    for data in _rejected_encodings(fresh, group):
        for n in range(1, 4):
            with pytest.raises(InvalidElement):
                decode(data if n != 2 else bytearray(data))
            assert runs[-n:] == [(data,)] * n
    assert getattr(fresh, f"_decoded_{group}").cache_info().currsize == 0


def test_decode_memo_stays_within_its_fixed_size(engine, group):
    size = engine_module._DECODE_MEMO_SIZE
    fresh = type(engine)()
    gen, memo = getattr(fresh, group), getattr(fresh, f"_decoded_{group}")
    decode, encode = getattr(fresh, f"decode_{group}"), getattr(fresh, f"encode_{group}")
    for k in range(1, size + 41):
        assert decode(encode(gen ** k)) == gen ** k
        assert memo.cache_info().currsize == min(k, size)
    assert memo.cache_info().maxsize == size


def _products(engine):
    """Products that pair to one (each a term and its inverse, or a bilinear
    pair of terms) and products that do not."""
    rng = random.Random(25)
    a, b = rng.randrange(2, engine.order), rng.randrange(2, engine.order)
    x = engine.g1 ** a
    holds = [[(x, engine.g2), (x.inverse(), engine.g2)],
             [(engine.g1 ** a, engine.g2 ** b), ((engine.g1 ** (a * b)).inverse(), engine.g2)]]
    fails = [[(engine.g1, engine.g2)], [(x, engine.g2 ** b), (engine.g1, engine.g2)]]
    return holds, fails


def test_first_failing_names_the_first_failing_product(engine):
    holds, fails = _products(engine)
    cases = [
        ([holds[0]], None), ([fails[0]], 0),
        ([holds[0], holds[1]], None),  # all hold
        ([fails[1], holds[0]], 0),  # only the first fails
        ([holds[1], fails[0]], 1),  # only the second fails
        ([fails[0], fails[1]], 0),  # both fail
        ([holds[0], fails[1], fails[0]], 1), ([holds[1], holds[0], fails[1]], 2),
    ]
    for products, expected in cases:
        before = engine.pairing_count
        assert engine.first_failing(iter(products)) == expected, products
        assert engine.pairing_count - before == sum(map(len, products))


def test_first_failing_without_weights_may_cancel(engine):
    # the precondition: a failing product and a failing last one whose
    # values are inverse pass production's combined check, while the mock
    # checks each product on its own
    products = [[(engine.g1, engine.g2)], [(engine.g1.inverse(), engine.g2)]]
    assert engine.first_failing(products) == (0 if engine.backend == "mock" else None)


def test_first_failing_rejects_bad_terms_without_counting(engine):
    holds, _ = _products(engine)
    for bad in _bad_terms(engine):
        for products in ([[bad]], [holds[0], [bad]], [[bad] + holds[1], holds[0]], [holds[0] + [bad]]):
            before = engine.pairing_count
            with pytest.raises(InvalidElement):
                engine.first_failing(products)
            assert engine.pairing_count == before
    for products in ([], [[]], [holds[0], []], [[], holds[0]], [iter(())]):
        before = engine.pairing_count
        with pytest.raises(EmptyInput):
            engine.first_failing(products)
        assert engine.pairing_count == before


def test_program_paths_ask_for_no_gt_value(engine, monkeypatch):
    # every equation is checked by first_failing and every G1 product formed
    # by g1_product: with the GT-valued calls, and production's G1 `*`,
    # raising, the whole lifecycle gives its usual results
    def forbidden(*_):
        raise AssertionError("a program path asked for a GT value or a G1 `*`")

    monkeypatch.setattr(type(engine), "multi_pair", forbidden)
    monkeypatch.setattr(type(engine), "pair", forbidden)
    if engine.backend == "production":
        monkeypatch.setattr(bls12381.G1Point, "__mul__", forbidden)
    rng = random.Random(28)
    master, params = scheme.root_setup(engine, rng)
    (sec1, ta1), (sec2, ta2) = (scheme.lowerlevel_setup(engine, params, master, name, rng)
                                for name in (b"TA-1", b"TA-2"))
    bad_ta = replace(ta1, cert=ta2.cert)
    assert scheme.verify_certificate(engine, params, ta1)
    assert not scheme.verify_certificate(engine, params, bad_ta)

    signers = [(sec1, ta1, b"ID-1", b"m1"), (sec2, ta2, b"ID-2", b"m2")]
    sigs = [scheme.sign(engine, scheme.extract(engine, sec, ta, ident), ta, m) for sec, ta, ident, m in signers]
    groups = [(ta, [(ident, m)]) for _, ta, ident, m in signers]
    bundle = scheme.AggregateBundle.build(groups, scheme.aggregate(engine, sigs))
    assert scheme.verify(engine, params, bundle).valid
    for bad, reason in ((replace(bundle, omega=sigs[0].sigma), "aggregate equation failed"),
                        (scheme.AggregateBundle.build([(bad_ta, groups[0][1]), groups[1]], bundle.omega),
                         "certificate check failed")):
        result = scheme.verify(engine, params, bad)
        assert (result.valid, result.reason) == (False, reason)
    for obj, name in ((params, "system-params"), (ta1, "ta-record"), (bundle, "aggregate-bundle")):
        assert envelopes.from_json_obj(engine, envelopes.to_json_obj(engine, obj), name) == obj

    if engine.backend == "mock":
        instance = CoCDHInstance.random(engine, rng)
        ch = Challenger(engine, instance, delta=0.5, rng=rng)
        forgery = scripted_forger(ch, rng=random.Random(29))
        assert ch.finalize(forgery.bundle) == engine.g1 ** (engine.dlog(instance.a_elt) * engine.dlog(instance.b_elt))
