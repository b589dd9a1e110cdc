import os
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from mtaotibas.errors import EmptyInput, InvalidElement, UnsupportedOperation
from mtaotibas.pairing import bls12381 as curve
from mtaotibas.pairing import get_engine

from conftest import off_subgroup_g1_point


def _bilinearity_worker(args):
    lo, hi = args
    e = get_engine("production")
    base = e.pair(e.g1, e.g2)
    for t in range(lo, hi):
        rng = random.Random(0xB111 + t)
        a = rng.randrange(1, e.order)
        b = rng.randrange(1, e.order)
        if e.pair(e.g1 ** a, e.g2 ** b) != base ** (a * b % e.order):
            return t
    return -1


def test_generators_on_curve_and_in_subgroup():
    assert curve.g1_on_curve((curve._G1X, curve._G1Y))
    assert curve.g2_on_curve((curve._G2X, curve._G2Y))
    assert curve.g1_in_subgroup((curve._G1X, curve._G1Y))
    assert curve.g2_in_subgroup((curve._G2X, curve._G2Y))


def test_final_exponentiation_identity():
    # the fast path computes f^(3*(p^12-1)/r); check the exponent identity
    # and the implementation against a plain big-integer power
    p, r, x = int(curve.PRIME), curve.ORDER, curve.X_CURVE
    assert (x**4 - x**2 + 1) == r
    assert 3 * ((p**4 - p**2 + 1) // r) == (x - 1) ** 2 * (x + p) * (x**2 + p**2 - 1) + 3
    rng = random.Random(1)
    f = curve.multi_miller_loop(
        [(curve.g1_mul((curve._G1X, curve._G1Y), rng.randrange(1, r)),
          curve.g2_mul((curve._G2X, curve._G2Y), rng.randrange(1, r)))]
    )
    assert curve.final_exponentiation(f) == curve.fq12_pow(f, 3 * ((p**12 - 1) // r))


def test_bilinearity_sampled(bls_engine):
    e = bls_engine
    rng = random.Random(2)
    base = e.pair(e.g1, e.g2)
    assert base != e.identity_gt
    for _ in range(10):
        a = rng.randrange(1, e.order)
        b = rng.randrange(1, e.order)
        assert e.pair(e.g1 ** a, e.g2 ** b) == base ** (a * b % e.order)


def test_bilinearity_1000_random_pairs():
    jobs = min(8, os.cpu_count() or 1)
    chunk = (1000 + jobs - 1) // jobs
    ranges = [(lo, min(lo + chunk, 1000)) for lo in range(0, 1000, chunk)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        failures = [t for t in pool.map(_bilinearity_worker, ranges) if t >= 0]
    assert failures == []


def test_pair_identity_inputs(bls_engine):
    e = bls_engine
    assert e.pair(e.identity_g1, e.g2) == e.identity_gt
    assert e.pair(e.g1, e.identity_g2) == e.identity_gt


def test_multi_pair_equals_product_and_counts(bls_engine):
    e = bls_engine
    rng = random.Random(3)
    terms = [(e.g1 ** rng.randrange(1, e.order), e.g2 ** rng.randrange(1, e.order)) for _ in range(3)]
    before = e.pairing_count
    combined = e.multi_pair(terms)
    assert e.pairing_count - before == 3
    product = e.identity_gt
    for p, q in terms:
        product = product * e.pair(p, q)
    assert combined == product
    assert e.multi_pair(list(reversed(terms))) == combined
    with pytest.raises(EmptyInput):
        e.multi_pair([])


def test_glv_matches_plain():
    g = (curve._G1X, curve._G1Y)
    p, beta, lam = int(curve.PRIME), int(curve.GLV_BETA), curve.GLV_LAMBDA
    assert beta != 1 and pow(beta, 3, p) == 1
    assert (lam * lam + lam + 1) % curve.ORDER == 0
    assert (g[0] * beta % p, g[1]) == curve.g1_mul_plain(g, lam % curve.ORDER)
    rng = random.Random(4)
    for k in [1, 2, curve.GLV_LAMBDA, curve.ORDER - 1] + [rng.randrange(curve.ORDER) for _ in range(20)]:
        assert curve.g1_mul(g, k) == curve.g1_mul_plain(g, k % curve.ORDER)
    assert curve.g1_mul(g, 0) is None
    assert curve.g1_mul(g, curve.ORDER) is None


def test_group_axioms(bls_engine):
    e = bls_engine
    x = e.g1 ** 12345
    assert x * x.inverse() == e.identity_g1
    assert e.g1 ** e.order == e.identity_g1
    assert e.g2 ** e.order == e.identity_g2
    y = e.g2 ** 777
    assert y * y.inverse() == e.identity_g2
    gt = e.pair(e.g1, e.g2)
    assert gt * gt.inverse() == e.identity_gt
    assert gt ** e.order == e.identity_gt


def test_psi_unsupported(bls_engine):
    with pytest.raises(UnsupportedOperation):
        bls_engine.psi(bls_engine.g2)


def test_hash_to_g1_deterministic_subgroup_valid(bls_engine):
    e = bls_engine
    pts = set()
    for i in range(8):
        h = e.hash_to_g1(b"T", f"input-{i}".encode())
        assert h == e.hash_to_g1(b"T", f"input-{i}".encode())
        assert curve.g1_in_subgroup(h.pt)
        pts.add(e.encode_g1(h))
    assert len(pts) == 8
    assert e.hash_to_g1(b"T1", b"same") != e.hash_to_g1(b"T2", b"same")


def test_hash_to_scalar_range(bls_engine):
    e = bls_engine
    for i in range(50):
        s = e.hash_to_scalar(b"S", f"in-{i}".encode())
        assert 1 <= s < e.order


def test_point_encoding_round_trips(bls_engine):
    e = bls_engine
    rng = random.Random(5)
    for _ in range(5):
        p = e.g1 ** rng.randrange(1, e.order)
        q = e.g2 ** rng.randrange(1, e.order)
        assert e.decode_g1(e.encode_g1(p)) == p
        assert e.decode_g2(e.encode_g2(q)) == q
        assert len(e.encode_g1(p)) == 48
        assert len(e.encode_g2(q)) == 96
    assert e.decode_g1(e.encode_g1(e.identity_g1)) == e.identity_g1
    assert e.decode_g2(e.encode_g2(e.identity_g2)) == e.identity_g2


def test_scalar_encoding(bls_engine):
    e = bls_engine
    for k in (0, 1, e.order - 1):
        assert e.decode_scalar(e.encode_scalar(k)) == k
    with pytest.raises(InvalidElement):
        e.decode_scalar(e.order.to_bytes(32, "big"))


def test_decode_rejects_malformed(bls_engine):
    e = bls_engine
    with pytest.raises(InvalidElement):
        e.decode_g1(bytes(48))  # compression flag missing
    with pytest.raises(InvalidElement):
        e.decode_g1(bytes([0x80]) + bytes(46))  # wrong length
    # x not on the curve: flip bits until decode must fail structurally
    good = bytearray(e.encode_g1(e.g1 ** 5))
    good[-1] ^= 0xFF
    with pytest.raises(InvalidElement):
        e.decode_g1(bytes(good))


def test_decode_rejects_wrong_subgroup():
    # a point on the curve but outside the r-subgroup must be rejected
    data = curve.encode_g1_point(off_subgroup_g1_point())
    with pytest.raises(InvalidElement):
        curve.decode_g1_point(data)


def test_fq2_sqrt_round_trip():
    rng = random.Random(6)
    found = 0
    for _ in range(20):
        cand = (curve.mpz(rng.randrange(curve.PRIME)), curve.mpz(rng.randrange(curve.PRIME)))
        square = curve.fq2_sqr(cand)
        root = curve._fq2_sqrt(square)
        assert root is not None
        assert curve.fq2_sqr(root) == square
        found += 1
    assert found == 20
