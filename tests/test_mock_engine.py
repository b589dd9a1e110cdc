import random
import re
from pathlib import Path

import pytest

from mtaotibas.errors import EmptyInput, InvalidElement
from mtaotibas.pairing.mock import MOCK_MODULUS, MockEngine, load_vector_table
from mtaotibas.scheme import DOMAIN_H0

from conftest import fixed_mock_table

Q = MOCK_MODULUS
DATA = Path(__file__).parent / "data"


def test_pair_is_integer_multiplication(mock_engine):
    a = mock_engine.g1 ** 3
    b = mock_engine.g2 ** 11
    assert mock_engine.dlog(mock_engine.pair(a, b)) == 33


def test_pair_identity_gives_identity(mock_engine):
    r = mock_engine.g2 ** 17
    assert mock_engine.dlog(mock_engine.pair(mock_engine.identity_g1, r)) == 0


def test_pair_bilinearity_instance(mock_engine):
    e = mock_engine
    lhs = e.pair(e.g1 ** 2, e.g2 ** 3)
    assert lhs == e.pair(e.g1, e.g2) ** 6


def test_bilinearity_random(mock_engine):
    e = mock_engine
    rng = random.Random(11)
    base = e.pair(e.g1, e.g2)
    for _ in range(1000):
        a = rng.randrange(1, Q)
        b = rng.randrange(1, Q)
        assert e.pair(e.g1 ** a, e.g2 ** b) == base ** (a * b)


def test_multi_pair_matches_product_and_counter(mock_engine):
    e = mock_engine
    terms = [(e.g1 ** 3, e.g2 ** 11), (e.g1 ** 4, e.g2 ** 13)]
    before = e.pairing_count
    out = e.multi_pair(terms)
    assert e.pairing_count - before == 2
    assert e.dlog(out) == (33 + 52) % Q
    # permutation invariance and single-term consistency
    assert e.multi_pair(list(reversed(terms))) == out
    assert e.multi_pair(terms[:1]) == e.pair(*terms[0])


def test_multi_pair_empty_rejected(mock_engine):
    with pytest.raises(EmptyInput):
        mock_engine.multi_pair([])


def test_pair_counter_increments_by_one(mock_engine):
    e = mock_engine
    before = e.pairing_count
    e.pair(e.g1, e.g2)
    assert e.pairing_count - before == 1


def test_psi_is_identity_map(mock_engine):
    e = mock_engine
    assert e.dlog(e.psi(e.g2 ** 7)) == 7
    assert e.psi(e.g2 ** 5) == e.g1 ** 5
    assert e.psi(e.g2) == e.g1


def test_group_axioms(mock_engine):
    e = mock_engine
    x = e.g1 ** 123
    assert x * x.inverse() == e.identity_g1
    assert e.g1 ** Q == e.identity_g1
    assert e.dlog(e.g1 ** 7) == 7
    assert (x * e.g1 ** 5) * e.g1 ** 9 == x * (e.g1 ** 5 * e.g1 ** 9)


def test_mock_oracle_agreement(mock_engine):
    # expression trees over group ops equal direct modular-integer evaluation
    e = mock_engine
    rng = random.Random(3)
    for _ in range(200):
        a, b, k = rng.randrange(Q), rng.randrange(Q), rng.randrange(Q)
        expr = (e.g1 ** a * e.g1 ** b) ** k
        assert e.dlog(expr) == (a + b) * k % Q
        assert e.dlog((e.g1 ** a).inverse()) == -a % Q


def test_hash_table_pinning():
    e = MockEngine(table=fixed_mock_table())
    for _ in range(2):  # the first call and a memo hit
        assert e.dlog(e.hash_to_g1(DOMAIN_H0, b"ID-A\x00")) == 3
        assert e.dlog(e.hash_to_g1(DOMAIN_H0, b"ID-A\x01")) == 5


def test_hash_determinism_and_fallback(mock_engine):
    e = mock_engine
    one = e.hash_to_g1(b"T", b"unpinned input")
    assert one == e.hash_to_g1(b"T", b"unpinned input")
    assert 0 <= e.dlog(one) < Q


def test_hash_to_scalar_never_zero_bulk(mock_engine):
    # the mod (q-1) plus one construction keeps 0 out of the range
    e = mock_engine
    for i in range(1_000_000):
        if e.hash_to_scalar(b"Z", i.to_bytes(4, "big")) == 0:
            pytest.fail(f"zero scalar at input {i}")


def test_hash_to_scalar_range_and_domain_separation(mock_engine):
    e = mock_engine
    rng = random.Random(4)
    seen_domains_differ = 0
    for i in range(2000):
        data = rng.getrandbits(64).to_bytes(8, "big")
        s = e.hash_to_scalar(b"D1", data)
        assert 1 <= s <= Q - 1
        if s != e.hash_to_scalar(b"D2", data):
            seen_domains_differ += 1
    assert seen_domains_differ > 1900  # collisions happen at mock scale, rarely


def test_hash_rejects_empty_tag(mock_engine):
    with pytest.raises(ValueError):
        mock_engine.hash_to_g1(b"", b"x")
    with pytest.raises(ValueError):
        mock_engine.hash_to_scalar(b"", b"x")


def test_scalar_encoding_round_trip(mock_engine):
    e = mock_engine
    for k in (0, 1, 500, Q - 1):
        assert e.decode_scalar(e.encode_scalar(k)) == k
    with pytest.raises(InvalidElement):
        e.encode_scalar(Q)
    with pytest.raises(InvalidElement):
        e.decode_scalar((Q).to_bytes(2, "big"))


def test_element_encoding_round_trip(mock_engine):
    e = mock_engine
    for v in (0, 1, 42, Q - 1):
        assert e.decode_g1(e.encode_g1(e.g1 ** v)) == e.g1 ** v
        assert e.decode_g2(e.encode_g2(e.g2 ** v)) == e.g2 ** v
    with pytest.raises(InvalidElement):
        e.decode_g1(b"\x04\x00")  # 1024 >= q


def test_vector_table_file_round_trip():
    assert load_vector_table(DATA / "mock_vectors.txt") == fixed_mock_table()


def test_vector_table_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("hash_to_g1 | zz | 0001\n")
    with pytest.raises(ValueError):
        load_vector_table(path)


def test_vector_table_outputs_checked(tmp_path):
    # an output is 2 bytes: hash_to_g1 in Z_q, hash_to_scalar in [1, q - 1]
    path = tmp_path / "edges.txt"
    path.write_text("hash_to_g1 | 4d 00 | 0000\nhash_to_g1 | 4d 01 | 03f0\n"
                    "hash_to_scalar | 4d 00 | 0001\nhash_to_scalar | 4d 01 | 03f0\n")
    assert load_vector_table(path) == {
        ("hash_to_g1", b"M", b"\x00"): 0, ("hash_to_g1", b"M", b"\x01"): Q - 1,
        ("hash_to_scalar", b"M", b"\x00"): 1, ("hash_to_scalar", b"M", b"\x01"): Q - 1}
    for line in ("hash_to_g1 | 4d 00 | 03f1", "hash_to_scalar | 4d 00 | 0000", "hash_to_g1 | 4d 00 | 000A",
                 "hash_to_g1 | 4d 00 |", "hash_to_g1 | 4d 00 | 0a", "hash_to_scalar | 4d 00 | 0000000a"):
        path.write_text("# comment\n\n" + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
            load_vector_table(path)
    # a second record for one (op, tag, input) fails, whatever its output
    for output in ("0005", "0003"):
        path.write_text(f"hash_to_g1 | 4d 00 | 0003\n# comment\nhash_to_g1 | 4d 00 | {output}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: duplicate record, first at line 1")):
            load_vector_table(path)


def test_random_scalar_never_zero(mock_engine):
    rng = random.Random(9)
    draws = {mock_engine.random_scalar(rng) for _ in range(5000)}
    assert 0 not in draws
    assert min(draws) >= 1 and max(draws) <= Q - 1
