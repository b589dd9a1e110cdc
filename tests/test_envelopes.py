import json
import random
from pathlib import Path

import pytest

from mtaotibas import envelopes, scheme
from mtaotibas.errors import InvalidElement, MalformedEnvelope
from mtaotibas.pairing.mock import MockEngine

from conftest import random_honest_bundle

GOLDEN = Path(__file__).parent / "data" / "golden_envelopes.json"


def _everything(fixed_scenario):
    eng = fixed_scenario["engine"]
    tsec, trec = fixed_scenario["tas"][b"TA-1"]
    return eng, [
        ("system-params", fixed_scenario["params"]),
        ("master-secret", fixed_scenario["master"]),
        ("ta-secret", tsec),
        ("ta-record", trec),
        ("signer-key", fixed_scenario["keys"][b"ID-A"]),
        ("signature", fixed_scenario["signatures"][0]),
        ("aggregate-bundle", fixed_scenario["bundle"]),
    ]


def test_binary_round_trip_all_types(fixed_scenario):
    eng, objs = _everything(fixed_scenario)
    for name, obj in objs:
        blob = envelopes.to_binary(eng, obj)
        assert blob[:4] == b"MTAO"
        back = envelopes.from_binary(eng, blob, name)
        assert envelopes.to_binary(eng, back) == blob
        assert back == obj


def test_json_round_trip_all_types(fixed_scenario):
    eng, objs = _everything(fixed_scenario)
    for name, obj in objs:
        doc = envelopes.to_json_obj(eng, obj)
        text = envelopes.dump_json(doc)
        back = envelopes.from_json_obj(eng, json.loads(text), name)
        assert back == obj
        assert envelopes.dump_json(envelopes.to_json_obj(eng, back)) == text


def _production_objects(engine):
    """One of each type from a seeded production run."""
    rng = random.Random(4)
    master, params = scheme.root_setup(engine, rng)
    tsec, trec = scheme.lowerlevel_setup(engine, params, master, b"golden-ta", rng)
    key = scheme.extract(engine, tsec, trec, b"golden-signer")
    sig = scheme.sign(engine, key, trec, b"golden-message")
    _, bundle = random_honest_bundle(engine, rng, 3, 2)
    return [
        ("system-params", params),
        ("master-secret", master),
        ("ta-secret", tsec),
        ("ta-record", trec),
        ("signer-key", key),
        ("signature", sig),
        ("aggregate-bundle", bundle),
    ]


@pytest.mark.parametrize("backend", ["mock", "production"])
def test_golden_vectors(backend, fixed_scenario, bls_engine):
    """Both wire formats reproduce the committed vectors byte for byte, and
    the committed bytes decode back to the same objects."""
    golden = json.loads(GOLDEN.read_text())[backend]
    if backend == "mock":
        eng, objs = _everything(fixed_scenario)
    else:
        eng, objs = bls_engine, _production_objects(bls_engine)
    assert sorted(golden) == sorted(name for name, _ in objs)
    for name, obj in objs:
        want = golden[name]
        assert envelopes.to_binary(eng, obj).hex() == want["binary"], name
        assert envelopes.dump_json(envelopes.to_json_obj(eng, obj)) == want["json"], name
        assert envelopes.from_binary(eng, bytes.fromhex(want["binary"]), name) == obj, name
        assert envelopes.from_json_obj(eng, json.loads(want["json"]), name) == obj, name


def test_json_hex_is_lowercase_fixed_width(fixed_scenario):
    eng = fixed_scenario["engine"]
    doc = envelopes.to_json_obj(eng, fixed_scenario["signatures"][0])
    sigma = doc["fields"]["sigma"]
    assert sigma == sigma.lower() and len(sigma) == 2 * eng.g1_bytes


def test_production_round_trip(bls_engine):
    rng = random.Random(31)
    master, params = scheme.root_setup(bls_engine, rng)
    tsec, trec = scheme.lowerlevel_setup(bls_engine, params, master, b"prod-ta", rng)
    key = scheme.extract(bls_engine, tsec, trec, b"prod-user")
    sig = scheme.sign(bls_engine, key, trec, b"payload")
    for name, obj in [
        ("system-params", params),
        ("ta-record", trec),
        ("signer-key", key),
        ("signature", sig),
    ]:
        blob = envelopes.to_binary(bls_engine, obj)
        assert envelopes.from_binary(bls_engine, blob, name) == obj
        doc = envelopes.to_json_obj(bls_engine, obj)
        assert envelopes.from_json_obj(bls_engine, doc, name) == obj


def test_bad_magic_rejected(fixed_scenario):
    eng = fixed_scenario["engine"]
    blob = bytearray(envelopes.to_binary(eng, fixed_scenario["signatures"][0]))
    blob[0] ^= 0xFF
    with pytest.raises(MalformedEnvelope):
        envelopes.from_binary(eng, bytes(blob), "signature")


def test_wrong_type_tag_rejected(fixed_scenario):
    eng = fixed_scenario["engine"]
    blob = envelopes.to_binary(eng, fixed_scenario["signatures"][0])
    with pytest.raises(MalformedEnvelope):
        envelopes.from_binary(eng, blob, "ta-record")


def test_truncation_rejected(fixed_scenario):
    eng = fixed_scenario["engine"]
    blob = envelopes.to_binary(eng, fixed_scenario["bundle"])
    with pytest.raises(MalformedEnvelope):
        envelopes.from_binary(eng, blob[:-1], "aggregate-bundle")
    with pytest.raises(MalformedEnvelope):
        envelopes.from_binary(eng, blob + b"\x00", "aggregate-bundle")


def test_out_of_range_element_rejected(fixed_scenario):
    eng = fixed_scenario["engine"]
    doc = envelopes.to_json_obj(eng, fixed_scenario["signatures"][0])
    doc["fields"]["sigma"] = "07ff"  # 2047 >= 1009
    with pytest.raises(InvalidElement):
        envelopes.from_json_obj(eng, doc, "signature")


def test_backend_mismatch_rejected(fixed_scenario, bls_engine):
    eng = fixed_scenario["engine"]
    doc = envelopes.to_json_obj(eng, fixed_scenario["params"])
    with pytest.raises(MalformedEnvelope):
        envelopes.from_json_obj(bls_engine, doc, "system-params")


def test_file_helpers_round_trip(tmp_path, fixed_scenario):
    eng = fixed_scenario["engine"]
    path = tmp_path / "bundle.json"
    envelopes.save_json(path, eng, fixed_scenario["bundle"])
    assert envelopes.load_json(path, eng, "aggregate-bundle") == fixed_scenario["bundle"]


def test_not_json_rejected(tmp_path, mock_engine):
    path = tmp_path / "junk.json"
    path.write_text("not json at all {")
    with pytest.raises(MalformedEnvelope):
        envelopes.load_json(path, mock_engine, "signature")


@pytest.mark.parametrize("content", [b"[" * 200_000, b'{"format": "MTAO\xff"}'],
                         ids=["deep-nesting", "not-utf8"])
def test_unreadable_json_file_is_malformed(tmp_path, mock_engine, content):
    # json raises RecursionError on deep nesting and the read UnicodeDecodeError;
    # a caller that catches the package's errors sees MalformedEnvelope for both
    path = tmp_path / "junk.json"
    path.write_bytes(content)
    with pytest.raises(MalformedEnvelope, match="not valid JSON"):
        envelopes.load_json(path, mock_engine, "system-params")


def test_missing_field_rejected(fixed_scenario):
    eng = fixed_scenario["engine"]
    doc = envelopes.to_json_obj(eng, fixed_scenario["signatures"][0])
    del doc["fields"]["sigma"]
    with pytest.raises(MalformedEnvelope):
        envelopes.from_json_obj(eng, doc, "signature")


@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
def test_version_must_be_the_integer_1(fixed_scenario, version):
    eng = fixed_scenario["engine"]
    doc = envelopes.to_json_obj(eng, fixed_scenario["signatures"][0])
    doc["version"] = version
    with pytest.raises(MalformedEnvelope):
        envelopes.from_json_obj(eng, doc, "signature")


def _params_doc(fixed_scenario, y):
    doc = envelopes.to_json_obj(fixed_scenario["engine"], fixed_scenario["params"])
    doc["fields"]["y"] = y
    return doc


@pytest.mark.parametrize("y", ["008A", " 00 8a\n", "00 8a", "008a\n", "0x008a"])
def test_only_canonical_hex_decodes(fixed_scenario, y):
    eng = fixed_scenario["engine"]
    params = envelopes.from_json_obj(eng, _params_doc(fixed_scenario, "008a"), "system-params")
    assert params.y == eng.g2 ** 0x8A
    with pytest.raises(MalformedEnvelope, match="hex"):
        envelopes.from_json_obj(eng, _params_doc(fixed_scenario, y), "system-params")


def test_backend_name_not_utf8_rejected(fixed_scenario):
    eng = fixed_scenario["engine"]
    blob = envelopes.to_binary(eng, fixed_scenario["params"])
    assert blob.count(b"mock") == 1
    with pytest.raises(MalformedEnvelope, match="backend"):
        envelopes.from_binary(eng, blob.replace(b"mock", b"\xffock"), "system-params")


def _reframed(blob: bytes, version=None, tag=None) -> bytes:
    return blob[:4] + bytes([blob[4] if version is None else version, blob[5] if tag is None else tag]) + blob[6:]


@pytest.mark.parametrize("version, tag, why", [
    (0, None, "unsupported version 0"),
    (2, None, "unsupported version 2"),
    (None, 0, "unknown type tag 0"),
    (None, 8, "unknown type tag 8"),
    (None, 255, "unknown type tag 255"),
])
def test_binary_header_rejected(fixed_scenario, version, tag, why):
    eng = fixed_scenario["engine"]
    blob = envelopes.to_binary(eng, fixed_scenario["signatures"][0])
    with pytest.raises(MalformedEnvelope, match=why):
        envelopes.from_binary(eng, _reframed(blob, version, tag), "signature")


def test_list_counts_above_cap_rejected(fixed_scenario):
    eng = fixed_scenario["engine"]
    header = b"MTAO" + bytes([envelopes.VERSION, 5])
    with pytest.raises(MalformedEnvelope, match="implausible groups count"):
        envelopes.from_binary(eng, header + (65536 + 1).to_bytes(4, "big"), "aggregate-bundle")
    # one group: its authority record, then a signer count one above 2^20
    blob = envelopes.to_binary(eng, fixed_scenario["bundle"])
    record = envelopes.to_binary(eng, fixed_scenario["tas"][b"TA-1"][1])[6:]
    one_group = header + (1).to_bytes(4, "big") + len(record).to_bytes(4, "big") + record
    assert blob[10:].startswith(one_group[10:])  # framed as the real bundle's first group
    with pytest.raises(MalformedEnvelope, match="implausible signers count"):
        envelopes.from_binary(eng, one_group + ((1 << 20) + 1).to_bytes(4, "big"), "aggregate-bundle")


@pytest.mark.parametrize("cut", [1, 2, 3])
def test_length_prefix_cut_short_rejected(fixed_scenario, cut):
    eng = fixed_scenario["engine"]
    blob = envelopes.to_binary(eng, fixed_scenario["signatures"][0])
    with pytest.raises(MalformedEnvelope, match="truncated envelope"):
        envelopes.from_binary(eng, blob[:6 + cut], "signature")


@pytest.mark.parametrize("obj", [object(), b"bytes", None, scheme.VerifyResult(True)])
def test_unserializable_object_raises_type_error(mock_engine, obj):
    with pytest.raises(TypeError, match="cannot serialize"):
        envelopes.to_binary(mock_engine, obj)
    with pytest.raises(TypeError, match="cannot serialize"):
        envelopes.to_json_obj(mock_engine, obj)
