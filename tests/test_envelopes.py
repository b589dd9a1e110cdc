import json
import random
from pathlib import Path

import pytest

from mtaotibas import envelopes, scheme
from mtaotibas.errors import InvalidElement, MalformedEnvelope
from mtaotibas.pairing import MockEngine

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
