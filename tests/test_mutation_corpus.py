"""The decoder mutation corpus: seeded damage to every committed envelope
vector (mock and production, binary and JSON) and to the committed journal.

Every truncation, one bit flipped at every byte, and every type read as every
other type. Each case either raises a typed error (MalformedEnvelope,
InvalidElement, CorruptJournal) or decodes to an object whose every group
element passes the reference subgroup check, the plain ladder by the
unreduced group order r, and which re-encodes to the bytes read.

The mock cases run in full. The production cases are a fixed seeded sample of
PRODUCTION_SAMPLE, as each decodes curve points, and CLI_SAMPLE of them also
go through the CLI.
"""

import dataclasses
import functools
import json
import random
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from mtaotibas import envelopes
from mtaotibas.cli import main
from mtaotibas.errors import CorruptJournal, InvalidElement, MalformedEnvelope
from mtaotibas.keystore import KeyStore
from mtaotibas.pairing import bls12381 as curve
from mtaotibas.pairing import get_engine
from mtaotibas.pairing.mock import MockEngine, _MockElement

from conftest import in_subgroup_by_ladder, off_subgroup_g1_point, off_subgroup_g2_point

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_envelopes.json").read_text())
TYPES = sorted(envelopes._TYPES)
PRODUCTION_SAMPLE = 4000
CLI_SAMPLE = 20
SEED = 0xC0A5


_reference = functools.lru_cache(maxsize=None)(in_subgroup_by_ladder)  # the same points recur across cases


def _elements(obj):
    """Every group element inside a decoded object."""
    if isinstance(obj, (curve.G1Point, curve.G2Point, _MockElement)):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _elements(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _elements(getattr(obj, f.name))


def _outside_subgroup(engine, obj) -> list:
    """The class names of the elements of ``obj`` that fail the reference check."""
    return [type(e).__name__ for e in _elements(obj)
            if not (0 <= e.value < engine.order if isinstance(e, _MockElement) else _reference(e.pt))]


def _mutants(data: bytes, rng):
    """(name, bytes): every truncation, then one seeded bit flipped at every byte."""
    for cut in range(len(data)):
        yield f"cut {cut}", data[:cut]
    for i in range(len(data)):
        bit = rng.randrange(8)
        flipped = bytearray(data)
        flipped[i] ^= 1 << bit
        yield f"flip byte {i} bit {bit}", bytes(flipped)


def _retyped(form: str, data: bytes, name: str):
    """(name, bytes, expect): the vector read as every other type, as found
    and with its type tag or type name rewritten to that type."""
    for other in TYPES:
        if other == name:
            continue
        yield f"read as {other}", data, other
        if form == "binary":
            tag = envelopes._TYPES[other].tag
            yield f"retagged {other}", data[:5] + bytes([tag]) + data[6:], other
        else:
            doc = json.loads(data)
            doc["type"] = other
            yield f"renamed {other}", envelopes.dump_json(doc).encode(), other


def _cases(backend: str):
    rng = random.Random(f"{SEED}-{backend}")
    out = []
    for name in TYPES:
        vector = GOLDEN[backend][name]
        for form, data in (("binary", bytes.fromhex(vector["binary"])), ("json", vector["json"].encode())):
            for what, mutant in _mutants(data, rng):
                out.append((f"{name} {form} {what}", form, mutant, name))
            for what, mutant, expect in _retyped(form, data, name):
                out.append((f"{name} {form} {what}", form, mutant, expect))
    return out


def _decode(engine, form, data, expect, path):
    """(object, its re-encoding) or MalformedEnvelope/InvalidElement."""
    if form == "binary":
        obj = envelopes.from_binary(engine, data, expect)
        return obj, envelopes.to_binary(engine, obj)
    path.write_bytes(data)
    obj = envelopes.load_json(path, engine, expect)
    return obj, (envelopes.dump_json(envelopes.to_json_obj(engine, obj))).encode()


def _wrong_outcomes(engine, cases, path):
    wrong = []
    for label, form, data, expect in cases:
        try:
            obj, again = _decode(engine, form, data, expect, path)
        except (MalformedEnvelope, InvalidElement):
            continue
        except Exception as exc:  # an untyped error is a finding
            wrong.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        outside = _outside_subgroup(engine, obj)
        if again != data:
            wrong.append(f"{label}: decoded, but re-encodes to other bytes")
        elif outside:
            wrong.append(f"{label}: decoded {outside} outside the prime-order subgroup")
    return wrong


def test_mock_envelope_corpus(tmp_path):
    cases = _cases("mock")
    assert len(cases) > 2000
    assert _wrong_outcomes(MockEngine(), cases, tmp_path / "case.json") == []


def test_production_envelope_corpus(tmp_path):
    cases = _cases("production")
    sample = random.Random(SEED).sample(cases, PRODUCTION_SAMPLE)
    assert _wrong_outcomes(get_engine("production"), sample, tmp_path / "case.json") == []


def test_production_corpus_covers_g2_cases():
    # the sample reaches every G2-bearing type, flips and cuts alike
    cases = random.Random(SEED).sample(_cases("production"), PRODUCTION_SAMPLE)
    for name in ("system-params", "ta-record", "aggregate-bundle"):
        labels = [label for label, *_ in cases if label.startswith(name)]
        assert any(" flip " in label for label in labels) and any(" cut " in label for label in labels)


@pytest.mark.parametrize("name", ["system-params", "aggregate-bundle"])
def test_cli_verify_on_damaged_inputs_exits_1_or_2(tmp_path, monkeypatch, name):
    # damaged params or bundle: exit 1 (decodes, does not verify) or 2 (does
    # not decode), never a traceback
    monkeypatch.chdir(tmp_path)
    vectors = {n: GOLDEN["production"][n]["json"].encode() for n in ("system-params", "aggregate-bundle")}
    mutants = list(_mutants(vectors[name], random.Random(f"{SEED}-cli-{name}")))
    for label, data in random.Random(SEED).sample(mutants, CLI_SAMPLE):
        for n, vector in vectors.items():
            (tmp_path / f"{n}.json").write_bytes(data if n == name else vector)
        result = CliRunner().invoke(main, ["verify", "--params", "system-params.json",
                                           "--bundle", "aggregate-bundle.json"])
        assert result.exit_code in (1, 2), f"{label}: {result.output}"
        assert isinstance(result.exception, SystemExit), f"{label}: {result.exception!r}"
        assert "Traceback" not in result.output, label


def test_journal_corpus(tmp_path):
    engine = MockEngine()
    data = (DATA / "mock_keys.journal").read_bytes()
    path = tmp_path / "keys.journal"
    wrong = []
    for label, journal in _mutants(data, random.Random(f"{SEED}-journal")):
        path.write_bytes(journal)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a dropped torn record warns
                with KeyStore(path, engine) as store:
                    entries = store.entries()
            for entry_id, entry in entries.items():
                try:
                    key = entry.key
                except CorruptJournal:
                    continue
                if envelopes.to_binary(engine, key) != entry.stored.raw:
                    wrong.append(f"{label}: entry {entry_id} re-encodes to other bytes")
                elif _outside_subgroup(engine, key):
                    wrong.append(f"{label}: entry {entry_id} outside the subgroup")
        except CorruptJournal:
            continue
        except Exception as exc:  # an untyped error is a finding
            wrong.append(f"{label}: {type(exc).__name__}: {exc}")
    assert wrong == []


def test_reference_check_tells_subgroup_from_curve():
    # the corpus's own judge: the generators and the identity pass, curve
    # points outside the subgroup fail
    assert in_subgroup_by_ladder(None)
    assert in_subgroup_by_ladder((curve._G1X, curve._G1Y)) and in_subgroup_by_ladder((curve._G2X, curve._G2Y))
    assert not in_subgroup_by_ladder(off_subgroup_g1_point())
    assert not in_subgroup_by_ladder(off_subgroup_g2_point())
