"""Serialized forms for every persistent object.

One table, ``_TYPES``, gives each type's binary tag, class and ordered
fields; one walker per format reads and writes every type from it. Both
envelopes round-trip bit-exactly:

* binary: magic ``MTAO``, version u8, type tag u8, then the fields in table
  order. A plain field is a u32 big-endian length and its bytes, a nested
  record a u32 length and its own fields, a list a u32 count and its items'
  fields; the bundle's trailing ``omega`` is fixed-width, with no prefix;
* JSON: ``{"format": "MTAO", "version": 1, "type": ..., "fields": ...}``
  with nested records as objects, lists as lists, the backend name as a
  string and every other field as lowercase fixed-width hex.

Decoding validates group elements against the engine (subgroup membership
included), so a successfully decoded object is safe to compute with. Other
malformed input, a wrongly typed JSON node or hex that ``.hex()`` would not
write included, raises MalformedEnvelope.
"""

import io
import json
import struct
from typing import NamedTuple, Optional, Tuple

from .encoding import from_hex
from .errors import MalformedEnvelope
from .scheme import (
    AggregateBundle,
    MasterSecret,
    Signature,
    SignerKey,
    SystemParams,
    TARecord,
    TASecret,
)

MAGIC = b"MTAO"
VERSION = 1


def _checked(value, ok: bool, why: str):
    if not ok:
        raise MalformedEnvelope(why)
    return value


def _backend(engine, name: str) -> str:
    return _checked(name, name == engine.backend,
                    f"params are for backend {name!r}, engine is {engine.backend!r}")


def _generator(decoded, expected):
    return _checked(decoded, decoded == expected, "generator mismatch")


# kind -> (value to bytes, checked bytes to value); the bytes are a binary
# field's body and, in hex, its JSON form
_CODECS = {
    "bytes": (lambda e, v: v, lambda e, b: bytes(b)),
    "identity": (lambda e, v: v, lambda e, b: _checked(bytes(b), len(b) > 0, "empty identity")),
    "fingerprint": (lambda e, v: v, lambda e, b: _checked(
        bytes(b), len(b) == 32, "authority fingerprint must be 32 bytes")),
    # a name that is not UTF-8 decodes with U+FFFD, so it names no engine
    "backend": (lambda e, v: v.encode(), lambda e, b: _backend(e, b.decode(errors="replace"))),
    "scalar": (lambda e, v: e.encode_scalar(v), lambda e, b: e.decode_scalar(b)),
    "g1": (lambda e, v: e.encode_g1(v), lambda e, b: e.decode_g1(b)),
    "g2": (lambda e, v: e.encode_g2(v), lambda e, b: e.decode_g2(b)),
    "g1-generator": (lambda e, _: e.encode_g1(e.g1), lambda e, b: _generator(e.decode_g1(b), e.g1)),
    "g2-generator": (lambda e, _: e.encode_g2(e.g2), lambda e, b: _generator(e.decode_g2(b), e.g2)),
    "omega": (lambda e, v: e.encode_g1(v), lambda e, b: e.decode_g1(b)),
}
_GENERATORS = ("g1-generator", "g2-generator")  # checked on decode, not stored


class _Field(NamedTuple):
    name: str  # attribute and JSON key
    kind: str  # a _CODECS key, "record" or "list"
    item: Optional["_Record"] = None  # the nested record, or a list's items
    cap: int = 0  # a list's largest plausible binary count


class _Record(NamedTuple):
    tag: Optional[int]  # binary type tag; None for records only found nested
    cls: Optional[type]  # None: a plain tuple
    fields: Tuple[_Field, ...]

    def values(self, obj):
        return obj if self.cls is None else [getattr(obj, f.name, None) for f in self.fields]

    def make(self, values):
        kept = [v for f, v in zip(self.fields, values) if f.kind not in _GENERATORS]
        return self.cls(*kept) if self.cls else tuple(kept)


_TA = _Record(2, TARecord, (_Field("ta_identity", "identity"), _Field("y_i", "g2"), _Field("cert", "g1")))
_SIGNER = _Record(None, None, (_Field("identity", "bytes"), _Field("message", "bytes")))
_GROUP = _Record(None, None, (
    _Field("ta_record", "record", _TA), _Field("signers", "list", _SIGNER, 1 << 20)))

_TYPES = {
    "system-params": _Record(1, SystemParams, (
        _Field("backend", "backend"),
        _Field("g1", "g1-generator"),
        _Field("g2", "g2-generator"),
        _Field("y", "g2"),
    )),
    "ta-record": _TA,
    "signer-key": _Record(3, SignerKey, (
        _Field("signer_id", "identity"),
        _Field("ta_fingerprint", "fingerprint"),
        _Field("s0", "g1"),
        _Field("s1", "g1"),
    )),
    "signature": _Record(4, Signature, (_Field("sigma", "g1"),)),
    "aggregate-bundle": _Record(5, AggregateBundle, (
        _Field("groups", "list", _GROUP, 65536),
        _Field("omega", "omega"),
    )),
    "master-secret": _Record(6, MasterSecret, (_Field("kappa", "scalar"),)),
    "ta-secret": _Record(7, TASecret, (_Field("kappa_i", "scalar"),)),
}
_BY_TAG = {rec.tag: name for name, rec in _TYPES.items()}
_BY_CLASS = {rec.cls: name for name, rec in _TYPES.items()}


def _type_name(obj) -> str:
    if type(obj) not in _BY_CLASS:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return _BY_CLASS[type(obj)]


# ---------------------------------------------------------------------------
# binary envelope

_U32 = struct.Struct(">I")


def _pack(engine, rec: _Record, obj) -> bytes:
    out = bytearray()
    for f, v in zip(rec.fields, rec.values(obj)):
        if f.kind == "list":
            out += _U32.pack(len(v))
            for item in v:
                out += _pack(engine, f.item, item)
        elif f.kind == "omega":
            out += engine.encode_g1(v)
        else:
            body = _pack(engine, f.item, v) if f.kind == "record" else _CODECS[f.kind][0](engine, v)
            out += _U32.pack(len(body)) + body
    return bytes(out)


def _take(r: io.BytesIO, n: int) -> bytes:
    chunk = r.read(n)
    if len(chunk) != n:
        raise MalformedEnvelope("truncated envelope")
    return chunk


def _read(engine, rec: _Record, r: io.BytesIO) -> list:
    """One record's fields. Plain fields stay raw bytes until _build, once the
    framing around them is checked; nested records, lists and omega decode here."""
    raw = []
    for f in rec.fields:
        if f.kind == "list":
            (n,) = _U32.unpack(r.read(4))
            if n > f.cap:
                raise MalformedEnvelope(f"implausible {f.name} count")
            raw.append(tuple(_build(engine, f.item, _read(engine, f.item, r)) for _ in range(n)))
        elif f.kind == "record":
            raw.append(_build(engine, f.item, _split(engine, f.item, _take(r, *_U32.unpack(r.read(4))))))
        elif f.kind == "omega":
            raw.append(engine.decode_g1(_take(r, engine.g1_bytes)))
        else:
            raw.append(_take(r, *_U32.unpack(r.read(4))))
    return raw


def _split(engine, rec: _Record, data: bytes) -> list:
    r = io.BytesIO(data)
    try:
        raw = _read(engine, rec, r)
    except struct.error as exc:  # a length or count cut short
        raise MalformedEnvelope("truncated envelope") from exc
    if r.read(1):
        raise MalformedEnvelope("trailing bytes after last field")
    return raw


def _build(engine, rec: _Record, raw: list):
    return rec.make([
        v if f.kind in ("list", "record", "omega") else _CODECS[f.kind][1](engine, v)
        for f, v in zip(rec.fields, raw)
    ])


def _unframe(data: bytes, expect: str) -> Tuple[_Record, bytes]:
    if len(data) < 6 or data[:4] != MAGIC:
        raise MalformedEnvelope("bad magic")
    if data[4] != VERSION:
        raise MalformedEnvelope(f"unsupported version {data[4]}")
    name = _BY_TAG.get(data[5])
    if name is None:
        raise MalformedEnvelope(f"unknown type tag {data[5]}")
    if name != expect:
        raise MalformedEnvelope(f"expected {expect}, found {name}")
    return _TYPES[name], data[6:]


def to_binary(engine, obj) -> bytes:
    rec = _TYPES[_type_name(obj)]
    return MAGIC + bytes([VERSION, rec.tag]) + _pack(engine, rec, obj)


def from_binary(engine, data: bytes, expect: str):
    rec, body = _unframe(data, expect)
    return _build(engine, rec, _split(engine, rec, body))


def signer_key_owner(data: bytes) -> Tuple[bytes, bytes]:
    """Check the framing of a binary signer-key envelope and return its
    (signer_id, ta_fingerprint), leaving the two G1 components undecoded."""
    rec, body = _unframe(data, "signer-key")
    raw = _split(None, rec, body)
    return tuple(_CODECS[f.kind][1](None, v) for f, v in zip(rec.fields[:2], raw))


# ---------------------------------------------------------------------------
# JSON envelope

_JSON_NAMES = {dict: "object", list: "list", str: "string"}


def _expect(node, typ: type, what: str):
    if not isinstance(node, typ):
        raise MalformedEnvelope(f"{what} must be a JSON {_JSON_NAMES[typ]}")
    return node


def member(node, key: str, typ: type, what: str):
    """``node[key]``, where ``node`` must be a JSON object (named ``what`` in
    errors) and the member a ``typ``; otherwise MalformedEnvelope."""
    if key not in _expect(node, dict, what):
        raise MalformedEnvelope(f"{what}: missing field {key!r}")
    if not isinstance(node[key], typ):
        raise MalformedEnvelope(f"{what}: {key!r} must be a JSON {_JSON_NAMES[typ]}")
    return node[key]


def _unhex(s: str) -> bytes:
    try:
        return from_hex(s)
    except ValueError as exc:
        raise MalformedEnvelope(f"bad hex: {exc}") from exc


def _to_json(engine, rec: _Record, obj) -> dict:
    out = {}
    for f, v in zip(rec.fields, rec.values(obj)):
        if f.kind == "record":
            out[f.name] = _to_json(engine, f.item, v)
        elif f.kind == "list":
            out[f.name] = [_to_json(engine, f.item, item) for item in v]
        elif f.kind == "backend":
            out[f.name] = v
        else:
            out[f.name] = _CODECS[f.kind][0](engine, v).hex()
    return out


def _from_json(engine, rec: _Record, node, what: str):
    values = []
    for f in rec.fields:
        if f.kind == "record":
            v = _from_json(engine, f.item, member(node, f.name, dict, what), f.name)
        elif f.kind == "list":
            v = tuple(_from_json(engine, f.item, x, f.name) for x in member(node, f.name, list, what))
        elif f.kind == "backend":
            v = _backend(engine, member(node, f.name, str, what))
        else:
            v = _CODECS[f.kind][1](engine, _unhex(member(node, f.name, str, what)))
        values.append(v)
    return rec.make(values)


def to_json_obj(engine, obj) -> dict:
    name = _type_name(obj)
    return {"format": "MTAO", "version": VERSION, "type": name, "fields": _to_json(engine, _TYPES[name], obj)}


def from_json_obj(engine, doc: dict, expect: str):
    _expect(doc, dict, "envelope")
    if doc.get("format") != "MTAO":
        raise MalformedEnvelope("bad format marker")
    if type(doc.get("version")) is not int or doc["version"] != VERSION:  # not true or 1.0
        raise MalformedEnvelope("unsupported version")
    if doc.get("type") != expect:
        raise MalformedEnvelope(f"expected {expect}, found {doc.get('type')!r}")
    fields = member(doc, "fields", dict, "envelope")
    if expect not in _TYPES:
        raise ValueError(f"unknown envelope type {expect!r}")
    return _from_json(engine, _TYPES[expect], fields, "fields")


# ---------------------------------------------------------------------------
# file helpers (JSON is the CLI interchange format)


def dump_json(s) -> str:
    return json.dumps(s, sort_keys=True, separators=(",", ":"))


def save_json(path, engine, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(to_json_obj(engine, obj)))
        fh.write("\n")


def load_json(path, engine, expect: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        # ValueError covers JSON and UTF-8 decoding; json raises RecursionError on deep nesting
        except (ValueError, RecursionError) as exc:
            raise MalformedEnvelope(f"not valid JSON: {exc}") from exc
    return from_json_obj(engine, doc, expect)
