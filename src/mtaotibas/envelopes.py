"""Serialized forms for every persistent object.

Two interchangeable envelopes are supported and both round-trip
bit-exactly:

* binary: magic ``MTAO``, version u8, type tag u8, then the object's
  fields in declaration order, each length-prefixed with a u32 big-endian
  length;
* JSON: ``{"format": "MTAO", "version": 1, "type": ..., "fields": ...}``
  with all byte fields as lowercase fixed-width hex.

Decoding validates group elements against the engine (subgroup membership
included), so a successfully decoded object is safe to compute with.
"""

import json
import struct
from typing import List, Tuple

from .errors import InvalidElement, MalformedEnvelope
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

_TYPE_TAGS = {
    "system-params": 1,
    "ta-record": 2,
    "signer-key": 3,
    "signature": 4,
    "aggregate-bundle": 5,
    "master-secret": 6,
    "ta-secret": 7,
}
_TAG_NAMES = {v: k for k, v in _TYPE_TAGS.items()}


def _pack_fields(fields: List[bytes]) -> bytes:
    out = bytearray()
    for f in fields:
        out += struct.pack(">I", len(f))
        out += f
    return bytes(out)


def _unpack_fields(data: bytes, count: int) -> List[bytes]:
    fields = []
    off = 0
    for _ in range(count):
        if off + 4 > len(data):
            raise MalformedEnvelope("truncated field header")
        (n,) = struct.unpack_from(">I", data, off)
        off += 4
        if off + n > len(data):
            raise MalformedEnvelope("truncated field body")
        fields.append(data[off : off + n])
        off += n
    if off != len(data):
        raise MalformedEnvelope("trailing bytes after last field")
    return fields


def _frame(type_name: str, body: bytes) -> bytes:
    return MAGIC + bytes([VERSION, _TYPE_TAGS[type_name]]) + body


def _unframe(data: bytes, expect: str) -> bytes:
    if len(data) < 6 or data[:4] != MAGIC:
        raise MalformedEnvelope("bad magic")
    if data[4] != VERSION:
        raise MalformedEnvelope(f"unsupported version {data[4]}")
    name = _TAG_NAMES.get(data[5])
    if name is None:
        raise MalformedEnvelope(f"unknown type tag {data[5]}")
    if name != expect:
        raise MalformedEnvelope(f"expected {expect}, found {name}")
    return data[6:]


# ---------------------------------------------------------------------------
# per-type field lists


def _params_fields(engine, p: SystemParams) -> List[bytes]:
    return [
        p.backend.encode(),
        engine.encode_g1(engine.g1),
        engine.encode_g2(engine.g2),
        engine.encode_g2(p.y),
    ]


def _params_from_fields(engine, fields: List[bytes]) -> SystemParams:
    backend = fields[0].decode()
    if backend != engine.backend:
        raise MalformedEnvelope(f"params are for backend {backend!r}, engine is {engine.backend!r}")
    if engine.decode_g1(fields[1]) != engine.g1 or engine.decode_g2(fields[2]) != engine.g2:
        raise MalformedEnvelope("generator mismatch")
    return SystemParams(backend=backend, y=engine.decode_g2(fields[3]))


def _ta_fields(engine, t: TARecord) -> List[bytes]:
    return [t.ta_identity, engine.encode_g2(t.y_i), engine.encode_g1(t.cert)]


def _ta_from_fields(engine, fields: List[bytes]) -> TARecord:
    if not fields[0]:
        raise MalformedEnvelope("empty authority identity")
    return TARecord(
        ta_identity=bytes(fields[0]),
        y_i=engine.decode_g2(fields[1]),
        cert=engine.decode_g1(fields[2]),
    )


def _key_fields(engine, k: SignerKey) -> List[bytes]:
    return [k.signer_id, k.ta_fingerprint, engine.encode_g1(k.s0), engine.encode_g1(k.s1)]


def _key_owner(signer_id: bytes, ta_fingerprint: bytes) -> Tuple[bytes, bytes]:
    if not signer_id:
        raise MalformedEnvelope("empty signer identity")
    if len(ta_fingerprint) != 32:
        raise MalformedEnvelope("authority fingerprint must be 32 bytes")
    return bytes(signer_id), bytes(ta_fingerprint)


def _key_from_fields(engine, fields: List[bytes]) -> SignerKey:
    signer_id, ta_fingerprint = _key_owner(fields[0], fields[1])
    return SignerKey(
        signer_id=signer_id,
        ta_fingerprint=ta_fingerprint,
        s0=engine.decode_g1(fields[2]),
        s1=engine.decode_g1(fields[3]),
    )


def signer_key_owner(data: bytes) -> Tuple[bytes, bytes]:
    """Check the framing of a binary signer-key envelope and return its
    (signer_id, ta_fingerprint), leaving the two G1 components undecoded."""
    return _key_owner(*_unpack_fields(_unframe(data, "signer-key"), 4)[:2])


def _sig_fields(engine, s: Signature) -> List[bytes]:
    return [engine.encode_g1(s.sigma)]


def _sig_from_fields(engine, fields: List[bytes]) -> Signature:
    return Signature(sigma=engine.decode_g1(fields[0]))


def _bundle_body(engine, b: AggregateBundle) -> bytes:
    out = bytearray(struct.pack(">I", len(b.groups)))
    for ta, signers in b.groups:
        ta_bytes = _pack_fields(_ta_fields(engine, ta))
        out += struct.pack(">I", len(ta_bytes))
        out += ta_bytes
        out += struct.pack(">I", len(signers))
        for ident, message in signers:
            out += _pack_fields([ident, message])
    out += engine.encode_g1(b.omega)
    return bytes(out)


def _bundle_from_body(engine, data: bytes) -> AggregateBundle:
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(data):
            raise MalformedEnvelope("truncated bundle")
        chunk = data[off : off + n]
        off += n
        return chunk

    def take_u32():
        return struct.unpack(">I", take(4))[0]

    n_groups = take_u32()
    if n_groups > 65536:
        raise MalformedEnvelope("implausible group count")
    groups = []
    for _ in range(n_groups):
        ta = _ta_from_fields(engine, _unpack_fields(take(take_u32()), 3))
        n_signers = take_u32()
        if n_signers > 1 << 20:
            raise MalformedEnvelope("implausible signer count")
        signers = []
        for _ in range(n_signers):
            ident_len = take_u32()
            ident = take(ident_len)
            msg_len = take_u32()
            message = take(msg_len)
            signers.append((bytes(ident), bytes(message)))
        groups.append((ta, tuple(signers)))
    omega = engine.decode_g1(take(engine.g1_bytes))
    if off != len(data):
        raise MalformedEnvelope("trailing bytes after bundle")
    return AggregateBundle(groups=tuple(groups), omega=omega)


# ---------------------------------------------------------------------------
# public binary API


def to_binary(engine, obj) -> bytes:
    if isinstance(obj, SystemParams):
        return _frame("system-params", _pack_fields(_params_fields(engine, obj)))
    if isinstance(obj, MasterSecret):
        return _frame("master-secret", _pack_fields([engine.encode_scalar(obj.kappa)]))
    if isinstance(obj, TASecret):
        return _frame("ta-secret", _pack_fields([engine.encode_scalar(obj.kappa_i)]))
    if isinstance(obj, TARecord):
        return _frame("ta-record", _pack_fields(_ta_fields(engine, obj)))
    if isinstance(obj, SignerKey):
        return _frame("signer-key", _pack_fields(_key_fields(engine, obj)))
    if isinstance(obj, Signature):
        return _frame("signature", _pack_fields(_sig_fields(engine, obj)))
    if isinstance(obj, AggregateBundle):
        return _frame("aggregate-bundle", _bundle_body(engine, obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_binary(engine, data: bytes, expect: str):
    body = _unframe(data, expect)
    try:
        if expect == "system-params":
            return _params_from_fields(engine, _unpack_fields(body, 4))
        if expect == "master-secret":
            return MasterSecret(engine.decode_scalar(_unpack_fields(body, 1)[0]))
        if expect == "ta-secret":
            return TASecret(engine.decode_scalar(_unpack_fields(body, 1)[0]))
        if expect == "ta-record":
            return _ta_from_fields(engine, _unpack_fields(body, 3))
        if expect == "signer-key":
            return _key_from_fields(engine, _unpack_fields(body, 4))
        if expect == "signature":
            return _sig_from_fields(engine, _unpack_fields(body, 1))
        if expect == "aggregate-bundle":
            return _bundle_from_body(engine, body)
    except struct.error as exc:
        raise MalformedEnvelope(str(exc)) from exc
    raise ValueError(f"unknown envelope type {expect!r}")


# ---------------------------------------------------------------------------
# JSON envelope


def _hex(b: bytes) -> str:
    return b.hex()


def to_json_obj(engine, obj) -> dict:
    if isinstance(obj, SystemParams):
        type_name, fields = "system-params", {
            "backend": obj.backend,
            "g1": _hex(engine.encode_g1(engine.g1)),
            "g2": _hex(engine.encode_g2(engine.g2)),
            "y": _hex(engine.encode_g2(obj.y)),
        }
    elif isinstance(obj, MasterSecret):
        type_name, fields = "master-secret", {"kappa": _hex(engine.encode_scalar(obj.kappa))}
    elif isinstance(obj, TASecret):
        type_name, fields = "ta-secret", {"kappa_i": _hex(engine.encode_scalar(obj.kappa_i))}
    elif isinstance(obj, TARecord):
        type_name, fields = "ta-record", {
            "ta_identity": _hex(obj.ta_identity),
            "y_i": _hex(engine.encode_g2(obj.y_i)),
            "cert": _hex(engine.encode_g1(obj.cert)),
        }
    elif isinstance(obj, SignerKey):
        type_name, fields = "signer-key", {
            "signer_id": _hex(obj.signer_id),
            "ta_fingerprint": _hex(obj.ta_fingerprint),
            "s0": _hex(engine.encode_g1(obj.s0)),
            "s1": _hex(engine.encode_g1(obj.s1)),
        }
    elif isinstance(obj, Signature):
        type_name, fields = "signature", {"sigma": _hex(engine.encode_g1(obj.sigma))}
    elif isinstance(obj, AggregateBundle):
        type_name = "aggregate-bundle"
        fields = {
            "groups": [
                {
                    "ta_record": to_json_obj(engine, ta)["fields"],
                    "signers": [
                        {"identity": _hex(i), "message": _hex(m)} for i, m in signers
                    ],
                }
                for ta, signers in obj.groups
            ],
            "omega": _hex(engine.encode_g1(obj.omega)),
        }
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return {"format": "MTAO", "version": VERSION, "type": type_name, "fields": fields}


def _require(d: dict, key: str):
    if key not in d:
        raise MalformedEnvelope(f"missing field {key!r}")
    return d[key]


def _unhex(s) -> bytes:
    if not isinstance(s, str):
        raise MalformedEnvelope("hex field must be a string")
    try:
        return bytes.fromhex(s)
    except ValueError as exc:
        raise MalformedEnvelope(f"bad hex: {exc}") from exc


def from_json_obj(engine, doc: dict, expect: str):
    if not isinstance(doc, dict):
        raise MalformedEnvelope("envelope must be a JSON object")
    if doc.get("format") != "MTAO":
        raise MalformedEnvelope("bad format marker")
    if doc.get("version") != VERSION:
        raise MalformedEnvelope("unsupported version")
    if doc.get("type") != expect:
        raise MalformedEnvelope(f"expected {expect}, found {doc.get('type')!r}")
    f = _require(doc, "fields")
    if expect == "system-params":
        backend = _require(f, "backend")
        if backend != engine.backend:
            raise MalformedEnvelope(f"params are for backend {backend!r}, engine is {engine.backend!r}")
        if engine.decode_g1(_unhex(_require(f, "g1"))) != engine.g1:
            raise MalformedEnvelope("generator mismatch")
        if engine.decode_g2(_unhex(_require(f, "g2"))) != engine.g2:
            raise MalformedEnvelope("generator mismatch")
        return SystemParams(backend=backend, y=engine.decode_g2(_unhex(_require(f, "y"))))
    if expect == "master-secret":
        return MasterSecret(engine.decode_scalar(_unhex(_require(f, "kappa"))))
    if expect == "ta-secret":
        return TASecret(engine.decode_scalar(_unhex(_require(f, "kappa_i"))))
    if expect == "ta-record":
        return _ta_json(engine, f)
    if expect == "signer-key":
        ident, fp = _key_owner(
            _unhex(_require(f, "signer_id")), _unhex(_require(f, "ta_fingerprint"))
        )
        return SignerKey(
            signer_id=ident,
            ta_fingerprint=fp,
            s0=engine.decode_g1(_unhex(_require(f, "s0"))),
            s1=engine.decode_g1(_unhex(_require(f, "s1"))),
        )
    if expect == "signature":
        return Signature(sigma=engine.decode_g1(_unhex(_require(f, "sigma"))))
    if expect == "aggregate-bundle":
        groups = []
        raw_groups = _require(f, "groups")
        if not isinstance(raw_groups, list):
            raise MalformedEnvelope("groups must be a list")
        for g in raw_groups:
            ta = _ta_json(engine, _require(g, "ta_record"))
            signers = []
            for s in _require(g, "signers"):
                signers.append((_unhex(_require(s, "identity")), _unhex(_require(s, "message"))))
            groups.append((ta, tuple(signers)))
        return AggregateBundle(groups=tuple(groups), omega=engine.decode_g1(_unhex(_require(f, "omega"))))
    raise ValueError(f"unknown envelope type {expect!r}")


def _ta_json(engine, f: dict) -> TARecord:
    ident = _unhex(_require(f, "ta_identity"))
    if not ident:
        raise MalformedEnvelope("empty authority identity")
    return TARecord(
        ta_identity=ident,
        y_i=engine.decode_g2(_unhex(_require(f, "y_i"))),
        cert=engine.decode_g1(_unhex(_require(f, "cert"))),
    )


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
        except json.JSONDecodeError as exc:
            raise MalformedEnvelope(f"not valid JSON: {exc}") from exc
    return from_json_obj(engine, doc, expect)
