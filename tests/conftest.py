import random
from typing import Optional

import pytest

from mtaotibas.encoding import length_prefixed
from mtaotibas import scheme
from mtaotibas.pairing import bls12381, get_engine
from mtaotibas.pairing.mock import MockEngine
from mtaotibas.scheme import DOMAIN_CERT, DOMAIN_H0, DOMAIN_H1

# The pinned mock scenario: three signers across two authorities with
# hand-checkable arithmetic mod 1009. All expected values below were
# recomputed from the mock group law (elements are their own discrete
# logs): s = kappa_i * id, sigma = s0 + h * s1, omega = sum(sigma).
FIXED = {
    "master_kappa": 7,
    "ta": {
        b"TA-1": {"kappa": 11, "cert_hash": 9, "cert": 63},  # 9 * 7
        b"TA-2": {"kappa": 13, "cert_hash": 10, "cert": 70},  # 10 * 7
    },
    "signers": [
        # (identity, ta, (id0, id1), message, h, sigma)
        (b"ID-A", b"TA-1", (3, 5), b"message-1", 4, 253),  # 33 + 4*55
        (b"ID-B", b"TA-1", (2, 6), b"message-2", 9, 616),  # 22 + 9*66
        (b"ID-C", b"TA-2", (4, 8), b"message-3", 2, 260),  # 52 + 2*104
    ],
    "omega_first_two": 869,
    "omega_all": 120,  # 1129 mod 1009
}

# seeds whose first randrange(1, 1009) draw is the wanted secret
SEED_ROOT = 336  # -> kappa 7
SEED_TA1 = 3930  # -> kappa 11
SEED_TA2 = 31  # -> kappa 13


def _enc2(v: int) -> bytes:
    return v.to_bytes(2, "big")


def fixed_mock_table() -> dict:
    table = {}
    for ident, _, (id0, id1), _, _, _ in FIXED["signers"]:
        table[("hash_to_g1", DOMAIN_H0, ident + b"\x00")] = id0
        table[("hash_to_g1", DOMAIN_H0, ident + b"\x01")] = id1
    for ta_id, info in FIXED["ta"].items():
        payload = length_prefixed(ta_id, _enc2(info["kappa"]))  # y_i = kappa_i * g2
        table[("hash_to_g1", DOMAIN_CERT, payload)] = info["cert_hash"]
    for ident, ta_id, _, message, h, _ in FIXED["signers"]:
        info = FIXED["ta"][ta_id]
        cert_bytes = length_prefixed(ta_id, _enc2(info["kappa"]), _enc2(info["cert"]))
        table[("hash_to_scalar", DOMAIN_H1, length_prefixed(message, ident, cert_bytes))] = h
    return table


class ScriptedRng:
    """Returns a fixed sequence of scalar draws."""

    def __init__(self, *values):
        self._values = list(values)

    def randrange(self, *args):
        return self._values.pop(0)

    def random(self):  # pragma: no cover - only scalar draws are scripted
        raise AssertionError("unexpected random() call")


@pytest.fixture
def mock_engine():
    return MockEngine()


@pytest.fixture
def pinned_engine():
    return MockEngine(table=fixed_mock_table())


@pytest.fixture(scope="session")
def bls_engine():
    return get_engine("production")


@pytest.fixture
def fixed_scenario(pinned_engine):
    """The full pinned scenario, built through the scheme API."""
    eng = pinned_engine
    master, params = scheme.root_setup(eng, ScriptedRng(FIXED["master_kappa"]))
    tas = {}
    for ta_id, info in FIXED["ta"].items():
        tsec, trec = scheme.lowerlevel_setup(
            eng, params, master, ta_id, ScriptedRng(info["kappa"])
        )
        tas[ta_id] = (tsec, trec)
    keys, signatures, by_ta = {}, [], {}
    for ident, ta_id, _, message, _, _ in FIXED["signers"]:
        tsec, trec = tas[ta_id]
        key = scheme.extract(eng, tsec, trec, ident)
        keys[ident] = key
        signatures.append(scheme.sign(eng, key, trec, message))
        by_ta.setdefault(ta_id, []).append((ident, message))
    groups = [(tas[ta_id][1], members) for ta_id, members in by_ta.items()]
    bundle = scheme.AggregateBundle.build(groups, scheme.aggregate(eng, signatures))
    return {
        "engine": eng,
        "master": master,
        "params": params,
        "tas": tas,
        "keys": keys,
        "signatures": signatures,
        "bundle": bundle,
    }


CLI_MOCK_ARGS = ["--backend", "mock", "--insecure-mock", "--mock-table", "vectors.txt"]

# the aggregation layout of the pinned scenario, as prepare_cli_dir writes it
CLI_LAYOUT = {
    "groups": [
        {"ta_record": "ta1.json", "signers": [
            {"signer_id": "ID-A", "message_file": "m1.bin"},
            {"signer_id": "ID-B", "message_file": "m2.bin"},
        ]},
        {"ta_record": "ta2.json", "signers": [
            {"signer_id": "ID-C", "message_file": "m3.bin"},
        ]},
    ]
}


def prepare_cli_dir(tmp_path):
    """Drop the pinned vector table, message files and aggregation layout
    into a working directory for CLI runs."""
    import json
    import shutil
    from pathlib import Path

    data = Path(__file__).parent / "data"
    shutil.copy(data / "mock_vectors.txt", tmp_path / "vectors.txt")
    for i in (1, 2, 3):
        (tmp_path / f"m{i}.bin").write_bytes(f"message-{i}".encode())
    (tmp_path / "layout.json").write_text(json.dumps(CLI_LAYOUT))


def cli_lifecycle_steps():
    """The pinned scenario as (name, argv) pairs, relative to a prepared
    directory."""
    m = CLI_MOCK_ARGS
    return [
        ("root-setup", m + ["--seed", str(SEED_ROOT), "root-setup",
                            "--out-params", "params.json", "--out-master", "master.json"]),
        ("ta-enroll-1", m + ["--seed", str(SEED_TA1), "ta-enroll", "--params", "params.json",
                             "--master", "master.json", "--ta-id", "TA-1",
                             "--out-record", "ta1.json", "--out-secret", "ta1-secret.json"]),
        ("ta-enroll-2", m + ["--seed", str(SEED_TA2), "ta-enroll", "--params", "params.json",
                             "--master", "master.json", "--ta-id", "TA-2",
                             "--out-record", "ta2.json", "--out-secret", "ta2-secret.json"]),
        ("extract-a", m + ["extract", "--ta-secret", "ta1-secret.json", "--ta-record", "ta1.json",
                           "--signer-id", "ID-A", "--store", "keys.journal"]),
        ("extract-b", m + ["extract", "--ta-secret", "ta1-secret.json", "--ta-record", "ta1.json",
                           "--signer-id", "ID-B", "--store", "keys.journal"]),
        ("extract-c", m + ["extract", "--ta-secret", "ta2-secret.json", "--ta-record", "ta2.json",
                           "--signer-id", "ID-C", "--store", "keys.journal"]),
        ("sign-1", m + ["sign", "--store", "keys.journal", "--entry-id", "1",
                        "--ta-record", "ta1.json", "--message-file", "m1.bin", "--out", "s1.json"]),
        ("sign-2", m + ["sign", "--store", "keys.journal", "--entry-id", "2",
                        "--ta-record", "ta1.json", "--message-file", "m2.bin", "--out", "s2.json"]),
        ("sign-3", m + ["sign", "--store", "keys.journal", "--entry-id", "3",
                        "--ta-record", "ta2.json", "--message-file", "m3.bin", "--out", "s3.json"]),
        ("aggregate", m + ["aggregate", "--layout", "layout.json", "--out", "bundle.json",
                           "s1.json", "s2.json", "s3.json"]),
        ("verify", m + ["verify", "--params", "params.json", "--bundle", "bundle.json"]),
    ]


_LADDERS = {  # (double, mixed add, identity) per coordinate field
    int: (bls12381._j_double, bls12381._j_add_affine, (0, 1, 0)),
    tuple: (bls12381._j2_double, bls12381._j2_add_affine,
            (bls12381._FQ2_ZERO, bls12381._FQ2_ONE, bls12381._FQ2_ZERO)),
}


def ladder_mul(pt, k):
    """[k]P in Jacobian coordinates by the plain double-and-add ladder, k >= 1
    used as given, for an affine point of E (Fq coordinates) or of the twist
    E' (Fq2 coordinates): the reference the fast paths are checked against."""
    double, add_affine, zero = _LADDERS[type(pt[0])]
    return bls12381._ladder(double, add_affine, zero, pt, k)


def in_subgroup_by_ladder(pt) -> bool:
    """The reference membership test: [r]P, with r unreduced, is the identity."""
    return pt is None or ladder_mul(pt, bls12381.ORDER)[2] in (0, bls12381._FQ2_ZERO)


def off_subgroup_g1_point():
    """A BLS12-381 point on the curve but outside the r-subgroup: walk x until
    a curve point fails the reference test."""
    x = 1
    while True:
        y = bls12381._fq_sqrt((x * x * x + 4) % bls12381.PRIME)
        if y is not None and not in_subgroup_by_ladder((x, y)):
            return (x, y)
        x += 1


def off_subgroup_g2_point():
    """A point of the twist E' outside the r-subgroup, by the same walk over
    x = (k, 0)."""
    k = 1
    while True:
        x = (k, 0)
        y = bls12381._fq2_sqrt(bls12381.fq2_add(bls12381.fq2_mul(bls12381.fq2_sqr(x), x), bls12381._B2))
        if y is not None and not in_subgroup_by_ladder((x, y)):
            return (x, y)
        k += 1


def random_honest_bundle(engine, rng, n, l):
    """An honest run: fresh root, l authorities, n signers, random
    identities and messages. Returns (params, bundle)."""
    master, params = scheme.root_setup(engine, rng)
    tas = [
        scheme.lowerlevel_setup(engine, params, master, f"ta-{rng.randrange(1 << 28)}".encode(), rng)
        for _ in range(l)
    ]
    groups = {}
    signatures = []
    for i in range(n):
        tsec, trec = tas[i % l]
        ident = f"user-{rng.randrange(1 << 28)}-{i}".encode()
        message = rng.getrandbits(160).to_bytes(20, "big")
        key = scheme.extract(engine, tsec, trec, ident)
        signatures.append(scheme.sign(engine, key, trec, message))
        groups.setdefault(i % l, (trec, []))[1].append((ident, message))
    bundle = scheme.AggregateBundle.build(
        [groups[k] for k in sorted(groups)], scheme.aggregate(engine, signatures)
    )
    return params, bundle


def key_is_well_formed(engine, key: scheme.SignerKey, ta: scheme.TARecord,
                       hashes: Optional[scheme.HashSuite] = None) -> bool:
    """Public check that both key components fit the authority's public key:
    e(s_b, g2) == e(H0(id, b), y_i), for b = 0 and then b = 1."""
    hashes = hashes or scheme.engine_hashes(engine)
    for bit, s in ((0, key.s0), (1, key.s1)):
        terms = scheme._equation(engine, s, [(hashes.identity_point(key.signer_id, bit), ta.y_i)])
        if engine.first_failing([terms]) is not None:
            return False
    return True
