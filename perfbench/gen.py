"""Input schedules and the bundle generator for the verify workloads.

Run as a child process so that the measured process never hashes the
identities it later verifies:

    python3 perfbench/gen.py WORKLOAD SEED TINY START COUNT OUT

writes OUT as JSON holding the workload's fixed inputs (the system
parameters and, for verify-fleet, the authority registry and the vehicle
identities) and the JSON envelopes of bundles START..START+COUNT-1. Every
value derives from SEED and the bundle index alone, so any split of an
index range across processes yields the same bundles.

The generator forms each authority's share of an aggregate as
(prod_j H0(id_j, 0) * H0(id_j, 1)^h_j)^kappa_i, which equals the product of
the scheme's signatures by those signers and skips the per-signer key
extraction. The verifier accepting every honest bundle checks it; the
honest-roundtrip workload runs the scheme's own extract, sign and aggregate.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# verify-cold: shapes (n, l) cycle with period 4, every fifth bundle is
# tampered, and tampered bundles cycle through the five fields of
# criterion 3; 20 bundles hold each shape five times and each tamper slot
# once per shape
COLD_SHAPES = ((1, 1), (4, 2), (8, 2), (16, 4))
COLD_SHAPES_TINY = ((1, 1), (2, 1), (2, 2), (4, 2))
TAMPER_EVERY = 5
TAMPER_KINDS = ("message", "identity", "omega", "y_i", "cert")
COLD_CYCLE = len(COLD_SHAPES) * TAMPER_EVERY

# verify-fleet: 4 authorities, vehicle v enrolled at authority v % 4; each
# bundle takes the same number of distinct vehicles from every authority
FLEET_AUTHORITIES = 4
FLEET_VEHICLES = {False: 1024, True: 64}
FLEET_PER_AUTHORITY = {False: 16, True: 4}
FLEET_CYCLE = 4


def cold_schedule(index, tiny):
    """Shape and tamper kind (None for an honest bundle) of a cold bundle."""
    shape = (COLD_SHAPES_TINY if tiny else COLD_SHAPES)[index % len(COLD_SHAPES)]
    kind = None
    if index % TAMPER_EVERY == TAMPER_EVERY - 1:
        kind = TAMPER_KINDS[(index // TAMPER_EVERY) % len(TAMPER_KINDS)]
    return shape, kind


def fleet_shape(tiny):
    return FLEET_AUTHORITIES * FLEET_PER_AUTHORITY[tiny], FLEET_AUTHORITIES


def random_message(rng):
    return rng.getrandbits(160).to_bytes(20, "big")


def _flip_hex_bit(hex_str, rng):
    raw = bytearray(bytes.fromhex(hex_str))
    bit = rng.randrange(len(raw) * 8)
    raw[bit // 8] ^= 1 << (bit % 8)
    return raw.hex()


def tamper(doc, kind, rng):
    """Flip one bit of one field of a bundle envelope, as criterion 3 does."""
    fields = doc["fields"]
    if kind == "omega":
        fields["omega"] = _flip_hex_bit(fields["omega"], rng)
        return
    group = fields["groups"][rng.randrange(len(fields["groups"]))]
    if kind in ("y_i", "cert"):
        group["ta_record"][kind] = _flip_hex_bit(group["ta_record"][kind], rng)
    else:
        signer = group["signers"][rng.randrange(len(group["signers"]))]
        signer[kind] = _flip_hex_bit(signer[kind], rng)


class Generator:
    def __init__(self, workload, seed, tiny):
        from mtaotibas import envelopes, scheme
        from mtaotibas.pairing import get_engine

        self.envelopes, self.scheme = envelopes, scheme
        self.engine = get_engine("production")
        self.hashes = scheme.engine_hashes(self.engine)
        self.workload, self.seed, self.tiny = workload, seed, tiny
        if workload == "verify-cold":
            self.master, self.params = scheme.root_setup(self.engine, random.Random(f"{seed}:cold-root"))
        else:
            rng = random.Random(f"{seed}:fleet")
            self.master, self.params = scheme.root_setup(self.engine, rng)
            self.registry = [
                scheme.lowerlevel_setup(self.engine, self.params, self.master,
                                        f"fleet-ta-{a}-{rng.getrandbits(32):08x}".encode(), rng)
                for a in range(FLEET_AUTHORITIES)
            ]
            self.vehicles = [f"veh-{rng.getrandbits(64):016x}-{v}".encode()
                             for v in range(FLEET_VEHICLES[tiny])]

    def _share(self, secret, record, signers):
        inner = None
        for ident, message in signers:
            h = self.scheme.signature_hash(self.engine, message, ident, record)
            term = self.hashes.identity_point(ident, 0) * self.hashes.identity_point(ident, 1) ** h
            inner = term if inner is None else inner * term
        return inner ** secret.kappa_i

    def _bundle_doc(self, groups):
        """groups: [(ta_secret, ta_record, [(identity, message), ...]), ...]"""
        omega = None
        for secret, record, signers in groups:
            share = self._share(secret, record, signers)
            omega = share if omega is None else omega * share
        bundle = self.scheme.AggregateBundle.build([(rec, signers) for _, rec, signers in groups], omega)
        return self.envelopes.to_json_obj(self.engine, bundle)

    def cold_bundle(self, index):
        (n, l), kind = cold_schedule(index, self.tiny)
        rng = random.Random(f"{self.seed}:cold:{index}")
        groups = []
        for _ in range(l):
            secret, record = self.scheme.lowerlevel_setup(
                self.engine, self.params, self.master, f"ta-{rng.getrandbits(64):016x}".encode(), rng)
            groups.append((secret, record, []))
        for j in range(n):
            groups[j % l][2].append((f"user-{rng.getrandbits(64):016x}".encode(), random_message(rng)))
        doc = self._bundle_doc(groups)
        if kind is not None:
            tamper(doc, kind, rng)
        return doc

    def fleet_bundle(self, index):
        rng = random.Random(f"{self.seed}:fleet:{index}")
        per_authority = FLEET_VEHICLES[self.tiny] // FLEET_AUTHORITIES
        groups = []
        for a, (secret, record) in enumerate(self.registry):
            picks = rng.sample(range(per_authority), FLEET_PER_AUTHORITY[self.tiny])
            signers = [(self.vehicles[FLEET_AUTHORITIES * k + a], random_message(rng)) for k in picks]
            groups.append((secret, record, signers))
        return self._bundle_doc(groups)

    def batch(self, start, count):
        make = self.cold_bundle if self.workload == "verify-cold" else self.fleet_bundle
        doc = {
            "params": self.envelopes.to_json_obj(self.engine, self.params),
            "bundles": [make(i) for i in range(start, start + count)],
        }
        if self.workload == "verify-fleet":
            doc["registry"] = [self.envelopes.to_json_obj(self.engine, rec) for _, rec in self.registry]
            doc["vehicles"] = [v.hex() for v in self.vehicles]
        return doc


def main(argv):
    workload, seed, tiny, start, count, out = argv
    sys.path.insert(0, str(ROOT / "src"))
    doc = Generator(workload, int(seed), tiny == "1").batch(int(start), int(count))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
