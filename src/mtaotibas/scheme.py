"""The six-operation signature scheme plus the certificate mechanism.

Identities are opaque byte strings. A signer enrolled at lower-level
authority T_i with secret kappa_i receives the one-time key pair

    s_0 = H0(id, 0)^kappa_i        s_1 = H0(id, 1)^kappa_i

and signs a message m as sigma = s_0 * s_1^h with
h = H1(m, id, cert_bytes(T_i)). Signatures aggregate by multiplication in
G1; verification groups signers by their issuing authority and checks one
pairing equation whose cost is l+1 pairings for l authorities, independent
of the number of signers.

H0 and H1, the two oracles the unforgeability proof programs, go through
a HashSuite: by default the engine's hashes under fixed domain tags, while
``verify`` also takes a simulator's programmed suite. The certificate hash
is always the engine's, as the simulator runs the root itself. Every check
is one equation e(sigma, g2) == prod_i e(P_i, pk_i).
"""

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .encoding import length_prefixed
from .errors import EmptyInput, KeyMismatch

DOMAIN_H0 = b"MTA-OTIBAS-H0"
DOMAIN_H1 = b"MTA-OTIBAS-H1"
DOMAIN_CERT = b"MTA-OTIBAS-CERT"


@dataclass(frozen=True)
class HashSuite:
    """The scheme's two programmable hash oracles.

    identity_point(identity, bit) -> G1        (H0)
    message_scalar(message, identity, cert_bytes) -> int in [1, q-1]  (H1)
    """

    identity_point: Callable[[bytes, int], object]
    message_scalar: Callable[[bytes, bytes, bytes], int]


def engine_hashes(engine) -> HashSuite:
    """Random-oracle instantiation from the engine's hash functions."""
    return HashSuite(
        identity_point=lambda ident, bit: engine.hash_to_g1(DOMAIN_H0, ident + bytes([bit])),
        message_scalar=lambda msg, ident, cert: engine.hash_to_scalar(
            DOMAIN_H1, length_prefixed(msg, ident, cert)
        ),
    )


def _cert_hash(engine, payload: bytes):
    """The G1 point the root signs for a certificate payload."""
    return engine.hash_to_g1(DOMAIN_CERT, payload)


def _equation(engine, sigma, pairs) -> list:
    """The terms of e(sigma, g2) == prod_i e(P_i, pk_i), whose product is 1 iff it holds."""
    return [(sigma.inverse(), engine.g2)] + list(pairs)


@dataclass(frozen=True)
class SystemParams:
    """Public output of root setup: backend id and the master public key."""

    backend: str
    y: object  # G2 element, g2^kappa


@dataclass(frozen=True)
class MasterSecret:
    kappa: int


@dataclass(frozen=True)
class TASecret:
    kappa_i: int


@dataclass(frozen=True)
class TARecord:
    """A lower-level authority: identity, public key, root-signed certificate."""

    ta_identity: bytes
    y_i: object  # G2 element, g2^kappa_i
    cert: object  # G1 element, cert-hash(payload)^kappa

    def cert_bytes(self, engine) -> bytes:
        """Canonical certificate bytes as hashed into every signature."""
        return length_prefixed(
            self.ta_identity, engine.encode_g2(self.y_i), engine.encode_g1(self.cert)
        )

    def fingerprint(self, engine) -> bytes:
        return _fingerprint(self.cert_bytes(engine))


def _fingerprint(cert_b: bytes) -> bytes:
    """The authority fingerprint a signer key carries, from the record's cert_bytes."""
    return hashlib.sha256(b"MTAO-TA" + cert_b).digest()


def cert_payload(engine, ta_identity: bytes, y_i) -> bytes:
    """The bytes the root signs for an authority: its identity framed with
    its public key."""
    return length_prefixed(ta_identity, engine.encode_g2(y_i))


def certify(engine, master: MasterSecret, ta_identity: bytes, y_i) -> TARecord:
    """The authority record the root issues: its certificate is
    cert-hash(payload)^kappa."""
    cert = _cert_hash(engine, cert_payload(engine, ta_identity, y_i)) ** master.kappa
    return TARecord(ta_identity=ta_identity, y_i=y_i, cert=cert)


@dataclass(frozen=True)
class SignerKey:
    """One-time private key: two G1 components bound to (identity, authority)."""

    signer_id: bytes
    ta_fingerprint: bytes
    s0: object
    s1: object


@dataclass(frozen=True)
class Signature:
    sigma: object  # G1 element


@dataclass(frozen=True)
class AggregateBundle:
    """Verification input: signers grouped by issuing authority, plus the
    aggregate. Group boundaries partition the signer list; each signer is an
    (identity, message) pair."""

    groups: Tuple[Tuple[TARecord, Tuple[Tuple[bytes, bytes], ...]], ...]
    omega: object  # G1 element

    @staticmethod
    def build(groups: Sequence[Tuple[TARecord, Sequence[Tuple[bytes, bytes]]]], omega) -> "AggregateBundle":
        frozen = tuple((ta, tuple((bytes(i), bytes(m)) for i, m in signers)) for ta, signers in groups)
        return AggregateBundle(groups=frozen, omega=omega)


@dataclass
class VerifyResult:
    """Outcome of verification with the pairing bill attached."""

    valid: bool
    reason: str = ""
    pairings_main: int = 0
    pairings_certificates: int = 0

    def __bool__(self) -> bool:
        return self.valid


# ---------------------------------------------------------------------------
# Algorithms


def root_setup(engine, rng) -> Tuple[MasterSecret, SystemParams]:
    """Sample the master secret and publish the master public key."""
    kappa = engine.random_scalar(rng)
    return MasterSecret(kappa), SystemParams(backend=engine.backend, y=engine.g2 ** kappa)


def lowerlevel_setup(engine, params: SystemParams, master: MasterSecret, ta_identity: bytes,
                     rng) -> Tuple[TASecret, TARecord]:
    """Enroll a lower-level authority: fresh keypair plus a root-signed
    certificate over (identity, public key)."""
    if not ta_identity:
        raise ValueError("authority identity must be non-empty")
    kappa_i = engine.random_scalar(rng)
    return TASecret(kappa_i), certify(engine, master, bytes(ta_identity), engine.g2 ** kappa_i)


def verify_certificate(engine, params: SystemParams, ta: TARecord) -> bool:
    """Check the root's signature on an authority record:
    e(cert, g2) == e(cert-hash(payload), y)."""
    h = _cert_hash(engine, cert_payload(engine, ta.ta_identity, ta.y_i))
    return engine.multi_pair(_equation(engine, ta.cert, [(h, params.y)])) == engine.identity_gt


def extract(engine, ta_secret: TASecret, ta: TARecord, signer_id: bytes) -> SignerKey:
    """Derive a signer's one-time key from its identity under an authority."""
    if not signer_id:
        raise ValueError("signer identity must be non-empty")
    hashes = engine_hashes(engine)
    id0 = hashes.identity_point(bytes(signer_id), 0)
    id1 = hashes.identity_point(bytes(signer_id), 1)
    return SignerKey(
        signer_id=bytes(signer_id),
        ta_fingerprint=ta.fingerprint(engine),
        s0=id0 ** ta_secret.kappa_i,
        s1=id1 ** ta_secret.kappa_i,
    )


def signature_hash(engine, message: bytes, signer_id: bytes, ta: TARecord) -> int:
    """The per-signature scalar h = H1(message, identity, certificate)."""
    return engine_hashes(engine).message_scalar(bytes(message), bytes(signer_id), ta.cert_bytes(engine))


def sign(engine, key: SignerKey, ta: TARecord, message: bytes) -> Signature:
    """Raw signing: sigma = s0 * s1^h. Deterministic and stateless; the
    one-time discipline lives in the key store wrapper. The record is
    encoded once, for the fingerprint check and for H1."""
    cert_b = ta.cert_bytes(engine)
    if key.ta_fingerprint != _fingerprint(cert_b):
        raise KeyMismatch("key was not issued under this authority record")
    h = engine_hashes(engine).message_scalar(bytes(message), bytes(key.signer_id), cert_b)
    return Signature(sigma=engine.g1_product([(key.s0, 1), (key.s1, h)]))


def aggregate(engine, signatures: Sequence[Signature]):
    """Multiply signatures into the aggregate element. Order-independent."""
    sigs = list(signatures)
    if not sigs:
        raise EmptyInput("nothing to aggregate")
    return engine.g1_product([(s.sigma, 1) for s in sigs])


def verify(engine, params: SystemParams, bundle: AggregateBundle,
           check_certificates: bool = True, hashes: Optional[HashSuite] = None,
           rng=None) -> VerifyResult:
    """Verify an aggregate bundle.

    Three gates, all of which must pass:
      1. no (identity, authority) pair appears twice (one-time semantics);
      2. every authority's certificate verifies under params (skippable for
         pre-validated registries via check_certificates=False);
      3. the aggregate equation
         e(omega, g2) == prod_i e(prod_j id_{j,0} * id_{j,1}^{h_j}, y_i).

    The certificate equations are batched into one product of 2 terms per
    authority, each raised to a fresh random 255-bit weight rho_i drawn after
    the bundle is fixed; the main equation is one product of l+1 terms
    regardless of the signer count, and each authority's inner product is
    one engine.g1_product. Both products go to one engine.first_failing
    call, which on the production backend pays one final exponentiation for
    the pair: the weights keep a failing batch from cancelling a failing
    main equation. A reject pays a second final exponentiation to name the
    failed check. So every signer is hashed and both products are counted
    on every path past the dedupe gate, and pairings_main is l+1 whenever
    anything is paired.
    """
    hashes = hashes or engine_hashes(engine)
    rng = rng or random.SystemRandom()
    if not bundle.groups:
        return VerifyResult(False, reason="empty bundle")
    if any(not signers for _, signers in bundle.groups):
        return VerifyResult(False, reason="empty authority group")

    # one encoding per authority keys the dedupe (its fingerprint hashes the same bytes) and H1
    certs = [ta.cert_bytes(engine) for ta, _ in bundle.groups]
    seen = set()
    for (_, signers), cert_b in zip(bundle.groups, certs):
        for ident, _ in signers:
            if not ident:
                return VerifyResult(False, reason="empty signer identity")
            if (ident, cert_b) in seen:
                return VerifyResult(False, reason="duplicate (identity, authority) pair")
            seen.add((ident, cert_b))

    # every certificate equation raised to a fresh random weight rho_i, so
    # independent failures cannot cancel, among the certificates or against
    # the main equation
    cert_terms = []
    if check_certificates:
        for ta, _ in bundle.groups:
            rho = engine.random_scalar(rng)
            h = _cert_hash(engine, cert_payload(engine, ta.ta_identity, ta.y_i))
            cert_terms += _equation(engine, ta.cert ** rho, [(h ** rho, params.y)])

    inner = []
    for (ta, signers), cert_b in zip(bundle.groups, certs):
        powers = []
        for ident, message in signers:
            h = hashes.message_scalar(message, ident, cert_b)
            powers += [(hashes.identity_point(ident, 0), 1), (hashes.identity_point(ident, 1), h)]
        inner.append((engine.g1_product(powers), ta.y_i))
    terms = _equation(engine, bundle.omega, inner)
    checks = [(cert_terms, "certificate check failed")] if check_certificates else []
    checks.append((terms, "aggregate equation failed"))
    failing = engine.first_failing([product for product, _ in checks])
    return VerifyResult(failing is None, reason="" if failing is None else checks[failing][1],
                        pairings_main=len(terms), pairings_certificates=len(cert_terms))
