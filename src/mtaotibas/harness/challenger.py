"""The unforgeability game's challenger, mechanized.

The challenger embeds a computational challenge (A, B) = (g1^a, g2^b) into
its oracle answers and extracts g1^(a*b) from any successful forgery with
the right coin pattern. Coins are biased bits flipped per fresh identity
(delta -> 1), recorded alongside the programmed exponents:

* identity-hash oracle: id_b = g1^alpha_b * A^alpha'_b. Coin 1 draws
  alpha'_b and so folds the challenge in; coin 0 is the alpha'_b = 0 case
  of the same formula and embeds nothing;
* authority-setup oracle: y = base^kappa, an honest key (base g2) on
  coin 0 and a planted one (base B) on coin 1;
* message-hash oracle: when all three coins line up it returns the
  programmed value h = -alpha'_0/alpha'_1, which makes the challenge terms
  cancel in simulated signatures.

Corrupt, extract and sign queries abort exactly on the coin patterns the
challenger cannot answer. Everything is checkable on the mock backend,
where every element is its own discrete log; the production backend can
run the oracles that never need the G2->G1 map, for timing only.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .. import scheme
from ..errors import DegenerateDenominator, ReductionAbort, UnknownCertificate


@dataclass(frozen=True)
class CoCDHInstance:
    """A challenge pair (g1^a, g2^b). The exponents are not kept; on the
    mock backend ``engine.dlog`` reads them back as ground truth."""

    a_elt: object  # G1
    b_elt: object  # G2

    @classmethod
    def random(cls, engine, rng) -> "CoCDHInstance":
        return cls(engine.g1 ** engine.random_scalar(rng), engine.g2 ** engine.random_scalar(rng))


@dataclass
class H0Record:
    identity: bytes
    alpha0: int
    alpha0p: int  # 0 unless coin == 1
    alpha1: int
    alpha1p: int
    id0: object
    id1: object
    coin: int


@dataclass
class TASimRecord:
    record: scheme.TARecord
    kappa_i: int
    coin: int


@dataclass
class H1SimRecord:
    identity: bytes
    message: bytes
    cert_bytes: bytes
    h: int
    coin_prime: int


class Challenger:
    """Answers game queries while embedding a CoCDH instance.

    Single-threaded by design: the oracle lists are order-sensitive state.
    Run independent instances concurrently instead of sharing one.
    """

    def __init__(self, engine, instance: CoCDHInstance, delta: float, rng):
        if not 0.0 <= delta <= 1.0:
            raise ValueError("delta must be a probability")
        self.engine = engine
        self.instance = instance
        self.delta = delta
        self.rng = rng
        self.master, self.params = scheme.root_setup(engine, rng)
        self.h0_list: Dict[bytes, H0Record] = {}
        self.ta_list: Dict[bytes, TASimRecord] = {}
        self.ta_by_cert: Dict[bytes, TASimRecord] = {}
        self.h1_list: Dict[Tuple[bytes, bytes, bytes], H1SimRecord] = {}
        self.counts = {"h0": 0, "h1": 0, "lowerlevel_setup": 0, "corrupt": 0, "extract": 0, "sign": 0}
        self.abort_site: Optional[str] = None
        self.abort_detail = ""
        self.extraction: Optional[object] = None
        # the programmed random oracles, pluggable into the scheme
        self.hashes = scheme.HashSuite(
            identity_point=lambda ident, bit: (self._h0(bytes(ident)).id0, self._h0(bytes(ident)).id1)[bit],
            message_scalar=lambda msg, ident, cert: self._h1(bytes(ident), bytes(msg), bytes(cert)).h,
        )

    # -- plumbing -----------------------------------------------------------

    def _check_alive(self) -> None:
        if self.abort_site is not None:
            raise ReductionAbort(self.abort_site, "challenger already aborted")

    def _abort(self, site: str, detail: str = ""):
        self.abort_site = site
        self.abort_detail = detail
        raise ReductionAbort(site, detail)

    def _flip(self) -> int:
        return 1 if self.rng.random() < self.delta else 0

    # -- memoized internal tables (not counted as adversary queries) --------

    def _h0(self, identity: bytes) -> H0Record:
        rec = self.h0_list.get(identity)
        if rec is not None:
            return rec
        draw = self.engine.random_scalar
        coin = self._flip()
        alpha0, alpha1 = draw(self.rng), draw(self.rng)
        alpha0p, alpha1p = (draw(self.rng), draw(self.rng)) if coin else (0, 0)
        # id_b = g1^alpha_b * A^alpha'_b
        g1, a = self.engine.g1, self.instance.a_elt
        id0 = self.engine.g1_product([(g1, alpha0), (a, alpha0p)])
        id1 = self.engine.g1_product([(g1, alpha1), (a, alpha1p)])
        rec = H0Record(identity, alpha0, alpha0p, alpha1, alpha1p, id0, id1, coin)
        self.h0_list[identity] = rec
        return rec

    def _ta(self, ta_identity: bytes) -> TASimRecord:
        rec = self.ta_list.get(ta_identity)
        if rec is not None:
            return rec
        kappa_i = self.engine.random_scalar(self.rng)
        coin = self._flip()
        y_i = (self.instance.b_elt if coin else self.engine.g2) ** kappa_i
        record = scheme.certify(self.engine, self.master, ta_identity, y_i)
        rec = TASimRecord(record=record, kappa_i=kappa_i, coin=coin)
        self.ta_list[ta_identity] = rec
        self.ta_by_cert[record.cert_bytes(self.engine)] = rec
        return rec

    def _h1(self, identity: bytes, message: bytes, cert_bytes: bytes) -> H1SimRecord:
        key = (identity, message, cert_bytes)
        rec = self.h1_list.get(key)
        if rec is not None:
            return rec
        ta = self.ta_by_cert.get(cert_bytes)
        if ta is None:
            raise UnknownCertificate("certificate does not match any authority-setup query")
        h0 = self._h0(identity)
        coin_prime = self._flip()
        q = self.engine.order
        if ta.coin == 1 and h0.coin == 1 and coin_prime == 1:
            h = (-h0.alpha0p * pow(h0.alpha1p, -1, q)) % q
        else:
            h = self.engine.random_scalar(self.rng)
        rec = H1SimRecord(identity, message, cert_bytes, h, coin_prime)
        self.h1_list[key] = rec
        return rec

    def _key_components(self, h0: H0Record, ta: TASimRecord):
        """(s0, s1) for a signer whose extract did not abort."""
        if ta.coin == 0:
            return h0.id0 ** ta.kappa_i, h0.id1 ** ta.kappa_i
        # y = B^kappa and id_b = g1^alpha_b, so s_b = psi(B^(kappa*alpha_b))
        q = self.engine.order
        return tuple(self.engine.psi(self.instance.b_elt ** (ta.kappa_i * alpha % q))
                     for alpha in (h0.alpha0, h0.alpha1))

    # -- the adversary-facing oracles ---------------------------------------

    def oracle_h0(self, identity: bytes, bit: int):
        self._check_alive()
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        self.counts["h0"] += 1
        rec = self._h0(bytes(identity))
        return rec.id0 if bit == 0 else rec.id1

    def oracle_lowerlevel_setup(self, ta_identity: bytes) -> scheme.TARecord:
        self._check_alive()
        self.counts["lowerlevel_setup"] += 1
        return self._ta(bytes(ta_identity)).record

    def oracle_h1(self, identity: bytes, message: bytes, cert_bytes: bytes) -> int:
        self._check_alive()
        self.counts["h1"] += 1
        return self._h1(bytes(identity), bytes(message), bytes(cert_bytes)).h

    def oracle_corrupt(self, ta_identity: bytes) -> int:
        self._check_alive()
        self.counts["corrupt"] += 1
        rec = self._ta(bytes(ta_identity))
        if rec.coin == 0:
            return rec.kappa_i
        self._abort("corrupt", f"authority {ta_identity!r} carries the planted key")

    def oracle_extract(self, identity: bytes, ta_identity: bytes) -> scheme.SignerKey:
        self._check_alive()
        self.counts["extract"] += 1
        identity = bytes(identity)
        ta = self._ta(bytes(ta_identity))
        h0 = self._h0(identity)
        if h0.coin == 1 and ta.coin == 1:
            self._abort("extract", "both coins planted")
        s0, s1 = self._key_components(h0, ta)
        return scheme.SignerKey(
            signer_id=identity,
            ta_fingerprint=ta.record.fingerprint(self.engine),
            s0=s0,
            s1=s1,
        )

    def oracle_sign(self, identity: bytes, message: bytes, ta_identity: bytes) -> scheme.Signature:
        self._check_alive()
        self.counts["sign"] += 1
        identity, message = bytes(identity), bytes(message)
        ta = self._ta(bytes(ta_identity))
        h0 = self._h0(identity)
        h1 = self._h1(identity, message, ta.record.cert_bytes(self.engine))
        q = self.engine.order
        if h0.coin == 1 and ta.coin == 1:
            if h1.coin_prime == 0:
                self._abort("sign", "coins planted but hash not programmed")
            # programmed h cancels the challenge terms:
            # sigma = psi(B^(kappa*(alpha0 + h*alpha1)))
            exponent = ta.kappa_i * (h0.alpha0 + h1.h * h0.alpha1) % q
            return scheme.Signature(sigma=self.engine.psi(self.instance.b_elt ** exponent))
        s0, s1 = self._key_components(h0, ta)
        return scheme.Signature(sigma=self.engine.g1_product([(s0, 1), (s1, h1.h)]))

    # -- forgery handling ----------------------------------------------------

    def finalize(self, bundle: scheme.AggregateBundle):
        """Process a forgery: verify it under the simulated oracles, demand
        the Sigma-3 coin pattern, then divide out everything the challenger
        knows and take the root that leaves g1^(a*b)."""
        self._check_alive()
        try:
            result = scheme.verify(self.engine, self.params, bundle, hashes=self.hashes)
        except UnknownCertificate:
            self._abort("forgery", "authority never set up")
        if not result:
            self._abort("forgery", f"forgery does not verify: {result.reason}")

        # each authority's known exponent sum_j (alpha0_j + h_j * alpha1_j), and
        # the one planted identity; verify has queried H1 for every signer, so
        # every authority is in ta_by_cert and every table entry exists
        q = self.engine.order
        known = []  # (TASimRecord, int)
        found = None
        for ta_record, signers in bundle.groups:
            cert_b = ta_record.cert_bytes(self.engine)
            ta = self.ta_by_cert[cert_b]
            exponent = 0
            for ident, message in signers:
                h0 = self._h0(ident)
                h1 = self._h1(ident, message, cert_b)
                exponent += h0.alpha0 + h1.h * h0.alpha1
                if h0.coin == 1:
                    if found is not None:
                        self._abort("forgery", "more than one planted identity in forgery")
                    found = (ta, h0, h1)
            known.append((ta, exponent % q))

        if found is None:
            self._abort("forgery", "no planted identity in forgery")
        target_ta, target_h0, target_h1 = found
        if target_ta.coin != 1:
            self._abort("forgery", "target authority not planted")
        if target_h1.coin_prime != 0:
            self._abort("forgery", "target hash was programmed")

        denom_core = (target_h0.alpha0p + target_h1.h * target_h0.alpha1p) % q
        if denom_core == 0:
            raise DegenerateDenominator(
                "alpha'_0 + h * alpha'_1 vanished mod the group order"
            )
        denominator = target_ta.kappa_i * denom_core % q

        candidate = bundle.omega
        for ta, exponent in known:
            candidate = candidate * self.engine.psi(ta.record.y_i) ** (-exponent % q)
        out = candidate ** pow(denominator, -1, q)
        self.extraction = out
        return out

    # -- reporting -----------------------------------------------------------

    def transcript(self) -> dict:
        """JSON-ready dump of counts, coins, programmed exponents and the
        abort/extraction outcome."""
        enc_g1 = self.engine.encode_g1
        return {
            "delta": self.delta,
            "counts": dict(self.counts),
            "abort_site": self.abort_site,
            "abort_detail": self.abort_detail,
            "h0": [
                {
                    "identity": r.identity.hex(),
                    "coin": r.coin,
                    "alpha0": r.alpha0,
                    "alpha0_planted": r.alpha0p,
                    "alpha1": r.alpha1,
                    "alpha1_planted": r.alpha1p,
                }
                for r in self.h0_list.values()
            ],
            "authorities": [
                {
                    "ta_identity": r.record.ta_identity.hex(),
                    "coin": r.coin,
                    "kappa_i": r.kappa_i,
                }
                for r in self.ta_list.values()
            ],
            "h1": [
                {
                    "identity": r.identity.hex(),
                    "message": r.message.hex(),
                    "coin_prime": r.coin_prime,
                    "h": r.h,
                }
                for r in self.h1_list.values()
            ],
            "extraction": enc_g1(self.extraction).hex() if self.extraction is not None else None,
        }
