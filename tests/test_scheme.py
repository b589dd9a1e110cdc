import hashlib
import json
import random
from dataclasses import replace

import pytest

from mtaotibas import scheme
from mtaotibas.errors import EmptyInput, KeyMismatch
from mtaotibas.pairing.mock import MOCK_MODULUS, MockEngine

from conftest import FIXED, ScriptedRng, key_is_well_formed, random_honest_bundle

Q = MOCK_MODULUS


def test_root_setup_known_answer(pinned_engine):
    master, params = scheme.root_setup(pinned_engine, ScriptedRng(7))
    assert master.kappa == 7
    assert pinned_engine.dlog(params.y) == 7


def test_root_setup_deterministic_under_seed(mock_engine):
    m1, p1 = scheme.root_setup(mock_engine, random.Random(99))
    m2, p2 = scheme.root_setup(mock_engine, random.Random(99))
    assert m1 == m2 and p1.y == p2.y


def test_root_setup_kappa_never_zero(mock_engine):
    for seed in range(100_000):
        master, _ = scheme.root_setup(mock_engine, random.Random(seed))
        assert master.kappa != 0


def test_lowerlevel_setup_known_answer(fixed_scenario):
    eng = fixed_scenario["engine"]
    _, trec = fixed_scenario["tas"][b"TA-1"]
    assert eng.dlog(trec.y_i) == 11
    assert eng.dlog(trec.cert) == 63  # cert-hash 9 times master 7


def test_certificate_round_trip(fixed_scenario):
    eng = fixed_scenario["engine"]
    params = fixed_scenario["params"]
    for _, trec in fixed_scenario["tas"].values():
        assert scheme.verify_certificate(eng, params, trec)


def test_certificate_pairing_values(fixed_scenario):
    # pair(cert, g2) = 63 = pair(cert-hash, y) = 9*7
    eng = fixed_scenario["engine"]
    _, trec = fixed_scenario["tas"][b"TA-1"]
    assert eng.dlog(eng.pair(trec.cert, eng.g2)) == 63
    assert eng.dlog(eng.pair(eng.hash_to_g1(scheme.DOMAIN_CERT, scheme.cert_payload(eng, trec.ta_identity, trec.y_i)), fixed_scenario["params"].y)) == 63


def test_certificate_tamper_exhaustive(fixed_scenario):
    eng = fixed_scenario["engine"]
    params = fixed_scenario["params"]
    _, trec = fixed_scenario["tas"][b"TA-1"]
    good = eng.dlog(trec.cert)
    for other in range(Q):
        if other == good:
            continue
        forged = scheme.TARecord(trec.ta_identity, trec.y_i, eng.g1 ** other)
        assert not scheme.verify_certificate(eng, params, forged)


def _checked(engine, check, *args):
    """The check's answer and the pairing terms it spent."""
    before = engine.pairing_count
    answer = check(engine, *args)
    return answer, engine.pairing_count - before


@pytest.mark.parametrize("bit", [0, 1])
def test_key_component_tamper_exhaustive(fixed_scenario, bit):
    # a wrong s0 fails the first equation (2 terms); a wrong s1 the second (4)
    eng = fixed_scenario["engine"]
    _, trec = fixed_scenario["tas"][b"TA-1"]
    key = fixed_scenario["keys"][b"ID-A"]
    field = f"s{bit}"
    good = eng.dlog(getattr(key, field))
    for other in range(Q):
        if other == good:
            continue
        forged = replace(key, **{field: eng.g1 ** other})
        assert _checked(eng, key_is_well_formed, forged, trec) == (False, 2 + 2 * bit), other


def test_check_pairing_costs_mock(fixed_scenario):
    eng = fixed_scenario["engine"]
    params = fixed_scenario["params"]
    _, trec = fixed_scenario["tas"][b"TA-1"]
    key = fixed_scenario["keys"][b"ID-A"]
    assert _checked(eng, scheme.verify_certificate, params, trec) == (True, 2)
    assert _checked(eng, scheme.verify_certificate, params, replace(trec, cert=trec.cert * eng.g1)) == (False, 2)
    assert _checked(eng, key_is_well_formed, key, trec) == (True, 4)


@pytest.fixture(scope="module")
def bls_authorities(bls_engine):
    """Two production roots; the first enrolls two authorities, and each
    authority extracts a key for the same signer identity."""
    e = bls_engine
    rng = random.Random(0xCE47)
    master, params = scheme.root_setup(e, rng)
    _, other_params = scheme.root_setup(e, rng)
    records, keys = [], []
    for tag in (b"TA-P", b"TA-Q"):
        tsec, trec = scheme.lowerlevel_setup(e, params, master, tag, rng)
        records.append(trec)
        keys.append(scheme.extract(e, tsec, trec, b"ID-P"))
    return params, other_params, records, keys


def test_certificate_checks_production(bls_engine, bls_authorities):
    e = bls_engine
    params, other_params, (ta_p, ta_q), _ = bls_authorities
    cases = [
        ("honest", params, ta_p, True),
        ("another root's params", other_params, ta_p, False),
        ("tampered cert", params, replace(ta_p, cert=ta_p.cert * e.g1), False),
        ("another authority's cert", params, replace(ta_p, cert=ta_q.cert), False),
    ]
    for name, p, ta, answer in cases:
        assert _checked(e, scheme.verify_certificate, p, ta) == (answer, 2), name


def test_key_checks_production(bls_engine, bls_authorities):
    e = bls_engine
    _, _, (ta_p, ta_q), (key_p, key_q) = bls_authorities
    cases = [
        ("honest", key_p, ta_p, True, 4),
        ("another authority's record", key_p, ta_q, False, 2),
        ("s0 and s1 swapped", replace(key_p, s0=key_p.s1, s1=key_p.s0), ta_p, False, 2),
        ("s1 from another authority", replace(key_p, s1=key_q.s1), ta_p, False, 4),
    ]
    for name, key, ta, answer, spent in cases:
        assert _checked(e, key_is_well_formed, key, ta) == (answer, spent), name


def test_two_tas_same_identity_different_certs(mock_engine):
    eng = mock_engine
    master, params = scheme.root_setup(eng, ScriptedRng(7))
    _, rec1 = scheme.lowerlevel_setup(eng, params, master, b"TA-X", ScriptedRng(11))
    _, rec2 = scheme.lowerlevel_setup(eng, params, master, b"TA-X", ScriptedRng(13))
    # payload includes y_i, so different keys yield different certificates
    assert (scheme.cert_payload(eng, rec1.ta_identity, rec1.y_i)
            != scheme.cert_payload(eng, rec2.ta_identity, rec2.y_i))
    assert rec1.cert != rec2.cert


def test_extract_known_answer(fixed_scenario):
    eng = fixed_scenario["engine"]
    key = fixed_scenario["keys"][b"ID-A"]
    assert eng.dlog(key.s0) == 33  # 3 * 11
    assert eng.dlog(key.s1) == 55  # 5 * 11


def test_extract_key_well_formed(fixed_scenario):
    eng = fixed_scenario["engine"]
    for ident, ta_id, _, _, _, _ in FIXED["signers"]:
        _, trec = fixed_scenario["tas"][ta_id]
        assert key_is_well_formed(eng, fixed_scenario["keys"][ident], trec)


def test_extract_distinct_tas_distinct_keys(fixed_scenario):
    eng = fixed_scenario["engine"]
    tsec1, trec1 = fixed_scenario["tas"][b"TA-1"]
    tsec2, trec2 = fixed_scenario["tas"][b"TA-2"]
    k1 = scheme.extract(eng, tsec1, trec1, b"ID-A")
    k2 = scheme.extract(eng, tsec2, trec2, b"ID-A")
    assert (k1.s0, k1.s1) != (k2.s0, k2.s1)
    assert k1.ta_fingerprint != k2.ta_fingerprint


def test_extract_rejects_empty_identity(fixed_scenario):
    tsec, trec = fixed_scenario["tas"][b"TA-1"]
    with pytest.raises(ValueError):
        scheme.extract(fixed_scenario["engine"], tsec, trec, b"")


def test_sign_known_answers(fixed_scenario):
    eng = fixed_scenario["engine"]
    for (ident, ta_id, _, message, h, sigma), got in zip(FIXED["signers"], fixed_scenario["signatures"]):
        assert eng.dlog(got.sigma) == sigma
        _, trec = fixed_scenario["tas"][ta_id]
        assert scheme.signature_hash(eng, message, ident, trec) == h


def test_sign_deterministic(fixed_scenario):
    eng = fixed_scenario["engine"]
    key = fixed_scenario["keys"][b"ID-A"]
    _, trec = fixed_scenario["tas"][b"TA-1"]
    one = scheme.sign(eng, key, trec, b"message-1")
    two = scheme.sign(eng, key, trec, b"message-1")
    assert one == two


def test_sign_key_mismatch(fixed_scenario):
    eng = fixed_scenario["engine"]
    key = fixed_scenario["keys"][b"ID-A"]  # issued by TA-1
    _, trec2 = fixed_scenario["tas"][b"TA-2"]
    with pytest.raises(KeyMismatch):
        scheme.sign(eng, key, trec2, b"message-1")


def test_single_signer_verify_known_answer(fixed_scenario):
    # LHS pair(253, 1) = 253; RHS pair(3 + 4*5, 11) = 23*11 = 253
    eng = fixed_scenario["engine"]
    _, trec = fixed_scenario["tas"][b"TA-1"]
    sig = fixed_scenario["signatures"][0]
    bundle = scheme.AggregateBundle.build([(trec, [(b"ID-A", b"message-1")])], sig.sigma)
    assert scheme.verify(eng, fixed_scenario["params"], bundle)


def test_aggregate_known_answers(fixed_scenario):
    eng = fixed_scenario["engine"]
    sigs = fixed_scenario["signatures"]
    assert eng.dlog(scheme.aggregate(eng, sigs[:1])) == FIXED["signers"][0][5]
    assert eng.dlog(scheme.aggregate(eng, sigs[:2])) == FIXED["omega_first_two"]
    assert eng.dlog(scheme.aggregate(eng, sigs)) == FIXED["omega_all"]
    # order independence
    assert scheme.aggregate(eng, list(reversed(sigs))) == scheme.aggregate(eng, sigs)


def test_aggregate_empty_rejected(mock_engine):
    with pytest.raises(EmptyInput):
        scheme.aggregate(mock_engine, [])


def test_fixed_bundle_verifies_with_budget(fixed_scenario):
    eng = fixed_scenario["engine"]
    bundle = fixed_scenario["bundle"]
    assert eng.dlog(bundle.omega) == FIXED["omega_all"]
    before = eng.pairing_count
    result = scheme.verify(eng, fixed_scenario["params"], bundle)
    spent = eng.pairing_count - before
    assert result
    l = len(bundle.groups)
    assert result.pairings_main == l + 1
    assert result.pairings_certificates == 2 * l
    assert spent == result.pairings_main + result.pairings_certificates


def test_verify_flipped_message_fails(fixed_scenario):
    eng = fixed_scenario["engine"]
    bundle = fixed_scenario["bundle"]
    (ta1, signers1), rest = bundle.groups[0], bundle.groups[1:]
    tampered = ((ta1, ((signers1[0][0], b"Message-1"),) + signers1[1:]),) + rest
    bad = scheme.AggregateBundle(groups=tampered, omega=bundle.omega)
    assert not scheme.verify(eng, fixed_scenario["params"], bad)


def test_verify_swapped_groups_fails(fixed_scenario):
    # same multiset of identities and messages, but a signer moved across
    # the authority boundary pairs with the wrong y_i
    eng = fixed_scenario["engine"]
    bundle = fixed_scenario["bundle"]
    (ta1, s1), (ta2, s2) = bundle.groups
    swapped = ((ta1, (s1[0], s2[0])), (ta2, (s1[1],)))
    bad = scheme.AggregateBundle(groups=swapped, omega=bundle.omega)
    assert not scheme.verify(eng, fixed_scenario["params"], bad)


def test_verify_rejects_duplicate_pair(fixed_scenario):
    eng = fixed_scenario["engine"]
    bundle = fixed_scenario["bundle"]
    (ta1, s1), rest = bundle.groups[0], bundle.groups[1:]
    dup = ((ta1, s1 + (s1[0],)),) + rest
    bad = scheme.AggregateBundle(groups=dup, omega=bundle.omega)
    result = scheme.verify(eng, fixed_scenario["params"], bad)
    assert not result and "duplicate" in result.reason


def _no_groups(groups):
    return ()


def _empty_group(groups):
    return ((groups[0][0], ()),) + groups[1:]


def _empty_identity(groups):
    (ta, signers), rest = groups[0], groups[1:]
    return ((ta, ((b"", signers[0][1]),) + signers[1:]),) + rest


@pytest.mark.parametrize("degrade, reason", [
    (_no_groups, "empty bundle"),
    (_empty_group, "empty authority group"),
    (_empty_identity, "empty signer identity"),
])
def test_verify_degenerate_bundle_spends_nothing(fixed_scenario, degrade, reason):
    eng = fixed_scenario["engine"]
    bundle = fixed_scenario["bundle"]
    bad = scheme.AggregateBundle(groups=degrade(bundle.groups), omega=bundle.omega)
    before = eng.pairing_count
    # no certificate weight is drawn either: the scripted rng holds none
    result = scheme.verify(eng, fixed_scenario["params"], bad, rng=ScriptedRng())
    assert (result.valid, result.reason) == (False, reason)
    assert (result.pairings_main, result.pairings_certificates) == (0, 0)
    assert eng.pairing_count == before


def test_lowerlevel_setup_rejects_empty_identity(fixed_scenario):
    with pytest.raises(ValueError, match="non-empty"):
        scheme.lowerlevel_setup(fixed_scenario["engine"], fixed_scenario["params"],
                                fixed_scenario["master"], b"", ScriptedRng())


def test_verify_same_identity_under_two_tas_allowed(mock_engine):
    eng = mock_engine
    rng = random.Random(12)
    master, params = scheme.root_setup(eng, rng)
    sigs, groups = [], []
    for ta_id in (b"TA-L", b"TA-R"):
        tsec, trec = scheme.lowerlevel_setup(eng, params, master, ta_id, rng)
        key = scheme.extract(eng, tsec, trec, b"shared-identity")
        sigs.append(scheme.sign(eng, key, trec, b"hello " + ta_id))
        groups.append((trec, [(b"shared-identity", b"hello " + ta_id)]))
    bundle = scheme.AggregateBundle.build(groups, scheme.aggregate(eng, sigs))
    assert scheme.verify(eng, params, bundle)


def test_verify_empty_message_legal(mock_engine):
    eng = mock_engine
    rng = random.Random(13)
    master, params = scheme.root_setup(eng, rng)
    tsec, trec = scheme.lowerlevel_setup(eng, params, master, b"TA-E", rng)
    key = scheme.extract(eng, tsec, trec, b"someone")
    sig = scheme.sign(eng, key, trec, b"")
    bundle = scheme.AggregateBundle.build([(trec, [(b"someone", b"")])], sig.sigma)
    assert scheme.verify(eng, params, bundle)


def test_verify_tampered_certificate_rejected(fixed_scenario):
    eng = fixed_scenario["engine"]
    bundle = fixed_scenario["bundle"]
    (ta1, s1), rest = bundle.groups[0], bundle.groups[1:]
    forged_ta = scheme.TARecord(ta1.ta_identity, ta1.y_i, ta1.cert * eng.g1)
    bad = scheme.AggregateBundle(groups=((forged_ta, s1),) + rest, omega=bundle.omega)
    result = scheme.verify(eng, fixed_scenario["params"], bad)
    assert not result and "certificate" in result.reason


def test_mock_soundness_exhaustive_omega(fixed_scenario):
    eng = fixed_scenario["engine"]
    params = fixed_scenario["params"]
    bundle = fixed_scenario["bundle"]
    good = eng.dlog(bundle.omega)
    rejected = 0
    for v in range(Q):
        if v == good:
            continue
        bad = scheme.AggregateBundle(groups=bundle.groups, omega=eng.g1 ** v)
        if not scheme.verify(eng, params, bad, check_certificates=False):
            rejected += 1
    assert rejected == Q - 1


def test_completeness_randomized_mock(mock_engine):
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randrange(1, 17)
        l = rng.randrange(1, min(n, 4) + 1)
        params, bundle = random_honest_bundle(mock_engine, rng, n, l)
        result = scheme.verify(mock_engine, params, bundle)
        assert result
        assert result.pairings_main == len(bundle.groups) + 1


def test_completeness_smoke_production(bls_engine):
    rng = random.Random(78)
    params, bundle = random_honest_bundle(bls_engine, rng, 4, 2)
    assert scheme.verify(bls_engine, params, bundle)


def test_aggregation_homomorphism(mock_engine):
    # two disjoint valid bundles verify as their union with omega_a * omega_b
    eng = mock_engine
    rng = random.Random(21)
    master, params = scheme.root_setup(eng, rng)
    parts = []
    for tag in (b"TA-A", b"TA-B"):
        tsec, trec = scheme.lowerlevel_setup(eng, params, master, tag, rng)
        sigs, signers = [], []
        for i in range(3):
            ident = tag + f"-user{i}".encode()
            msg = f"m-{tag}-{i}".encode()
            key = scheme.extract(eng, tsec, trec, ident)
            sigs.append(scheme.sign(eng, key, trec, msg))
            signers.append((ident, msg))
        parts.append((trec, signers, scheme.aggregate(eng, sigs)))
    for trec, signers, omega in parts:
        assert scheme.verify(eng, params, scheme.AggregateBundle.build([(trec, signers)], omega))
    union = scheme.AggregateBundle.build(
        [(parts[0][0], parts[0][1]), (parts[1][0], parts[1][1])], parts[0][2] * parts[1][2]
    )
    assert scheme.verify(eng, params, union)


def test_order_invariance_within_group(fixed_scenario):
    eng = fixed_scenario["engine"]
    bundle = fixed_scenario["bundle"]
    (ta1, s1), rest = bundle.groups[0], bundle.groups[1:]
    permuted = ((ta1, tuple(reversed(s1))),) + rest
    out = scheme.verify(eng, fixed_scenario["params"], scheme.AggregateBundle(groups=permuted, omega=bundle.omega))
    assert bool(out) == bool(scheme.verify(eng, fixed_scenario["params"], bundle))


def test_verify_no_cert_budget_is_exact(fixed_scenario):
    eng = fixed_scenario["engine"]
    bundle = fixed_scenario["bundle"]
    before = eng.pairing_count
    result = scheme.verify(eng, fixed_scenario["params"], bundle, check_certificates=False)
    assert result
    assert eng.pairing_count - before == len(bundle.groups) + 1
    assert result.pairings_certificates == 0


# -- pinned outcomes ------------------------------------------------------------
#
# One SHA-256 over what the checks answer and spend on fixed inputs, so any
# change to an accept/reject decision, a reason, a pairing count or the order
# of random draws shows here.


def _verify_outcome(eng, params, bundle, seed, **kw):
    rng = random.Random(seed)
    before = eng.pairing_count
    result = scheme.verify(eng, params, bundle, rng=rng, **kw)
    return [result.valid, result.reason, result.pairings_main, result.pairings_certificates,
            eng.pairing_count - before, rng.getrandbits(64)]


def _single_replacements(eng, bundle):
    """The bundle itself, then each copy with one element replaced: omega,
    each authority's y_i and cert, each signer's identity and message."""
    yield bundle
    yield replace(bundle, omega=bundle.omega * eng.g1)
    for gi, (ta, signers) in enumerate(bundle.groups):
        tas = (replace(ta, y_i=ta.y_i * eng.g2), replace(ta, cert=ta.cert * eng.g1))
        swapped = [((t, signers),) for t in tas]
        for si, (ident, message) in enumerate(signers):
            for signer in ((ident + b"!", message), (ident, message + b"!")):
                swapped.append(((ta, signers[:si] + (signer,) + signers[si + 1:]),))
        for group in swapped:
            yield replace(bundle, groups=bundle.groups[:gi] + group + bundle.groups[gi + 1:])


def test_pinned_check_outcomes(fixed_scenario, bls_engine):
    from mtaotibas.errors import DegenerateDenominator, GiveUp, ReductionAbort
    from mtaotibas.harness.challenger import Challenger, CoCDHInstance
    from mtaotibas.harness.forger import scripted_forger

    eng, params = fixed_scenario["engine"], fixed_scenario["params"]
    outcomes = []
    for i, bundle in enumerate(_single_replacements(eng, fixed_scenario["bundle"])):
        for check in (True, False):
            outcomes.append(_verify_outcome(eng, params, bundle, i, check_certificates=check))
    for _, trec in fixed_scenario["tas"].values():
        for v in range(Q):
            outcomes.append(_checked(eng, scheme.verify_certificate, params,
                                     replace(trec, cert=eng.g1 ** v)))
    for ident, ta_id, *_ in FIXED["signers"]:
        _, trec = fixed_scenario["tas"][ta_id]
        key = fixed_scenario["keys"][ident]
        for field in ("s0", "s1"):
            for v in range(Q):
                outcomes.append(_checked(eng, key_is_well_formed,
                                         replace(key, **{field: eng.g1 ** v}), trec))

    e = bls_engine
    params, bundle = random_honest_bundle(e, random.Random(0x9E1), 3, 2)
    (ta, signers), rest = bundle.groups[0], bundle.groups[1:]
    tampered = replace(bundle, groups=((replace(ta, cert=ta.cert * e.g1), signers),) + rest)
    outcomes += [_verify_outcome(e, params, b, 5) for b in (bundle, tampered)]

    mock = MockEngine()
    for seed in range(10):
        rng = random.Random(seed)
        ch = Challenger(mock, CoCDHInstance.random(mock, rng), 0.5, rng)
        before = mock.pairing_count
        try:
            ch.finalize(scripted_forger(ch).bundle)
            end = "extracted"
        except (DegenerateDenominator, GiveUp, ReductionAbort) as exc:
            end = f"{type(exc).__name__}: {exc}"
        outcomes.append([end, mock.pairing_count - before, ch.transcript()])

    blob = json.dumps(outcomes, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == "ab5d5e5bfb77e47a56ece2403119f7ddfd103e2fe982170499e2000e40b86f10"


# -- one batch check against the two-equation reference --------------------------


def _two_equation_verify(engine, params, bundle, check_certificates=True, rng=None):
    """verify as it checked before its one batch check: the weighted
    certificate product and then the aggregate equation, each checked on
    its own, with nothing hashed after a certificate failure."""
    if not bundle.groups:
        return scheme.VerifyResult(False, reason="empty bundle")
    if any(not signers for _, signers in bundle.groups):
        return scheme.VerifyResult(False, reason="empty authority group")
    hashes = scheme.engine_hashes(engine)
    certs = [ta.cert_bytes(engine) for ta, _ in bundle.groups]
    seen = set()
    for (_, signers), cert_b in zip(bundle.groups, certs):
        for ident, _ in signers:
            if not ident:
                return scheme.VerifyResult(False, reason="empty signer identity")
            if (ident, cert_b) in seen:
                return scheme.VerifyResult(False, reason="duplicate (identity, authority) pair")
            seen.add((ident, cert_b))
    cert_terms = []
    if check_certificates:
        for ta, _ in bundle.groups:
            rho = engine.random_scalar(rng)
            h = scheme._cert_hash(engine, scheme.cert_payload(engine, ta.ta_identity, ta.y_i))
            cert_terms += scheme._equation(engine, ta.cert ** rho, [(h ** rho, params.y)])
        if engine.first_failing([cert_terms]) is not None:
            return scheme.VerifyResult(False, reason="certificate check failed",
                                       pairings_certificates=len(cert_terms))
    inner = []
    for (ta, signers), cert_b in zip(bundle.groups, certs):
        powers = []
        for ident, message in signers:
            h = hashes.message_scalar(message, ident, cert_b)
            powers += [(hashes.identity_point(ident, 0), 1), (hashes.identity_point(ident, 1), h)]
        inner.append((engine.g1_product(powers), ta.y_i))
    terms = scheme._equation(engine, bundle.omega, inner)
    ok = engine.first_failing([terms]) is None
    return scheme.VerifyResult(ok, reason="" if ok else "aggregate equation failed",
                               pairings_main=len(terms), pairings_certificates=len(cert_terms))


def _flip_bit(data, rng):
    bit = rng.randrange(len(data) * 8)
    return data[:bit // 8] + bytes([data[bit // 8] ^ (1 << (bit % 8))]) + data[bit // 8 + 1:]


def _tamper_classes(eng, bundle, rng):
    """One bundle per tamper class of acceptance criterion 3: a bit of a
    message or an identity flipped; omega or a cert times a random nonzero
    power of g1, a y_i raised to a random power other than 1."""
    gi = rng.randrange(len(bundle.groups))
    ta, signers = bundle.groups[gi]
    si = rng.randrange(len(signers))
    ident, message = signers[si]

    def with_group(group):
        return replace(bundle, groups=bundle.groups[:gi] + (group,) + bundle.groups[gi + 1:])

    def with_signer(signer):
        return with_group((ta, signers[:si] + (signer,) + signers[si + 1:]))

    def k(low=1):
        return rng.randrange(low, eng.order)

    yield "message", with_signer((ident, _flip_bit(message, rng)))
    yield "identity", with_signer((_flip_bit(ident, rng), message))
    yield "omega", replace(bundle, omega=bundle.omega * eng.g1 ** k())
    yield "y_i", with_group((replace(ta, y_i=ta.y_i ** k(2)), signers))
    yield "cert", with_group((replace(ta, cert=ta.cert * eng.g1 ** k()), signers))


def _cancelling_bundle(eng, rng, n, l):
    """A bundle whose two flaws cancel under weight 1: the first
    authority's cert times g1, every signature made under that moved record
    (the cert's bytes feed H1, so the aggregate equation fails only by what
    omega is moved), and omega times g1^-1. The certificate product then
    pairs to e(g1, g2)^-1 and the main product to e(g1, g2)."""
    master, params = scheme.root_setup(eng, rng)
    tas = [scheme.lowerlevel_setup(eng, params, master, f"ta-{i}".encode(), rng) for i in range(l)]
    secret, record = tas[0]
    tas[0] = (secret, replace(record, cert=record.cert * eng.g1))
    groups, signatures = {}, []
    for i in range(n):
        secret, record = tas[i % l]
        ident, message = f"user-{i}".encode(), rng.getrandbits(160).to_bytes(20, "big")
        signatures.append(scheme.sign(eng, scheme.extract(eng, secret, record, ident), record, message))
        groups.setdefault(i % l, (record, []))[1].append((ident, message))
    omega = scheme.aggregate(eng, signatures) * eng.g1.inverse()
    return params, scheme.AggregateBundle.build([groups[k] for k in sorted(groups)], omega)


def _assert_matches_reference(eng, params, bundle, seed, check_certificates=True):
    l = len(bundle.groups)
    before = eng.pairing_count
    result = scheme.verify(eng, params, bundle, check_certificates=check_certificates, rng=random.Random(seed))
    spent = eng.pairing_count - before
    reference = _two_equation_verify(eng, params, bundle, check_certificates, rng=random.Random(seed))
    assert (result.valid, result.reason) == (reference.valid, reference.reason)
    # the one intended change: after a certificate failure the main equation
    # is paired too, so its l + 1 terms are reported and spent
    assert (result.pairings_main, result.pairings_certificates) == (l + 1, 2 * l if check_certificates else 0)
    assert spent == result.pairings_main + result.pairings_certificates
    return result


@pytest.mark.parametrize("backend", ["mock", "production"])
def test_verify_matches_two_equation_reference(backend, bls_engine):
    eng = MockEngine() if backend == "mock" else bls_engine
    shapes = [(1, 1), (2, 2), (3, 2), (5, 3), (4, 4)] * 4 if backend == "mock" else [(1, 1), (3, 2)]
    for seed, (n, l) in enumerate(shapes):
        rng = random.Random(0x25D0 + seed)
        params, bundle = random_honest_bundle(eng, rng, n, l)
        assert _assert_matches_reference(eng, params, bundle, seed)
        assert _assert_matches_reference(eng, params, bundle, seed, check_certificates=False)
        for kind, tampered in _tamper_classes(eng, bundle, rng):
            result = _assert_matches_reference(eng, params, tampered, seed)
            expected = "certificate check failed" if kind in ("y_i", "cert") else "aggregate equation failed"
            assert (result.valid, result.reason) == (False, expected), kind
        params, bundle = _cancelling_bundle(eng, rng, n, l)
        result = _assert_matches_reference(eng, params, bundle, seed)
        assert (result.valid, result.reason) == (False, "certificate check failed")
        unchecked = scheme.verify(eng, params, bundle, check_certificates=False)
        assert (unchecked.valid, unchecked.reason) == (False, "aggregate equation failed")
        # under weight 1 production's one final exponentiation accepts it;
        # the mock, checking each product on its own, does not
        unweighted = scheme.verify(eng, params, bundle, rng=ScriptedRng(*[1] * l))
        assert unweighted.valid == (backend == "production"), unweighted
