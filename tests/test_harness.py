import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from mtaotibas import scheme
from mtaotibas.errors import (
    DegenerateDenominator,
    GiveUp,
    ReductionAbort,
    UnknownCertificate,
)
from mtaotibas.harness.bounds import (
    E_SQUARED_LOWER,
    _mc_worker,
    bound_check,
    bound_rhs_upper,
    monte_carlo_abort,
    optimal_delta,
    success_probability,
)
from mtaotibas.harness.challenger import Challenger, CoCDHInstance
from mtaotibas.harness.forger import _BACKGROUND_SIGNERS, _MAX_ATTEMPTS, scripted_forger
from mtaotibas.harness.workload import abort_workload, run_workload
from mtaotibas.pairing.mock import MOCK_MODULUS, MockEngine

from conftest import key_is_well_formed

Q = MOCK_MODULUS


class SeqRng:
    """Scripted randomness: queued coin floats for random(), queued scalars
    for randrange()."""

    def __init__(self, scalars=(), coins=()):
        self.scalars = list(scalars)
        self.coins = list(coins)

    def randrange(self, *args):
        return self.scalars.pop(0)

    def random(self):
        return self.coins.pop(0)


def planted_instance(engine, a, b):
    return CoCDHInstance(engine.g1 ** a, engine.g2 ** b)


@pytest.fixture
def engine():
    return MockEngine()


# -- construction -------------------------------------------------------------


def test_delta_zero_never_aborts(engine):
    rng = random.Random(1)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.0, rng)
    summary = run_workload(ch, abort_workload(10, 10, 10))
    assert not summary["aborted"]
    assert summary["executed"] == 30


def test_delta_one_first_corrupt_aborts(engine):
    rng = random.Random(2)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), 1.0, rng)
    with pytest.raises(ReductionAbort) as err:
        ch.oracle_corrupt(b"TA-any")
    assert err.value.site == "corrupt"
    assert ch.abort_site == "corrupt"


def test_fixed_seed_reproducible_transcript(engine):
    ops = abort_workload(3, 3, 3)
    outs = []
    for _ in range(2):
        rng = random.Random(77)
        ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.3, rng)
        run_workload(ch, ops)
        outs.append(ch.transcript())
    assert outs[0] == outs[1]


def test_challenger_rejects_bad_delta(engine):
    rng = random.Random(0)
    with pytest.raises(ValueError):
        Challenger(engine, CoCDHInstance.random(engine, rng), 1.5, rng)


# -- identity-hash oracle ------------------------------------------------------


def test_h0_planted_branch_known_answer(engine):
    # planted a=5; coin 1; alpha0=2, alpha1=9, alpha0'=3, alpha1'=4
    # id0 = g1^2 * A^3 = 2 + 5*3 = 17
    rng = SeqRng(scalars=[99, 2, 9, 3, 4], coins=[0.0])
    ch = Challenger(engine, planted_instance(engine, 5, 7), 0.5, rng)
    id0 = ch.oracle_h0(b"X", 0)
    assert engine.dlog(id0) == 17
    assert engine.dlog(ch.oracle_h0(b"X", 1)) == (9 + 5 * 4) % Q
    rec = ch.h0_list[b"X"]
    assert rec.coin == 1 and rec.alpha0p == 3 and rec.alpha1p == 4


def test_h0_unplanted_branch_and_memoization(engine):
    rng = SeqRng(scalars=[99, 2, 9], coins=[0.99])  # coin 0
    ch = Challenger(engine, planted_instance(engine, 5, 7), 0.5, rng)
    first = ch.oracle_h0(b"Y", 0)
    assert engine.dlog(first) == 2
    rec = ch.h0_list[b"Y"]
    assert rec.coin == 0 and rec.alpha0p == 0 and rec.alpha1p == 0
    # repeat query: memoized, no fresh draws (queues are empty)
    assert ch.oracle_h0(b"Y", 0) == first
    assert ch.counts["h0"] == 2


def test_h0_coin_frequency_tracks_delta(engine):
    delta = 0.3
    rng = random.Random(5)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), delta, rng)
    n = 10_000
    for i in range(n):
        ch.oracle_h0(f"id-{i}".encode(), 0)
    ones = sum(r.coin for r in ch.h0_list.values())
    margin = 3 * math.sqrt(delta * (1 - delta) / n)
    assert abs(ones / n - delta) <= margin


# -- authority-setup oracle ----------------------------------------------------


def test_lowerlevel_setup_planted_known_answer(engine):
    # planted b=7; kappa=3; coin 1 -> y = B^3 = 21
    rng = SeqRng(scalars=[99, 3], coins=[0.0])
    ch = Challenger(engine, planted_instance(engine, 5, 7), 0.5, rng)
    record = ch.oracle_lowerlevel_setup(b"T")
    assert engine.dlog(record.y_i) == 21
    assert ch.ta_list[b"T"].coin == 1
    # memoized on repeat
    assert ch.oracle_lowerlevel_setup(b"T") == record
    assert ch.counts["lowerlevel_setup"] == 2
    # the simulated certificate verifies under the game's params
    assert scheme.verify_certificate(engine, ch.params, record)


def test_lowerlevel_coin_frequency(engine):
    delta = 0.2
    rng = random.Random(6)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), delta, rng)
    n = 10_000
    for i in range(n):
        ch.oracle_lowerlevel_setup(f"ta-{i}".encode())
    ones = sum(r.coin for r in ch.ta_list.values())
    margin = 3 * math.sqrt(delta * (1 - delta) / n)
    assert abs(ones / n - delta) <= margin


# -- message-hash oracle -------------------------------------------------------


def test_h1_programmed_branch_known_answer(engine):
    # alpha0'=3, alpha1'=4 -> h = -3/4 = -3*757 = 756 mod 1009
    assert pow(4, -1, Q) == 757
    rng = SeqRng(
        scalars=[99, 3, 2, 9, 3, 4],  # master, kappa_i, alpha0, alpha1, alpha0p, alpha1p
        coins=[0.0, 0.0, 0.0],  # coin_T, coin_i, coin'
    )
    ch = Challenger(engine, planted_instance(engine, 5, 7), 0.5, rng)
    record = ch.oracle_lowerlevel_setup(b"T")
    cert = record.cert_bytes(engine)
    h = ch.oracle_h1(b"X", b"m", cert)
    assert h == 756
    assert (-3 * pow(4, -1, Q)) % Q == 756
    # memoized
    assert ch.oracle_h1(b"X", b"m", cert) == 756


def test_h1_requires_prior_setup(engine):
    rng = random.Random(7)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.5, rng)
    with pytest.raises(UnknownCertificate):
        ch.oracle_h1(b"X", b"m", b"fabricated-cert-bytes")


def test_h1_random_branch_rarely_hits_programmed_value(engine):
    # when coin' = 0 the answer is uniform; collisions with -a0'/a1' occur
    # at rate about 1/q
    rng = random.Random(8)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), 1.0, rng)
    # delta=1 plants every coin; force coin' = 0 by scripting the flip
    record = ch.oracle_lowerlevel_setup(b"T")
    cert = record.cert_bytes(engine)
    hits = 0
    n = 3000
    for i in range(n):
        ident = f"id-{i}".encode()
        ch.oracle_h0(ident, 0)
        h0 = ch.h0_list[ident]
        ch.delta = 0.0  # next flip (coin') lands 0
        h = ch.oracle_h1(ident, b"m", cert)
        ch.delta = 1.0
        programmed = (-h0.alpha0p * pow(h0.alpha1p, -1, Q)) % Q
        if h == programmed:
            hits += 1
    assert hits <= n * 10 / Q  # generous: ~3 expected


# -- corrupt and extract -------------------------------------------------------


def test_corrupt_returns_secret_or_aborts(engine):
    rng = SeqRng(scalars=[99, 3, 4], coins=[0.99, 0.0])
    ch = Challenger(engine, planted_instance(engine, 5, 7), 0.5, rng)
    assert ch.oracle_corrupt(b"honest") == 3  # coin 0
    ch2_rng = SeqRng(scalars=[99, 3], coins=[0.0])
    ch2 = Challenger(engine, planted_instance(engine, 5, 7), 0.5, ch2_rng)
    with pytest.raises(ReductionAbort) as err:
        ch2.oracle_corrupt(b"planted")
    assert err.value.site == "corrupt"


def test_corrupt_abort_rate(engine):
    delta = 0.25
    rng = random.Random(9)
    n, aborted = 4000, 0
    for i in range(n):
        ch = Challenger(engine, CoCDHInstance.random(engine, rng), delta, rng)
        try:
            ch.oracle_corrupt(f"ta-{i}".encode())
        except ReductionAbort:
            aborted += 1
    margin = 3 * math.sqrt(delta * (1 - delta) / n)
    assert abs(aborted / n - delta) <= margin


def test_extract_third_branch_known_answer(engine):
    # b=7, kappa=3, alpha0=2: s0 = psi(B^(kappa*alpha0)) = 42
    rng = SeqRng(
        scalars=[99, 3, 2, 9],  # master, kappa, alpha0, alpha1
        coins=[0.0, 0.99],  # coin_T = 1, coin_id = 0
    )
    ch = Challenger(engine, planted_instance(engine, 5, 7), 0.5, rng)
    ch.oracle_lowerlevel_setup(b"T")
    key = ch.oracle_extract(b"X", b"T")
    assert engine.dlog(key.s0) == 42
    assert engine.dlog(key.s1) == 7 * 3 * 9 % Q


def test_extract_outputs_well_formed_under_simulated_keys(engine):
    rng = random.Random(10)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.5, rng)
    checked = 0
    for i in range(40):
        ta_name = f"ta-{i}".encode()
        ident = f"id-{i}".encode()
        record = ch.oracle_lowerlevel_setup(ta_name)
        try:
            key = ch.oracle_extract(ident, ta_name)
        except ReductionAbort:
            ch.abort_site = None  # revive for the next probe
            continue
        assert key_is_well_formed(engine, key, record, hashes=ch.hashes)
        checked += 1
    assert checked > 10


def test_extract_double_coin_aborts(engine):
    rng = SeqRng(scalars=[99, 3, 2, 9, 3, 4], coins=[0.0, 0.0])
    ch = Challenger(engine, planted_instance(engine, 5, 7), 0.5, rng)
    ch.oracle_lowerlevel_setup(b"T")
    with pytest.raises(ReductionAbort) as err:
        ch.oracle_extract(b"X", b"T")
    assert err.value.site == "extract"


# -- sign oracle ---------------------------------------------------------------


def test_sign_programmed_branch_cancels_planted_term(engine):
    # b=7, kappa=3, alpha0=2, alpha1=9, alpha0'=3, alpha1'=4, h=756:
    # the planted coefficient alpha0' + h*alpha1' = 3 + 756*4 = 0 mod 1009
    rng = SeqRng(scalars=[99, 3, 2, 9, 3, 4], coins=[0.0, 0.0, 0.0])
    ch = Challenger(engine, planted_instance(engine, 5, 7), 0.5, rng)
    record = ch.oracle_lowerlevel_setup(b"T")
    sig = ch.oracle_sign(b"X", b"m", b"T")
    h0 = ch.h0_list[b"X"]
    h = ch.h1_list[(b"X", b"m", record.cert_bytes(engine))].h
    assert (h0.alpha0p + h * h0.alpha1p) % Q == 0  # planted part vanished
    expected = (h0.alpha0 + h * h0.alpha1) * 7 * 3 % Q
    assert engine.dlog(sig.sigma) == expected
    # the simulated signature passes single-signer verification
    bundle = scheme.AggregateBundle.build([(record, [(b"X", b"m")])], sig.sigma)
    assert scheme.verify(engine, ch.params, bundle, hashes=ch.hashes)


def test_sign_unprogrammed_pattern_aborts(engine):
    # trailing 500 is the random h drawn on the unprogrammed branch
    rng = SeqRng(scalars=[99, 3, 2, 9, 3, 4, 500], coins=[0.0, 0.0, 0.99])  # coin' = 0
    ch = Challenger(engine, planted_instance(engine, 5, 7), 0.5, rng)
    ch.oracle_lowerlevel_setup(b"T")
    with pytest.raises(ReductionAbort) as err:
        ch.oracle_sign(b"X", b"m", b"T")
    assert err.value.site == "sign"


def test_sign_honest_branches_verify(engine):
    rng = random.Random(11)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.4, rng)
    verified = 0
    for i in range(40):
        ta_name = f"ta-{i}".encode()
        ident = f"id-{i}".encode()
        record = ch.oracle_lowerlevel_setup(ta_name)
        try:
            sig = ch.oracle_sign(ident, b"payload", ta_name)
        except ReductionAbort:
            ch.abort_site = None
            continue
        bundle = scheme.AggregateBundle.build([(record, [(ident, b"payload")])], sig.sigma)
        assert scheme.verify(engine, ch.params, bundle, hashes=ch.hashes)
        verified += 1
    assert verified > 10


# -- finalize ------------------------------------------------------------------


def test_finalize_extracts_planted_product(engine):
    rng = random.Random(12)
    ch = Challenger(engine, planted_instance(engine, 5, 7), 0.5, rng)
    forgery = scripted_forger(ch, rng=random.Random(1))
    out = ch.finalize(forgery.bundle)
    assert engine.dlog(out) == 35  # a*b = 5*7
    assert ch.transcript()["extraction"] == engine.encode_g1(out).hex()


def test_finalize_wrong_pattern_aborts(engine):
    rng = random.Random(13)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.0, rng)  # no coins planted
    record = ch.oracle_lowerlevel_setup(b"T")
    sig = ch.oracle_sign(b"X", b"m", b"T")
    bundle = scheme.AggregateBundle.build([(record, [(b"X", b"m")])], sig.sigma)
    with pytest.raises(ReductionAbort) as err:
        ch.finalize(bundle)
    assert err.value.site == "forgery"


def test_finalize_rejects_unverifiable_forgery(engine):
    rng = random.Random(14)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.5, rng)
    record = ch.oracle_lowerlevel_setup(b"T")
    bundle = scheme.AggregateBundle.build([(record, [(b"X", b"m")])], engine.g1 ** 123)
    with pytest.raises(ReductionAbort) as err:
        ch.finalize(bundle)
    assert err.value.site == "forgery"


def test_finalize_unknown_certificate_aborts_at_h1(engine):
    # verify hashes every signer before its one batch check names a failed
    # certificate, so a forgery under a record the challenger never issued
    # ends at H1's UnknownCertificate, not at "certificate check failed"
    rng = random.Random(15)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.5, rng)
    record = ch.oracle_lowerlevel_setup(b"T")
    forged = replace(record, cert=record.cert * engine.g1)
    bundle = scheme.AggregateBundle.build([(forged, [(b"X", b"m")])], engine.g1 ** 123)
    assert scheme.verify(engine, ch.params, bundle).reason == "certificate check failed"
    with pytest.raises(ReductionAbort) as err:
        ch.finalize(bundle)
    assert (err.value.site, err.value.detail) == ("forgery", "authority never set up")
    assert ch.counts["h1"] == 0 and not ch.h1_list


def test_finalize_degenerate_denominator(engine):
    # script the random h to exactly -alpha0'/alpha1' while coin' = 0, the
    # 1/q-probability collision the extraction must surface
    rng = SeqRng(
        scalars=[99, 3, 2, 9, 3, 4, 756],  # ..., alpha0p=3, alpha1p=4, h=756
        coins=[0.0, 0.0, 0.99],  # coin_T=1, coin_i=1, coin'=0
    )
    ch = Challenger(engine, planted_instance(engine, 5, 7), 0.5, rng)
    record = ch.oracle_lowerlevel_setup(b"T")
    cert = record.cert_bytes(engine)
    h = ch.oracle_h1(b"X", b"m", cert)
    assert h == 756 and ch.h1_list[(b"X", b"m", cert)].coin_prime == 0
    # forge sigma from discrete logs (a-term coefficient is 0 by the collision)
    h0 = ch.h0_list[b"X"]
    sigma = (engine.dlog(h0.id0) + h * engine.dlog(h0.id1)) * engine.dlog(record.y_i) % Q
    bundle = scheme.AggregateBundle.build([(record, [(b"X", b"m")])], engine.g1 ** sigma)
    with pytest.raises(DegenerateDenominator):
        ch.finalize(bundle)


def _dlog_forgery(ch, record, signers):
    """A verifying one-authority bundle whose omega is computed from mock
    discrete logs, as scripted_forger computes it."""
    engine = ch.engine
    cert = record.cert_bytes(engine)
    omega = 0
    for ident, message in signers:
        h = ch.oracle_h1(ident, message, cert)
        h0 = ch.h0_list[ident]
        omega += (engine.dlog(h0.id0) + h * engine.dlog(h0.id1)) * engine.dlog(record.y_i)
    bundle = scheme.AggregateBundle.build([(record, signers)], engine.g1 ** (omega % Q))
    assert scheme.verify(engine, ch.params, bundle, hashes=ch.hashes)
    return bundle


@pytest.mark.parametrize("scalars, coins, signers, detail", [
    # T unplanted; X and Y planted (coin' 0 for both)
    ([99, 3, 2, 9, 3, 4, 5, 6, 7, 8, 10, 11], [0.99, 0.0, 0.99, 0.0, 0.99],
     [(b"X", b"m"), (b"Y", b"n")], "more than one planted identity in forgery"),
    # T unplanted; X planted, coin' 0
    ([99, 3, 2, 9, 3, 4, 5], [0.99, 0.0, 0.99], [(b"X", b"m")], "target authority not planted"),
    # T and X planted, coin' 1: h is programmed to -3/4
    ([99, 3, 2, 9, 3, 4], [0.0, 0.0, 0.0], [(b"X", b"m")], "target hash was programmed"),
], ids=["two-planted", "authority-unplanted", "hash-programmed"])
def test_finalize_pattern_aborts(engine, scalars, coins, signers, detail):
    rng = SeqRng(scalars=scalars, coins=coins)
    ch = Challenger(engine, planted_instance(engine, 5, 7), 0.5, rng)
    bundle = _dlog_forgery(ch, ch.oracle_lowerlevel_setup(b"T"), signers)
    assert rng.scalars == [] and rng.coins == []
    with pytest.raises(ReductionAbort) as err:
        ch.finalize(bundle)
    assert (err.value.site, err.value.detail) == ("forgery", detail)
    assert (ch.abort_site, ch.abort_detail, ch.extraction) == ("forgery", detail, None)


# -- scripted forger -----------------------------------------------------------


def test_forger_bundle_verifies_and_target_untouched(engine):
    rng = random.Random(16)
    ch = Challenger(engine, planted_instance(engine, 11, 13), 0.5, rng)
    forgery = scripted_forger(ch, rng=random.Random(3))
    assert scheme.verify(engine, ch.params, forgery.bundle, hashes=ch.hashes)
    # the forger never used the withheld-query oracles at all
    assert ch.counts["extract"] == 0
    assert ch.counts["corrupt"] == 0
    assert ch.counts["sign"] == 0


def test_forger_resamples_geometric(engine):
    rng = random.Random(17)
    totals = []
    for i in range(30):
        ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.5, rng)
        forgery = scripted_forger(ch, rng=random.Random(100 + i))
        totals.append(forgery.resamples["authority"] + forgery.resamples["identity"]
                      + forgery.resamples["message"])
    # at delta=0.5 each hunt is geometric with mean 2; the sum of three
    # averages 6 and stays well below the give-up budget
    assert sum(totals) / len(totals) < 12


def test_forger_gives_up_when_pattern_unreachable(engine):
    rng = random.Random(18)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.0, rng)  # coin 1 never lands
    with pytest.raises(GiveUp):
        scripted_forger(ch, rng=random.Random(4))


def test_forger_gives_up_without_unplanted_background(engine, monkeypatch):
    # the target authority and identity come out planted and the target
    # message hash unprogrammed, then every identity after them is planted:
    # the background hunt spends its whole budget and gives up
    rng = random.Random(25)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.5, rng)
    coins = itertools.chain([1, 1, 0], itertools.repeat(1))
    monkeypatch.setattr(ch, "_flip", lambda: next(coins))
    budget = _MAX_ATTEMPTS * _BACKGROUND_SIGNERS
    with pytest.raises(GiveUp, match=f"^no unplanted identity after {budget} attempts$"):
        scripted_forger(ch, rng=random.Random(6))
    background = [r for r in ch.h0_list.values() if r.identity.startswith(b"forge-bgid-")]
    assert len(background) == budget and all(r.coin == 1 for r in background)
    assert ch.counts["h0"] == 1 + budget


def test_forger_requires_mock(bls_engine):
    rng = random.Random(19)
    ch = Challenger(bls_engine, CoCDHInstance.random(bls_engine, rng), 0.5, rng)
    with pytest.raises(Exception):
        scripted_forger(ch, rng=random.Random(5))


# -- transcripts ---------------------------------------------------------------


def test_transcript_counts_match_workload(engine):
    rng = random.Random(20)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.0, rng)
    ops = (
        [{"op": "lowerlevel_setup", "ta": "T1"}]
        + [{"op": "h0", "id": f"u{i}", "bit": i % 2} for i in range(5)]
        + [{"op": "h1", "id": "u0", "message": "m", "ta": "T1"}]
        + abort_workload(2, 3, 4)
    )
    summary = run_workload(ch, ops)
    assert not summary["aborted"]
    t = ch.transcript()
    assert t["counts"]["h0"] == 5
    assert t["counts"]["h1"] == 1
    assert t["counts"]["lowerlevel_setup"] == 1
    assert t["counts"]["corrupt"] == 2
    assert t["counts"]["extract"] == 3
    assert t["counts"]["sign"] == 4
    assert t["abort_site"] is None


def test_transcript_holds_only_the_game(engine):
    # query counts, coins, programmed exponents and the outcome; what the
    # group work cost is the engine's pairing counter, not the transcript's
    rng = random.Random(22)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.5, rng)
    ch.oracle_h0(b"u0", 0)
    ch.oracle_lowerlevel_setup(b"T1")
    assert set(ch.transcript()) == {
        "delta", "counts", "abort_site", "abort_detail", "h0", "authorities", "h1", "extraction",
    }


def test_abort_sites_are_the_four_specified(engine):
    rng = random.Random(21)
    seen = set()
    for i in range(300):
        ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.6, rng)
        try:
            run_ops = abort_workload(1, 1, 1)
            summary = run_workload(ch, run_ops)
            if summary["aborted"]:
                seen.add(summary["abort_site"])
        except ReductionAbort as abort:  # pragma: no cover - runner catches
            seen.add(abort.site)
    assert seen <= {"corrupt", "extract", "sign", "forgery"}
    assert {"corrupt", "extract", "sign"} <= seen


# -- bound machinery -----------------------------------------------------------


def test_bound_worked_example():
    rep = bound_check(10, 10, 10, 5)
    assert rep["holds"]
    assert rep["lhs_max"] == pytest.approx(4.178e-4, rel=1e-3)
    assert rep["rhs"] == pytest.approx(3.954e-4, rel=1e-3)
    assert rep["delta_star"] == pytest.approx(2 / 37)


def test_bound_degenerate_point():
    rep = bound_check(0, 0, 0, 0)
    assert rep["holds"]
    assert rep["rhs"] == pytest.approx(4 / (math.e**2 * 4))
    assert rep["lhs_max"] > 0.99  # sup over the open interval is 1


def test_bound_closed_form_beats_any_grid_point():
    # (1-d)^B d^2 peaks at d = 2/(B+2); no d = k/512 does better
    for budget in range(61):
        best = success_probability(Fraction(2, budget + 2), budget)
        assert bound_check(budget, 0, 0, 0)["lhs_max"] == float(best)
        assert all(success_probability(Fraction(k, 512), budget) <= best for k in range(1, 512)), budget
    assert bound_check(0, 0, 0, 0)["lhs_max"] == 1.0


def test_bound_rhs_monotone_decreasing():
    last = None
    for budget in (0, 1, 2, 5, 10, 50, 100):
        rhs = bound_rhs_upper(budget)
        if last is not None:
            assert rhs < last
        last = rhs


def test_e_squared_bound_is_lower():
    # e^2 = 7.38905609893065022723042746...; the constant truncates it, so it
    # sits strictly between the 20-digit truncation and the 20-digit round-up
    round_up = Fraction(73890560989306502273, 10**19)
    assert E_SQUARED_LOWER < round_up
    assert abs(float(E_SQUARED_LOWER) - math.e**2) < 1e-15


def test_success_probability_exact():
    assert success_probability(Fraction(1, 2), 2) == Fraction(1, 16)
    assert success_probability(Fraction(2, 37), 35) == (Fraction(35, 37) ** 35) * Fraction(4, 37**2)


def test_optimal_delta():
    assert optimal_delta(10, 10, 10, 5) == pytest.approx(2 / 37)
    assert optimal_delta(0, 0, 0, 0) == 1.0


def test_monte_carlo_delta_zero_is_certain(engine):
    rep = monte_carlo_abort(0.0, 5, 5, 5, trials=500, seed=1)
    assert rep["estimate"] == 1.0


def test_monte_carlo_chunks_sum_to_one_range():
    # each trial seeds its own rng from (seed, t), so the pool's split into
    # chunks cannot move the estimate
    ops = abort_workload(5, 5, 5)
    whole = _mc_worker((0.2, ops, 7, 0, 300))
    assert 0 < whole < 300
    cuts = [0, 1, 64, 150, 299, 300]
    assert sum(_mc_worker((0.2, ops, 7, lo, hi)) for lo, hi in zip(cuts, cuts[1:])) == whole


def test_monte_carlo_small_run_passes(engine):
    rep = monte_carlo_abort(0.1, 5, 5, 5, trials=4000, seed=2)
    assert rep["passes"]
    assert rep["estimate"] >= rep["bound"] - rep["ci99_half_width"]


def test_h_only_workload_never_aborts(engine):
    rng = random.Random(23)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), 0.9, rng)
    ops = [{"op": "lowerlevel_setup", "ta": "T"}]
    ops += [{"op": "h0", "id": f"u{i}", "bit": 0} for i in range(50)]
    ops += [{"op": "h1", "id": f"u{i}", "message": "m", "ta": "T"} for i in range(50)]
    summary = run_workload(ch, ops)
    assert not summary["aborted"]
