"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to watch them)."""

import functools
import json
import os
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from click.testing import CliRunner

from mtaotibas import envelopes, scheme
from mtaotibas.cli import main as cli_main
from mtaotibas.errors import (
    DegenerateDenominator,
    InvalidElement,
    KeyAlreadyUsed,
    MalformedEnvelope,
)
from mtaotibas.harness.bounds import bound_check, monte_carlo_abort
from mtaotibas.harness.challenger import Challenger, CoCDHInstance
from mtaotibas.harness.forger import scripted_forger
from mtaotibas.keystore import KeyStore
from mtaotibas.pairing import get_engine

from conftest import FIXED, cli_lifecycle_steps, prepare_cli_dir, random_honest_bundle

JOBS = min(8, os.cpu_count() or 1)
BOUND_GRID = (0, 1, 5, 10, 50)


def criterion(num, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {num} [{title}]: FAIL ({type(exc).__name__}: {exc})", flush=True)
                raise
            line = f"ACCEPTANCE {num} [{title}]: PASS"
            if detail:
                line += f" ({detail})"
            print(line, flush=True)

        return wrapper

    return decorate


def _trial_shape(rng):
    n = rng.randrange(1, 17)
    l = rng.randrange(1, min(n, 4) + 1)
    return n, l


def _completeness_worker(args):
    backend, lo, hi = args
    engine = get_engine(backend)
    good = 0
    for t in range(lo, hi):
        rng = random.Random(0xC0FFEE + t)
        n, l = _trial_shape(rng)
        params, bundle = random_honest_bundle(engine, rng, n, l)
        result = scheme.verify(engine, params, bundle)
        if result.valid and result.pairings_main == len(bundle.groups) + 1:
            good += 1
    return good


def _parallel_sum(worker, tasks):
    if JOBS == 1:
        return sum(worker(t) for t in tasks)
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        return sum(pool.map(worker, tasks))


def _ranges(total, parts):
    chunk = (total + parts - 1) // parts
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


@criterion(1, "completeness 1000/1000 on both backends")
def test_criterion_1_completeness():
    t0 = time.perf_counter()
    mock_engine = get_engine("mock")
    mock_good = 0
    for t in range(1000):
        rng = random.Random(0xC0FFEE + t)
        n, l = _trial_shape(rng)
        params, bundle = random_honest_bundle(mock_engine, rng, n, l)
        result = scheme.verify(mock_engine, params, bundle)
        if result.valid and result.pairings_main == len(bundle.groups) + 1:
            mock_good += 1
    mock_elapsed = time.perf_counter() - t0

    t0 = time.perf_counter()
    tasks = [("production", lo, hi) for lo, hi in _ranges(1000, JOBS * 4)]
    prod_good = _parallel_sum(_completeness_worker, tasks)
    prod_elapsed = time.perf_counter() - t0
    # both halves are timed before either is judged, so a failure names both
    times = f"mock {mock_elapsed:.2f}s, production {prod_elapsed:.1f}s on {JOBS} workers"
    assert (mock_good, prod_good) == (1000, 1000), times
    assert mock_elapsed < 1.0, f"mock completeness over 1.0s: {times}"
    assert prod_elapsed < 60.0, f"production completeness over 60s: {times}"
    return times


@criterion(2, "pinned mock vectors reproduced bit-exactly by the CLI")
def test_criterion_2_known_answer_vectors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    prepare_cli_dir(tmp_path)
    golden = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())
    runner = CliRunner()
    outputs = {}
    for name, args in cli_lifecycle_steps():
        result = runner.invoke(cli_main, args, catch_exceptions=False)
        assert result.exit_code == 0, f"{name} failed: {result.output}"
        outputs[name] = result.output.rstrip("\n")
    assert outputs == golden
    # the independently derived group values
    assert json.loads(outputs["sign-1"])["signature"] == (253).to_bytes(2, "big").hex()
    assert json.loads(outputs["sign-2"])["signature"] == (616).to_bytes(2, "big").hex()
    assert json.loads(outputs["sign-3"])["signature"] == (260).to_bytes(2, "big").hex()
    assert json.loads(outputs["aggregate"])["omega"] == (120).to_bytes(2, "big").hex()
    return "sigma 253/616/260, omega 120, full stdout matches the golden file"


def _tamper_worker(args):
    lo, hi = args
    engine = get_engine("production")
    params, bundle = random_honest_bundle(engine, random.Random(0x7A3), 2, 2)
    reference = envelopes.dump_json(envelopes.to_json_obj(engine, bundle))
    rejected = 0
    for t in range(lo, hi):
        rng = random.Random(0x7A3F00 + t)
        doc = json.loads(reference)
        fields = doc["fields"]
        kind = ("message", "identity", "omega", "y_i", "cert")[t % 5]
        if kind in ("message", "identity"):
            group = fields["groups"][rng.randrange(len(fields["groups"]))]
            signer = group["signers"][rng.randrange(len(group["signers"]))]
            slot = "message" if kind == "message" else "identity"
            signer[slot] = _flip_hex_bit(signer[slot], rng)
        elif kind == "omega":
            fields["omega"] = _flip_hex_bit(fields["omega"], rng)
        else:
            group = fields["groups"][rng.randrange(len(fields["groups"]))]
            group["ta_record"][kind] = _flip_hex_bit(group["ta_record"][kind], rng)
        try:
            tampered = envelopes.from_json_obj(engine, doc, "aggregate-bundle")
        except (InvalidElement, MalformedEnvelope):
            rejected += 1
            continue
        if not scheme.verify(engine, params, tampered):
            rejected += 1
    return rejected


def _flip_hex_bit(hex_str, rng):
    raw = bytearray(bytes.fromhex(hex_str))
    bit = rng.randrange(len(raw) * 8)
    raw[bit // 8] ^= 1 << (bit % 8)
    return raw.hex()


@criterion(3, "soundness: exhaustive mock + 10^4 production tamper trials")
def test_criterion_3_soundness(fixed_scenario):
    engine = fixed_scenario["engine"]
    params = fixed_scenario["params"]
    bundle = fixed_scenario["bundle"]
    good = engine.dlog(bundle.omega)
    rejected = 0
    for value in range(engine.order):
        if value == good:
            continue
        forged = scheme.AggregateBundle(groups=bundle.groups, omega=engine.element_g1(value))
        if not scheme.verify(engine, params, forged):
            rejected += 1
    assert rejected == engine.order - 1  # 1008/1008

    trials = 10_000
    tampered_rejected = _parallel_sum(_tamper_worker, _ranges(trials, JOBS * 4))
    assert tampered_rejected == trials
    return f"mock {rejected}/1008, production {tampered_rejected}/{trials}"


@criterion(4, "one-time enforcement under contention and crashes")
def test_criterion_4_one_time(fixed_scenario, tmp_path):
    engine = fixed_scenario["engine"]
    tsec, trec = fixed_scenario["tas"][b"TA-1"]
    contenders, entries = 64, 100
    with KeyStore(tmp_path / "stress.journal", engine) as store:
        ids = []
        for i in range(entries):
            key = scheme.extract(engine, tsec, trec, f"stress-user-{i}".encode())
            ids.append(store.store_key(key))
        wins = {eid: 0 for eid in ids}
        wins_lock = threading.Lock()
        barrier = threading.Barrier(contenders)

        def contender(me):
            barrier.wait()
            for eid in ids:
                try:
                    store.sign_once(eid, trec, f"payload-{eid}".encode())
                except KeyAlreadyUsed:
                    continue
                with wins_lock:
                    wins[eid] += 1

        threads = [threading.Thread(target=contender, args=(i,)) for i in range(contenders)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert all(count == 1 for count in wins.values()), wins

    # crash injection: the use record persists before the signature returns
    class Crash(RuntimeError):
        pass

    crash_path = tmp_path / "crash.journal"
    with KeyStore(crash_path, engine) as store:
        key = scheme.extract(engine, tsec, trec, b"crash-user")
        eid = store.store_key(key)
        mark_used = store._mark_used  # this store's only: replay on open calls it too

        def crash_after_mark(*args):
            mark_used(*args)
            raise Crash()

        store._mark_used = crash_after_mark
        with pytest.raises(Crash):
            store.sign_once(eid, trec, b"crash-payload")
    with KeyStore(crash_path, engine) as store:
        entry = store.get(eid)
        assert entry.status == "used"
        assert entry.message_digest is not None  # used-on-disk implies signing recorded
        with pytest.raises(KeyAlreadyUsed):
            store.sign_once(eid, trec, b"crash-payload")
    return f"{contenders} contenders x {entries} entries, exactly one winner each"


def _budget_worker(args):
    n, l = args
    engine = get_engine("production")
    rng = random.Random(1000 * n + l)
    params, bundle = random_honest_bundle(engine, rng, n, l)
    before = engine.pairing_count
    result = scheme.verify(engine, params, bundle, check_certificates=False)
    spent = engine.pairing_count - before
    return 1 if (result.valid and spent == l + 1 == result.pairings_main) else 0


@criterion(5, "main verification equation costs exactly l+1 pairings")
def test_criterion_5_pairing_budget():
    engine = get_engine("mock")
    checked = 0
    for t in range(1000):
        rng = random.Random(0xC0FFEE + t)
        n, l = _trial_shape(rng)
        params, bundle = random_honest_bundle(engine, rng, n, l)
        before = engine.pairing_count
        result = scheme.verify(engine, params, bundle, check_certificates=False)
        spent = engine.pairing_count - before
        assert result.valid
        assert spent == l + 1 == result.pairings_main, (n, l, spent)
        checked += 1
    assert checked == 1000
    # production spot grid: the counter, not bookkeeping, is the arbiter
    grid = [(n, l) for n in (1, 8, 16) for l in (1, 2, 4) if l <= n]
    oks = _parallel_sum(_budget_worker, grid)
    assert oks == len(grid)
    return f"mock counter exact on 1000 shapes, production grid {oks}/{len(grid)}"


@criterion(6, "reduction extracts the planted product in 100/100 clean runs")
def test_criterion_6_extraction():
    engine = get_engine("mock")
    exact, degenerate = 0, 0
    for t in range(100):
        rng = random.Random(0xE0 + t)
        instance = CoCDHInstance.random(engine, rng)
        ch = Challenger(engine, instance, delta=0.5, rng=rng)
        forgery = scripted_forger(ch, rng=random.Random(0xF0 + t))
        target_h0 = ch.h0_list[forgery.target_identity]
        cert_bytes = ch.ta_list[forgery.target_ta_identity].record.cert_bytes(engine)
        h = ch.h1_list[(forgery.target_identity, forgery.target_message, cert_bytes)].h
        denominator = (target_h0.alpha0p + h * target_h0.alpha1p) % engine.order
        try:
            out = ch.finalize(forgery.bundle)
        except DegenerateDenominator:
            assert denominator == 0, "degenerate abort without a vanishing denominator"
            degenerate += 1
            continue
        assert denominator != 0
        expected = engine.g1 ** (engine.dlog(instance.a_elt) * engine.dlog(instance.b_elt) % engine.order)
        assert out == expected, f"trial {t}: extraction mismatch"
        exact += 1
    assert exact + degenerate == 100
    assert exact >= 90  # degenerate rate is about 1/1009 per run
    return f"{exact} exact extractions, {degenerate} degenerate (checked against dlogs)"


@criterion(7, "probability bound holds across the whole query grid")
def test_criterion_7_bound_grid():
    worst_margin, worst_point = None, None
    points = 0
    for q_c in BOUND_GRID:
        for q_e in BOUND_GRID:
            for q_s in BOUND_GRID:
                for n in BOUND_GRID:
                    report = bound_check(q_c, q_e, q_s, n)
                    assert report["holds"], report
                    points += 1
                    margin = report["lhs_max"] / report["rhs"]
                    if worst_margin is None or margin < worst_margin:
                        worst_margin, worst_point = margin, (q_c, q_e, q_s, n)
    assert points == len(BOUND_GRID) ** 4
    worked = bound_check(10, 10, 10, 5)
    assert worked["holds"]
    assert worked["lhs_max"] == pytest.approx(4.178e-4, rel=1e-3)
    assert worked["rhs"] == pytest.approx(3.954e-4, rel=1e-3)
    return f"{points} points hold exactly; tightest ratio {worst_margin:.4f} at {worst_point}"


@criterion(8, "empirical no-abort probability meets the claimed bound")
def test_criterion_8_monte_carlo():
    details = []
    for delta in (0.05, 0.1, 0.2):
        report = monte_carlo_abort(delta, 5, 5, 5, trials=100_000, seed=0xAB)
        assert report["passes"], report
        assert report["estimate"] >= report["bound"] - report["ci99_half_width"]
        details.append(f"delta={delta}: {report['estimate']:.4f} >= "
                       f"{report['bound']:.4f} - {report['ci99_half_width']:.4f}")
    return "; ".join(details)
