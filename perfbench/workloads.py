"""The four benchmark workloads, measured in one single-threaded process
with one client in a closed loop.

Each workload runs in cycles: a fixed sequence of operations whose shapes
never depend on the seed, so a run of whole cycles has the same mix on
every seed. ``prepare(c)`` does the untimed work of a cycle (generating its
inputs) and ``cycle(c)`` yields one ``Op`` per operation with its own wall
time, so the caller can run the reference loop between operations.
"""

import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from mtaotibas import envelopes, scheme
from mtaotibas.errors import InvalidElement, MalformedEnvelope
from mtaotibas.keystore import KeyStore
from mtaotibas.pairing.bls12381 import Bls12381Engine

import gen

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150

# reject stage by VerifyResult.reason
STAGES = {"certificate check failed": "certificate", "aggregate equation failed": "equation"}


@dataclass
class Op:
    key: str  # latency percentiles are taken per key (bundle shape or command)
    seconds: float
    outcome: str  # "accept", "reject:<stage>", "error:<type>" or "exit <code>"
    failed: bool
    sigs: int = 0  # signatures accepted (or produced and checked) by this op
    tampered: bool = False
    miller_terms: int = 0  # pairing terms spent, and the budget, of an honest bundle
    miller_budget: int = 0
    ref: float = 0.0  # time of the reference loop around this op, set by the caller


@dataclass
class Context:
    seed: int
    tiny: bool
    workdir: Path
    env: dict  # environment of child processes


def _generate(ctx, workload, start, count):
    """Generate bundles start..start+count-1 in two child processes, one per
    half of the range; returns the paths of their output files."""
    half = count // 2
    parts = [(start, count)] if count < 2 else [(start, half), (start + half, count - half)]
    procs = []
    try:
        for lo, n in parts:
            path = ctx.workdir / f"gen-{workload}-{lo}.json"
            cmd = [sys.executable, str(HERE / "gen.py"), workload, str(ctx.seed),
                   "1" if ctx.tiny else "0", str(lo), str(n), str(path)]
            procs.append((subprocess.Popen(cmd, env=ctx.env, stderr=subprocess.PIPE), path))
        for proc, _ in procs:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"input generator failed:\n{err.decode(errors='replace')}")
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return [path for _, path in procs]


def _load(paths):
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    merged = docs[0]
    merged["bundles"] = [b for d in docs for b in d["bundles"]]
    return merged


class Workload:
    in_process = True  # per-layer spans come from this process, not children
    tracer = None

    def __init__(self, ctx):
        self.ctx = ctx

    def prepare_inputs(self):
        """Untimed work before set-up."""

    def prepare(self, c):
        """Untimed work before cycle c."""

    def finish(self, ops):
        """Checks that need the whole run, made after the timed loop."""

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class VerifyWorkload(Workload):
    """Decode a JSON bundle with envelopes.from_json_obj, then scheme.verify."""

    def prepare_inputs(self):
        self.rng = random.Random(f"{self.ctx.seed}:verify-rng")
        self._first = _generate(self.ctx, self.name, 0, self.cycle_len)

    def setup(self):
        engine = Bls12381Engine()
        data = _load(self._first)
        params = envelopes.from_json_obj(engine, data["params"], "system-params")
        self.prepare_verifier(engine, params, data)
        self.engine, self.params, self._batches = engine, params, {0: data["bundles"]}

    def prepare_verifier(self, engine, params, data):
        """Workload-specific set-up of the verifier."""

    def prepare(self, c):
        if c not in self._batches:
            paths = _generate(self.ctx, self.name, c * self.cycle_len, self.cycle_len)
            self._batches[c] = _load(paths)["bundles"]

    def cycle(self, c):
        for k, doc in enumerate(self._batches.pop(c)):
            yield self._op(c * self.cycle_len + k, doc)

    def _op(self, index, doc):
        (n, l), kind = self.schedule(index)
        engine = self.engine
        result = None
        terms0 = engine.pairing_count
        t0 = time.perf_counter()
        try:
            bundle = envelopes.from_json_obj(engine, doc, "aggregate-bundle")
            result = scheme.verify(engine, self.params, bundle,
                                   check_certificates=self.check_certificates, rng=self.rng)
            outcome = "accept" if result.valid else "reject:" + STAGES.get(result.reason, "other")
        except (InvalidElement, MalformedEnvelope):
            outcome = "reject:decode"
        except Exception as exc:  # an untyped error is a failed operation, not a crash
            outcome = f"error:{type(exc).__name__}"
        seconds = time.perf_counter() - t0
        terms = engine.pairing_count - terms0
        if kind is not None:
            return Op(f"{n}x{l}", seconds, outcome, not outcome.startswith("reject:"), tampered=True)
        budget = self.miller_terms(l)
        failed = not (outcome == "accept" and result.pairings_main == l + 1 and terms == budget)
        return Op(f"{n}x{l}", seconds, outcome, failed, sigs=0 if failed else n,
                  miller_terms=terms, miller_budget=budget)


class VerifyCold(VerifyWorkload):
    """Unknown signers and authorities: every identity, certificate and
    element is new to this process, certificates are checked."""

    name = "verify-cold"
    cycle_len = gen.COLD_CYCLE
    trace_cycles = 1
    check_certificates = True

    def schedule(self, index):
        return gen.cold_schedule(index, self.ctx.tiny)

    @staticmethod
    def miller_terms(l):
        return 3 * l + 1  # 2l batched certificate terms plus the l + 1 main ones


class VerifyFleet(VerifyWorkload):
    """A verifier with a registry of pre-validated authorities and a warm
    hash cache over the whole vehicle fleet."""

    name = "verify-fleet"
    cycle_len = gen.FLEET_CYCLE
    trace_cycles = 2
    check_certificates = False

    def schedule(self, index):
        return gen.fleet_shape(self.ctx.tiny), None

    @staticmethod
    def miller_terms(l):
        return l + 1

    def prepare_verifier(self, engine, params, data):
        for doc in data["registry"]:
            record = envelopes.from_json_obj(engine, doc, "ta-record")
            if not scheme.verify_certificate(engine, params, record):
                raise RuntimeError("fleet registry holds an invalid certificate")
        identity_point = scheme.engine_hashes(engine).identity_point
        for vehicle in data["vehicles"]:
            ident = bytes.fromhex(vehicle)
            identity_point(ident, 0)
            identity_point(ident, 1)


class HonestRoundtrip(Workload):
    """One acceptance criterion 1 trial per operation, with the scheme's
    own setup, extract, sign, aggregate and verify."""

    name = "honest-roundtrip"
    trace_cycles = 1

    def __init__(self, ctx):
        super().__init__(ctx)
        self.signer_counts = range(1, 5) if ctx.tiny else range(1, 17)

    def setup(self):
        self.engine = Bls12381Engine()

    def cycle(self, c):
        per_cycle = len(self.signer_counts)
        for k, n in enumerate(self.signer_counts):
            yield self._trial(c * per_cycle + k, n)

    def _trial(self, index, n):
        l = 1 + n % min(n, 4)
        rng = random.Random(f"{self.ctx.seed}:trial:{index}")
        engine = self.engine
        failed, outcome = True, "reject:other"
        t0 = time.perf_counter()
        try:
            master, params = scheme.root_setup(engine, rng)
            tas = [scheme.lowerlevel_setup(engine, params, master, f"ta-{rng.getrandbits(64):016x}".encode(), rng)
                   for _ in range(l)]
            groups = [(record, []) for _, record in tas]
            signatures = []
            for j in range(n):
                secret, record = tas[j % l]
                ident = f"user-{rng.getrandbits(64):016x}".encode()
                message = gen.random_message(rng)
                key = scheme.extract(engine, secret, record, ident)
                signatures.append(scheme.sign(engine, key, record, message))
                groups[j % l][1].append((ident, message))
            bundle = scheme.AggregateBundle.build(groups, scheme.aggregate(engine, signatures))
            terms0 = engine.pairing_count
            result = scheme.verify(engine, params, bundle, rng=rng)
            terms = engine.pairing_count - terms0
            outcome = "accept" if result.valid else "reject:" + STAGES.get(result.reason, "other")
            failed = not (result.valid and result.pairings_main == l + 1 and terms == 3 * l + 1)
        except Exception as exc:  # an untyped error is a failed operation, not a crash
            outcome, terms = f"error:{type(exc).__name__}", 0
        seconds = time.perf_counter() - t0
        return Op(f"n{n}", seconds, outcome, failed, sigs=0 if failed else n,
                  miller_terms=terms, miller_budget=3 * l + 1)


class CliSigner(Workload):
    """The signer device: one CLI process per command, alternating extract
    of a new identity and sign with the key it stored, against a journal
    that set-up fills with keys, half of them used."""

    name = "cli-signer"
    in_process = False
    trace_cycles = 2

    def __init__(self, ctx):
        super().__init__(ctx)
        self.journal_keys = 8 if ctx.tiny else 128
        self._reps = 0
        self._pending = []

    def prepare_inputs(self):
        # the reference loop runs in this process and the commands in its
        # children; keep all of them on one CPU so both see the same speed
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def setup(self):
        d = self.ctx.workdir / f"cli-{self._reps}"
        self._reps += 1
        d.mkdir()
        engine = Bls12381Engine()
        rng = random.Random(f"{self.ctx.seed}:cli")
        master, params = scheme.root_setup(engine, rng)
        secret, record = scheme.lowerlevel_setup(engine, params, master, b"cli-ta", rng)
        envelopes.save_json(d / "ta.json", engine, record)
        envelopes.save_json(d / "ta-secret.json", engine, secret)
        with KeyStore(d / "keys.journal", engine) as store:
            for k in range(self.journal_keys):
                ident = f"dev-{rng.getrandbits(64):016x}-{k}".encode()
                entry = store.store_key(scheme.extract(engine, secret, record, ident))
                if k % 2 == 0:
                    store.sign_once(entry, record, gen.random_message(rng))
        self.dir, self.engine, self.params, self.record = d, engine, params, record

    def prepare(self, c):
        rng = random.Random(f"{self.ctx.seed}:cli:{c}")
        self._ident = f"veh-{rng.getrandbits(64):016x}-{c}"
        self._message = gen.random_message(rng)
        (self.dir / f"m{c}.bin").write_bytes(self._message)

    def cycle(self, c):
        extract, out = self._command("extract", [
            "extract", "--ta-secret", "ta-secret.json", "--ta-record", "ta.json",
            "--signer-id", self._ident, "--store", "keys.journal"])
        yield extract
        if extract.failed:
            return
        sign, _ = self._command("sign", [
            "sign", "--store", "keys.journal", "--entry-id", str(json.loads(out)["entry_id"]),
            "--ta-record", "ta.json", "--message-file", f"m{c}.bin", "--out", f"s{c}.json"])
        self._pending.append((sign, self._ident.encode(), self._message, f"s{c}.json"))
        yield sign

    def _command(self, key, args):
        stats = self.dir / "trace.json"
        stats.unlink(missing_ok=True)
        if self.tracer is None:
            cmd = [sys.executable, "-m", "mtaotibas.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "clitrace.py"), str(stats), *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.dir, env=self.ctx.env, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        if self.tracer is not None and stats.exists():
            self.tracer.merge(json.loads(stats.read_text(encoding="utf-8")))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return Op(key, seconds, f"exit {proc.returncode}", proc.returncode != 0), proc.stdout

    def finish(self, ops):
        """Every signature a sign command wrote must verify."""
        for op, ident, message, path in self._pending:
            if op.failed:
                continue
            sig = envelopes.load_json(self.dir / path, self.engine, "signature")
            bundle = scheme.AggregateBundle.build([(self.record, [(ident, message)])], sig.sigma)
            if scheme.verify(self.engine, self.params, bundle).valid:
                op.sigs = 1
            else:
                op.failed, op.outcome = True, "invalid signature"

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (VerifyCold, VerifyFleet, CliSigner, HonestRoundtrip)}
