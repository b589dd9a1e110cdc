"""Timing wrappers that the benchmark installs around the public calls of
each layer, and the always-on hash-repeat watch.

A span is one wrapped call. Spans nest (a bundle decode calls the G1 and
G2 decoders), so each name accumulates its call count, its inclusive time
and its self time: the inclusive time minus the time of the wrapped calls
it made, and the number of calls that raised. Nothing here imports the
program; callers pass its modules in.
"""

import functools
import json
import os
import time
from collections import defaultdict


class Tracer:
    """Counters per span name, filled by wrappers that ``install_layers``
    patches into the program's modules and classes."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.errors = defaultdict(int)
        self.counts = defaultdict(float)
        self._open = []  # child time accumulated by each open span
        self._patches = []

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a timed wrapper. ``after(args, result)``
        runs once the timed call has returned, outside its span."""
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                child = self._open.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                if self._open:
                    self._open[-1] += dt
            if after is not None:
                after(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_json(self):
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
        }

    def merge(self, doc):
        for field, target in (("calls", self.calls), ("total", self.total),
                              ("self", self.self_time), ("errors", self.errors),
                              ("counts", self.counts)):
            for name, value in doc[field].items():
                target[name] += value

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


class HashWatch:
    """Counts ``hash_to_g1`` calls whose (tag, input) this process has
    hashed before, on any engine. Installed before the first engine is
    built, so a repeat share of 0 proves the inputs were never hashed here."""

    def __init__(self, engine_class):
        self.calls = 0
        self.repeats = 0
        self._seen = set()
        original = engine_class.hash_to_g1

        @functools.wraps(original)
        def watched(engine, tag, data):
            key = (bytes(tag), bytes(data))
            self.calls += 1
            if key in self._seen:
                self.repeats += 1
            else:
                self._seen.add(key)
            return original(engine, tag, data)

        engine_class.hash_to_g1 = watched

    def snapshot(self):
        return self.calls, self.repeats


def install_layers(tracer, bls, envelopes, scheme, keystore):
    """Wrap the public calls of the pairing, envelopes, scheme and keystore
    layers. Module functions are looked up by name at call time, so patching
    the module attribute reaches every caller, including the engine's group
    element operators."""
    engine = bls.Bls12381Engine
    for attr in ("pair", "multi_pair", "hash_to_g1", "decode_g1", "decode_g2"):
        tracer.wrap(engine, attr, f"pairing.{attr}")
    for attr in ("g1_mul", "g2_mul", "multi_miller_loop", "final_exponentiation"):
        tracer.wrap(bls, attr, f"pairing.{attr}")
    for attr in ("from_json_obj", "to_json_obj", "load_json", "save_json"):
        tracer.wrap(envelopes, attr, f"envelopes.{attr}")
    for attr in ("root_setup", "lowerlevel_setup", "extract", "sign", "aggregate", "verify"):
        tracer.wrap(scheme, attr, f"scheme.{attr}")

    def opened(args, _result):
        store = args[0]
        entries = store.entries()
        records = len(entries) + sum(e.status == keystore.STATUS_USED for e in entries.values())
        tracer.counts["keystore.records"] += records
        tracer.counts["keystore.journal_bytes"] += os.path.getsize(store.path)

    tracer.wrap(keystore.KeyStore, "__init__", "keystore.open", after=opened)
    for attr in ("store_key", "sign_once"):
        tracer.wrap(keystore.KeyStore, attr, f"keystore.{attr}")


# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("pairing.miller_terms", "count/op", "lower"),
    ("pairing.final_exps", "count/op", "lower"),
    ("pairing.multi_pair_ms", "ms/op", "lower"),
    ("pairing.hash_to_g1_calls", "count/op", "lower"),
    ("pairing.hash_to_g1_ms", "ms/op", "lower"),
    ("pairing.hash_to_g1_repeat_frac", "frac", "higher"),
    ("pairing.decode_g1_calls", "count/op", "lower"),
    ("pairing.decode_g1_ms", "ms/op", "lower"),
    ("pairing.decode_g2_calls", "count/op", "lower"),
    ("pairing.decode_g2_ms", "ms/op", "lower"),
    ("pairing.g1_pow_calls", "count/op", "lower"),
    ("pairing.g1_pow_ms", "ms/op", "lower"),
    ("pairing.g2_pow_calls", "count/op", "lower"),
    ("pairing.g2_pow_ms", "ms/op", "lower"),
    ("envelopes.decode_self_ms", "ms/op", "lower"),
    ("envelopes.decode_rejects", "count/op", "higher"),
    ("scheme.verify_self_ms", "ms/op", "lower"),
    ("scheme.rejects_by_stage.decode", "count/op", "higher"),
    ("scheme.rejects_by_stage.certificate", "count/op", "lower"),
    ("scheme.rejects_by_stage.equation", "count/op", "lower"),
    ("keystore.open_ms", "ms/op", "lower"),
    ("keystore.replay_ms_per_record", "ms/record", "lower"),
    ("keystore.append_ms", "ms/op", "lower"),
    ("keystore.journal_bytes_per_record", "B/record", "lower"),
)


def layer_values(tracer, ops, rejects):
    """Per-operation figures from a traced phase of ``ops`` operations.
    ``rejects`` maps a rejection stage to its count in that phase."""
    calls, total, self_time, counts = tracer.calls, tracer.total, tracer.self_time, tracer.counts
    errors = tracer.errors  # load_json decodes through from_json_obj, so count that alone

    def per_op(x):
        return x / ops

    def ms(x):
        return 1000.0 * x / ops

    records = counts["keystore.records"]
    hash_calls = counts["hash.calls"]
    return {
        "pairing.miller_terms": per_op(counts["pairing.miller_terms"]),
        "pairing.final_exps": per_op(calls["pairing.final_exponentiation"]),
        "pairing.multi_pair_ms": ms(total["pairing.multi_pair"] + total["pairing.pair"]),
        "pairing.hash_to_g1_calls": per_op(calls["pairing.hash_to_g1"]),
        "pairing.hash_to_g1_ms": ms(total["pairing.hash_to_g1"]),
        "pairing.hash_to_g1_repeat_frac": counts["hash.repeats"] / hash_calls if hash_calls else 0.0,
        "pairing.decode_g1_calls": per_op(calls["pairing.decode_g1"]),
        "pairing.decode_g1_ms": ms(total["pairing.decode_g1"]),
        "pairing.decode_g2_calls": per_op(calls["pairing.decode_g2"]),
        "pairing.decode_g2_ms": ms(total["pairing.decode_g2"]),
        "pairing.g1_pow_calls": per_op(calls["pairing.g1_mul"]),
        "pairing.g1_pow_ms": ms(total["pairing.g1_mul"]),
        "pairing.g2_pow_calls": per_op(calls["pairing.g2_mul"]),
        "pairing.g2_pow_ms": ms(total["pairing.g2_mul"]),
        "envelopes.decode_self_ms": ms(self_time["envelopes.from_json_obj"] + self_time["envelopes.load_json"]),
        "envelopes.decode_rejects": per_op(errors["envelopes.from_json_obj"]),
        "scheme.verify_self_ms": ms(self_time["scheme.verify"]),
        "scheme.rejects_by_stage.decode": per_op(rejects.get("decode", 0)),
        "scheme.rejects_by_stage.certificate": per_op(rejects.get("certificate", 0)),
        "scheme.rejects_by_stage.equation": per_op(rejects.get("equation", 0)),
        "keystore.open_ms": ms(total["keystore.open"]),
        "keystore.replay_ms_per_record": 1000.0 * total["keystore.open"] / records if records else 0.0,
        "keystore.append_ms": ms(self_time["keystore.store_key"] + self_time["keystore.sign_once"]),
        "keystore.journal_bytes_per_record": counts["keystore.journal_bytes"] / records if records else 0.0,
    }
