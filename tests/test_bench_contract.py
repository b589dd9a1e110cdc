"""The names the benchmark in ``perfbench/`` reads from the program.

The benchmark wraps engine methods and module functions by name and calls
kernels as ``bls.<name>``, so deleting or renaming one breaks only the
traced benchmark run. These tests read ``perfbench/`` and fail here first.
"""

import ast
import dataclasses
import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

from mtaotibas import envelopes, keystore, scheme
from mtaotibas.pairing import bls12381

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BLS_ALIASES = ("bls", "bls12381")  # the names perfbench binds the module to
BLS_MODULE = "mtaotibas.pairing.bls12381"
# the program modules perfbench reads by name, directly or as self.<name>
MODULES = {"scheme": scheme, "envelopes": envelopes, "keystore": keystore}


def _perfbench_trees():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_layers_patches_and_restores():
    tracing = _load_tracing()
    owners = (bls12381, bls12381.Bls12381Engine, envelopes, scheme, keystore.KeyStore)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer, bls12381, envelopes, scheme, keystore)
        patched = {attr for owner, saved in zip(owners, before)
                   for attr, value in saved.items() if vars(owner)[attr] is not value}
    finally:
        tracer.uninstall()
    assert patched >= {"pair", "multi_pair", "hash_to_g1", "decode_g1", "decode_g2", "g1_mul", "g2_mul",
                       "multi_miller_loop", "final_exponentiation", "from_json_obj", "verify",
                       "__init__", "store_key"}
    for owner, saved in zip(owners, before):
        assert dict(vars(owner)) == saved, owner


def _bls_names_read(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in BLS_ALIASES:
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == BLS_MODULE:
            names.update(alias.name for alias in node.names)
    return names


def test_every_bls_name_perfbench_reads_exists():
    read = {}
    for file, tree in _perfbench_trees():
        for name in _bls_names_read(tree):
            read.setdefault(name, []).append(file)
    assert {"Bls12381Engine", "g1_mul", "multi_miller_loop", "decode_g2_point"} <= set(read)
    missing = {name: files for name, files in read.items() if not hasattr(bls12381, name)}
    assert not missing, f"perfbench reads names the BLS12-381 module lacks: {missing}"


def test_traced_multi_pair_counts_on_the_cached_path():
    # the benchmark reads pairing.final_exps from the wrapped module-level
    # final_exponentiation and pairing.miller_terms from pairing_count; a
    # pairing on cached Miller lines must still reach both
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    engine = bls12381.Bls12381Engine()
    terms = [(engine.g1 ** k, engine.g2 ** (k + 3)) for k in (2, 5, 7)]
    try:
        tracing.install_layers(tracer, bls12381, envelopes, scheme, keystore)
        for cached in (0, 3):
            assert len(engine._lines) == cached
            before, exps = engine.pairing_count, tracer.calls["pairing.final_exponentiation"]
            engine.multi_pair(terms)
            assert engine.pairing_count - before == 3
            assert tracer.calls["pairing.final_exponentiation"] - exps == 1
            assert tracer.calls["pairing.multi_pair"] == 1 + cached // 3
    finally:
        tracer.uninstall()


def test_traced_hash_to_g1_counts_memo_hits():
    # the benchmark reads pairing.hash_to_g1_calls from the traced method and
    # the repeat share from HashWatch; a memo hit must still reach both
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    engine_class = bls12381.Bls12381Engine
    original = vars(engine_class)["hash_to_g1"]
    try:
        watch = tracing.HashWatch(engine_class)  # it has no uninstall
        tracing.install_layers(tracer, bls12381, envelopes, scheme, keystore)
        engine = engine_class()
        first = engine.hash_to_g1(b"T", b"memo hit")
        assert engine.hash_to_g1(b"T", b"memo hit") == first
        assert engine._hash_g1.cache_info().hits == 1
        assert tracer.calls["pairing.hash_to_g1"] == 2
        assert watch.snapshot() == (2, 1)
    finally:
        tracer.uninstall()
        engine_class.hash_to_g1 = original
    assert vars(engine_class)["hash_to_g1"] is original


def test_traced_decode_counts_memo_hits():
    # the benchmark reads pairing.decode_g1_calls/decode_g2_calls from the
    # traced methods; a memo hit must still count as a call, while the raw
    # decoder runs once per encoding
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    engine = bls12381.Bls12381Engine()
    encodings = {"g1": engine.encode_g1(engine.g1 ** 5), "g2": engine.encode_g2(engine.g2 ** 7)}
    try:
        tracing.install_layers(tracer, bls12381, envelopes, scheme, keystore)
        for group, data in encodings.items():
            decode = getattr(engine, f"decode_{group}")
            assert decode(data) == decode(bytearray(data))
            assert tracer.calls[f"pairing.decode_{group}"] == 2
            info = getattr(engine, f"_decoded_{group}").cache_info()
            assert (info.hits, info.misses) == (1, 1)
    finally:
        tracer.uninstall()


def _module_path(node):
    """(module name, attribute path) of ``scheme.a.b`` or ``self.scheme.a.b``;
    None for any other expression."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and attrs and attrs[0] in MODULES:
        return attrs[0], attrs[1:]
    if isinstance(node, ast.Name) and node.id in MODULES and attrs:
        return node.id, attrs
    return None


def _resolve(module, attrs):
    obj = MODULES[module]
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_every_program_name_perfbench_reads_exists_and_accepts_its_call():
    read, calls = {}, []
    for name, tree in _perfbench_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in {f"mtaotibas.{m}" for m in MODULES}:
                for alias in node.names:
                    read.setdefault((node.module.split(".")[1], alias.name), set()).add(name)
            found = _module_path(node) if isinstance(node, ast.Attribute) else None
            if found and found[1]:
                read.setdefault((found[0], ".".join(found[1])), set()).add(name)
            if isinstance(node, ast.Call) and _module_path(node.func):
                calls.append((name, node))
    assert {("scheme", "verify"), ("scheme", "AggregateBundle.build"), ("envelopes", "to_json_obj"),
            ("keystore", "KeyStore"), ("scheme", "engine_hashes")} <= set(read)
    missing = {}
    for (module, dotted), files in read.items():
        try:
            _resolve(module, dotted.split("."))
        except AttributeError:
            missing[f"{module}.{dotted}"] = sorted(files)
    assert not missing, f"perfbench reads names the program lacks: {missing}"
    for name, call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            continue
        target = _resolve(*_module_path(call.func))
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"{name}:{call.lineno}: {ast.unparse(call.func)}: {exc}") from None


def _is_engine_hashes(node):
    return isinstance(node, ast.Call) and _module_path(node.func) == ("scheme", ["engine_hashes"])


def test_every_hash_suite_field_perfbench_reads_exists():
    read = set()
    for _, tree in _perfbench_trees():
        # expressions bound to a suite, such as ``self.hashes``
        holders = {ast.unparse(target) for node in ast.walk(tree)
                   if isinstance(node, ast.Assign) and _is_engine_hashes(node.value)
                   for target in node.targets}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and (_is_engine_hashes(node.value) or ast.unparse(node.value) in holders)}
    assert "identity_point" in read
    fields = {field.name for field in dataclasses.fields(scheme.HashSuite)}
    assert read <= fields, f"perfbench reads suite fields HashSuite lacks: {read - fields}"


def test_every_reject_stage_is_a_verify_reason(fixed_scenario):
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    (stages,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 and [ast.unparse(t) for t in node.targets] == ["STAGES"]]
    eng, params, bundle = fixed_scenario["engine"], fixed_scenario["params"], fixed_scenario["bundle"]
    (ta, signers), rest = bundle.groups[0], bundle.groups[1:]
    bad_cert = replace(bundle, groups=((replace(ta, cert=ta.cert * eng.g1), signers),) + rest)
    bad_aggregate = replace(bundle, omega=bundle.omega * eng.g1)
    reasons = {scheme.verify(eng, params, b).reason for b in (bad_cert, bad_aggregate)}
    assert set(stages) <= reasons, (stages, reasons)


def test_traced_keystore_open_counts_records(fixed_scenario, tmp_path):
    # the benchmark's open hook reads entries(), each entry's status and the
    # store's path to count records and journal bytes
    eng, (_, trec) = fixed_scenario["engine"], fixed_scenario["tas"][b"TA-1"]
    path = tmp_path / "keys.journal"
    with keystore.KeyStore(path, eng) as store:
        first = store.store_key(fixed_scenario["keys"][b"ID-A"])
        store.store_key(fixed_scenario["keys"][b"ID-B"])
        store.sign_once(first, trec, b"message-1")
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer, bls12381, envelopes, scheme, keystore)
        keystore.KeyStore(path, eng).close()
    finally:
        tracer.uninstall()
    assert tracer.calls["keystore.open"] == 1
    assert tracer.counts["keystore.records"] == 3
    assert tracer.counts["keystore.journal_bytes"] == path.stat().st_size
