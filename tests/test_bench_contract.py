"""The names the benchmark in ``perfbench/`` reads from the program.

The benchmark wraps engine methods and module functions by name and calls
kernels as ``bls.<name>``, so deleting or renaming one breaks only the
traced benchmark run. These tests read ``perfbench/`` and fail here first.
"""

import ast
import importlib.util
from pathlib import Path

from mtaotibas import envelopes, keystore, scheme
from mtaotibas.pairing import bls12381

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BLS_ALIASES = ("bls", "bls12381")  # the names perfbench binds the module to
BLS_MODULE = "mtaotibas.pairing.bls12381"


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
    assert patched >= {"multi_pair", "decode_g2", "g1_mul", "g2_mul", "multi_miller_loop",
                       "final_exponentiation", "from_json_obj", "verify", "__init__", "store_key"}
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
    for path in sorted(PERFBENCH.glob("*.py")):
        for name in _bls_names_read(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            read.setdefault(name, []).append(path.name)
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
