"""Kernel rows of the traced run: the single-call costs of the ROADMAP
baseline table, each the median of a few calls on seeded inputs, plus the
start-up floor of a CLI process."""

import random
import statistics
import subprocess
import sys
import time

REPS = 5
SLOW_REPS = 3
REOPEN_KEYS = 16

# (name, unit, better) of every kernel row, in report order
KERNEL_METRICS = (
    ("pairing.kernel.hash_to_g1_ms", "ms", "lower"),
    ("pairing.kernel.g1_mul_ms", "ms", "lower"),
    ("pairing.kernel.g1_mul_plain_ms", "ms", "lower"),
    ("pairing.kernel.g2_mul_ms", "ms", "lower"),
    ("pairing.kernel.decode_g1_ms", "ms", "lower"),
    ("pairing.kernel.decode_g2_ms", "ms", "lower"),
    ("pairing.kernel.miller_1_ms", "ms", "lower"),
    ("pairing.kernel.miller_3_ms", "ms", "lower"),
    ("pairing.kernel.miller_5_ms", "ms", "lower"),
    ("pairing.kernel.final_exp_ms", "ms", "lower"),
    ("keystore.kernel.reopen_ms_per_key", "ms", "lower"),
    ("cli.startup_ms", "ms", "lower"),
)


def _median_ms(fn, args_list):
    times = []
    for args in args_list:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def kernel_rows(bls, scheme, keystore, seed, workdir, env):
    rng = random.Random(f"{seed}:kernels")

    def scalar():
        return rng.randrange(1 << 254, bls.ORDER)

    engine = bls.Bls12381Engine()
    g1, g2 = engine.g1.pt, engine.g2.pt
    p1 = [bls.g1_mul(g1, scalar()) for _ in range(REPS)]
    p2 = [bls.g2_mul(g2, scalar()) for _ in range(REPS)]
    rows = {
        "pairing.kernel.hash_to_g1_ms": _median_ms(
            bls.hash_to_g1_point, [(b"PERFBENCH-KERNEL", rng.randbytes(32)) for _ in range(REPS)]),
        "pairing.kernel.g1_mul_ms": _median_ms(bls.g1_mul, [(p, scalar()) for p in p1]),
        "pairing.kernel.g1_mul_plain_ms": _median_ms(bls.g1_mul_plain, [(p, scalar()) for p in p1]),
        "pairing.kernel.g2_mul_ms": _median_ms(bls.g2_mul, [(p, scalar()) for p in p2[:SLOW_REPS]]),
        "pairing.kernel.decode_g1_ms": _median_ms(bls.decode_g1_point, [(bls.encode_g1_point(p),) for p in p1]),
        "pairing.kernel.decode_g2_ms": _median_ms(bls.decode_g2_point, [(bls.encode_g2_point(p),) for p in p2]),
    }
    for terms in (1, 3, 5):
        pairs = list(zip(p1, p2))[:terms]
        rows[f"pairing.kernel.miller_{terms}_ms"] = _median_ms(bls.multi_miller_loop, [(pairs,)] * SLOW_REPS)
    f = bls.multi_miller_loop(list(zip(p1, p2))[:1])
    rows["pairing.kernel.final_exp_ms"] = _median_ms(bls.final_exponentiation, [(f,)] * SLOW_REPS)
    rows["keystore.kernel.reopen_ms_per_key"] = _reopen_per_key(bls, scheme, keystore, workdir, rng)
    rows["cli.startup_ms"] = _median_ms(
        lambda: subprocess.run([sys.executable, "-m", "mtaotibas.cli", "--help"], cwd=workdir, env=env,
                               stdout=subprocess.DEVNULL, check=True, timeout=60),
        [()] * REPS)
    return rows


def _reopen_per_key(bls, scheme, keystore, workdir, rng):
    engine = bls.Bls12381Engine()
    master, params = scheme.root_setup(engine, rng)
    secret, record = scheme.lowerlevel_setup(engine, params, master, b"kernel-ta", rng)
    path = workdir / "kernel.journal"
    with keystore.KeyStore(path, engine) as store:
        for k in range(REOPEN_KEYS):
            store.store_key(scheme.extract(engine, secret, record, f"kernel-{k}".encode()))

    def reopen():
        keystore.KeyStore(path, bls.Bls12381Engine()).close()

    return _median_ms(reopen, [()] * SLOW_REPS) / REOPEN_KEYS
