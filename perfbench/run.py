"""Benchmark of the mtaotibas verifiers, signer CLI and honest run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and uses the package under src/.
With --trace 0 it times whole operations for S seconds of busy time (whole
cycles) and reports the end-to-end metrics. With --trace 1 it runs a fixed
number of cycles with the layer wrappers installed, the same number again
without them, then the kernel rows, and reports the per-layer metrics.
Either way it checks every operation's outcome. The last line of stdout is
the result object; the line before it holds the run's stamp and details.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib.util import find_spec
from pathlib import Path

import kernels
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
IMPORT_REPS = 9
FLEET_MIN_REPEAT_FRAC = 0.99

# (name, unit, better) of every end-to-end metric. The host's CPU speed
# drifted (see reference.py), which moved medians in milliseconds of a 12 s
# run by 15-25 % between runs, and set-up times by up to half. Operation
# latency is therefore gated in units of the reference loop timed around
# each operation (`ref`), and set-up in seconds at the loop's nominal speed;
# milliseconds and throughputs are in the detail line. Only the median
# latency is gated: a cli-signer run holds about a dozen commands, too few
# for a higher percentile.
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("op_p50_ref", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
TRACE_METRICS = (
    ("trace.overhead_frac", "frac", "lower"),
    ("machine.reference_ms", "ms", "lower"),
)
# Times the package's import in a fresh interpreter at the nominal speed,
# with the reference loop run in that interpreter: a loop run in this
# process, maybe on the other CPU, tracked the import eight times worse.
IMPORT_CODE = ("import reference, time\n"
               "def timed():\n"
               "    t0 = time.perf_counter()\n"
               "    import mtaotibas.keystore, mtaotibas.pairing.bls12381\n"
               "    return time.perf_counter() - t0\n"
               "print(reference.at_nominal_speed(timed))")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("verify-cold", "verify-fleet", "cli-signer", "honest-roundtrip"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="Tiny shapes and fleet, for the smoke test.")
    return p.parse_args(argv)


def percentile(values, q):
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quantile_by_key(ops, q, value):
    """The q-quantile of value(op) over each key's honest operations,
    averaged over the keys, so every shape weighs the same and the figure
    does not fall between the latency clusters of different shapes. 0 when
    no honest operation succeeded (the run is then incorrect anyway)."""
    by_key = {}
    for op in ops:
        if not op.failed and not op.tampered:
            by_key.setdefault(op.key, []).append(value(op))
    if not by_key:
        return 0.0
    return statistics.fmean(percentile(v, q) for v in by_key.values())


def latency_ms(ops, q):
    return quantile_by_key(ops, q, lambda op: 1000.0 * op.seconds)


def latency_ref(ops, q):
    return quantile_by_key(ops, q, lambda op: op.seconds / op.ref)


def measure(bench, first_cycle, seconds=None, cycles=None):
    """Run whole cycles until `seconds` of busy time or `cycles` cycles,
    timing the reference loop between operations."""
    ops, busy, c = [], 0.0, first_cycle
    while (busy < seconds) if cycles is None else (c < first_cycle + cycles):
        bench.prepare(c)
        before = reference.seconds()
        for op in bench.cycle(c):
            after = reference.seconds()
            op.ref = (before + after) / 2
            before = after
            ops.append(op)
            busy += op.seconds
        c += 1
    return ops, busy, c


def import_seconds(env):
    """Import time of the package in a fresh interpreter, at the nominal speed."""
    env = dict(env, PYTHONPATH=f"{SRC}{os.pathsep}{HERE}")
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return float(proc.stdout)


def setup_seconds(bench, env):
    """Median import time plus median set-up time, at the nominal speed."""
    def setup():
        t0 = time.perf_counter()
        bench.setup()
        return time.perf_counter() - t0

    imports = [import_seconds(env) for _ in range(IMPORT_REPS)]
    setups = [reference.at_nominal_speed(setup) for _ in range(SETUP_REPS)]
    return statistics.median(imports) + statistics.median(setups)


def traced_phases(bench, tracer, watch, modules):
    """Run the first cycles traced, then as many cycles untraced to compare.
    In-process workloads are wrapped here; cli-signer's children wrap
    themselves and the workload merges their counters into `tracer`."""
    if bench.in_process:
        tracing.install_layers(tracer, *modules)
        terms0, (calls0, repeats0) = bench.engine.pairing_count, watch.snapshot()
    else:
        bench.tracer = tracer
    try:
        traced, _, next_cycle = measure(bench, 0, cycles=bench.trace_cycles)
    finally:
        tracer.uninstall()
        bench.tracer = None
    if bench.in_process:
        calls, repeats = watch.snapshot()
        tracer.counts["pairing.miller_terms"] = bench.engine.pairing_count - terms0
        tracer.counts["hash.calls"] = calls - calls0
        tracer.counts["hash.repeats"] = repeats - repeats0
    plain, _, _ = measure(bench, next_cycle, cycles=bench.trace_cycles)
    return traced, plain


def end_to_end(bench, ops, setup_s):
    return {
        "setup_s": setup_s,
        "op_p50_ref": latency_ref(ops, 0.5),
        "peak_rss_mb": bench.peak_rss_mb(),
    }


def named_metrics(workload, ops, busy):
    """The workload's figures under their own names, for the detail line."""
    if workload == "cli-signer":
        out = {}
        for key in ("sign", "extract"):
            mine = [op for op in ops if op.key == key]
            out[f"cli_{key}_p50_ms"] = latency_ms(mine, 0.5)
            out[f"cli_{key}_p90_ms"] = latency_ms(mine, 0.9)
        return out
    rate = len(ops) / busy
    if workload == "honest-roundtrip":
        return {"roundtrip_per_s": rate, "sigs_per_s": sum(op.sigs for op in ops) / busy,
                "trial_p50_ms": latency_ms(ops, 0.5), "trial_p90_ms": latency_ms(ops, 0.9)}
    out = {"bundles_per_s": rate, "sigs_per_s": sum(op.sigs for op in ops) / busy,
           "verify_p50_ms": latency_ms(ops, 0.5), "verify_p90_ms": latency_ms(ops, 0.9)}
    tampered = [op for op in ops if op.tampered]
    if tampered:
        rejected = sum(op.outcome.startswith("reject:") for op in tampered)
        out["tamper_rejects_per_s"] = rejected / sum(op.seconds for op in tampered)
    return out


def reject_stages(ops):
    stages = {}
    for op in ops:
        if op.outcome.startswith("reject:"):
            stage = op.outcome.split(":", 1)[1]
            stages[stage] = stages.get(stage, 0) + 1
    return stages


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mtaotibas" / "__init__.py").is_file():
        print(f"perfbench: no mtaotibas sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from mtaotibas import envelopes, keystore, scheme
    from mtaotibas.pairing import bls12381

    import workloads

    watch = tracing.HashWatch(bls12381.Bls12381Engine)
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "MTAOTIBAS_STORE"}
    env["PYTHONPATH"] = str(SRC)
    ctx = workloads.Context(args.seed, args.tiny, workdir, env)
    bench = workloads.WORKLOADS[args.workload](ctx)
    try:
        bench.prepare_inputs()
        setup_s = setup_seconds(bench, env)

        hashes0 = watch.snapshot()
        if args.trace:
            tracer = tracing.Tracer()
            traced, plain = traced_phases(bench, tracer, watch, (bls12381, envelopes, scheme, keystore))
            ops = traced + plain
        else:
            ops, busy, _ = measure(bench, 0, seconds=args.seconds)
        calls, repeats = watch.snapshot()
        bench.finish(ops)

        failed = sum(op.failed for op in ops)
        problems = [f"{failed} of {len(ops)} operations failed"] if failed else []
        hash_calls, hash_repeats = calls - hashes0[0], repeats - hashes0[1]
        repeat_frac = hash_repeats / hash_calls if hash_calls else 0.0
        if args.workload == "verify-cold" and hash_repeats:
            problems.append(f"verify-cold re-hashed {hash_repeats} inputs: the hash cache was warm")
        if args.workload == "verify-fleet" and repeat_frac < FLEET_MIN_REPEAT_FRAC:
            problems.append(f"verify-fleet hash repeat share {repeat_frac:.4f} < {FLEET_MIN_REPEAT_FRAC}")

        decided = traced if args.trace else ops
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "stamp": {
                "python": platform.python_version(),
                "gmpy2": find_spec("gmpy2") is not None,
                "nproc": os.cpu_count(),
            },
            "ops": len(ops),
            "reference_ms": 1000.0 * statistics.median(op.ref for op in ops),
            "failed_frac": failed / len(ops),
            "hash_to_g1_repeat_frac": repeat_frac,
            "rejects_by_stage": reject_stages(decided),
            "honest_miller_terms": sum(op.miller_terms for op in ops),
            "honest_miller_budget": sum(op.miller_budget for op in ops),
            "decisions": [op.outcome for op in decided],
            "problems": problems,
        }
        if args.trace:
            values = tracing.layer_values(tracer, len(traced), reject_stages(traced))
            values["trace.overhead_frac"] = latency_ref(traced, 0.5) / latency_ref(plain, 0.5) - 1.0
            values["machine.reference_ms"] = 1000.0 * statistics.median(op.ref for op in ops)
            values.update(kernels.kernel_rows(bls12381, scheme, keystore, args.seed, workdir, env))
            units = {name: unit for name, unit, _ in
                     tracing.LAYER_METRICS + TRACE_METRICS + kernels.KERNEL_METRICS}
        else:
            values = end_to_end(bench, ops, setup_s)
            units = {name: unit for name, unit, _ in E2E_METRICS}
            detail["samples_per_key"] = Counter(op.key for op in ops)
            detail["named_metrics"] = named_metrics(args.workload, ops, busy)
        print(json.dumps(detail))
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        print(json.dumps({
            "correct": not problems,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
