"""Run one mtaotibas CLI command with the benchmark's layer wrappers
installed, then write the span counters to a JSON file:

    python3 perfbench/clitrace.py STATS_OUT CLI_ARGS...

The exit code is the command's own.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(stats_out, args):
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from mtaotibas import cli, envelopes, keystore, scheme
    from mtaotibas.pairing import bls12381, get_engine

    watch = tracing.HashWatch(bls12381.Bls12381Engine)
    tracer = tracing.Tracer()
    tracing.install_layers(tracer, bls12381, envelopes, scheme, keystore)
    try:
        cli.main(args=args, prog_name="mtaotibas")
    finally:
        tracer.counts["pairing.miller_terms"] = get_engine("production").pairing_count
        tracer.counts["hash.calls"], tracer.counts["hash.repeats"] = watch.snapshot()
        tracer.dump(stats_out)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
