"""Command-line lifecycle: root setup, authority enrollment, key
extraction, one-time signing, aggregation, verification, and the security
harness, all operating on the JSON envelope files.

stdout carries one machine-readable JSON object per invocation; stderr
carries human diagnostics. Exit codes: 0 valid / success, 1 invalid
signature, 2 malformed input or usage error, 3 one-time violation.
"""

import itertools
import json
import random
import sys
from dataclasses import dataclass
from typing import Optional

import click

from . import envelopes, keystore, scheme
from .errors import KeyAlreadyUsed, MtaError
from .pairing import BACKENDS, get_engine

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_MALFORMED = 2
EXIT_ONE_TIME = 3

_COUNT = click.IntRange(min=0)
_POSITIVE = click.IntRange(min=1)

_BOUND_GRID = (0, 1, 5, 10, 50)


@dataclass
class CommandContext:
    seed: Optional[int]
    engine: object

    def rng(self):
        return random.Random(self.seed) if self.seed is not None else random.SystemRandom()


def emit(doc: dict) -> None:
    click.echo(json.dumps(doc, sort_keys=True))


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _ErrorBoundary(click.Group):
    """The command group. Its own callback and every command under it, the
    nested harness group's included, run inside this one error mapping."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except KeyAlreadyUsed as exc:
            _fail(EXIT_ONE_TIME, str(exc))
        # ValueError covers JSON and UTF-8 decoding; json raises RecursionError on deep nesting
        except (MtaError, OSError, ValueError, RecursionError) as exc:
            _fail(EXIT_MALFORMED, str(exc))


@click.group(cls=_ErrorBoundary)
@click.option("--backend", type=click.Choice(BACKENDS), default="production",
              show_default=True, help="Pairing engine to operate on.")
@click.option("--insecure-mock", is_flag=True,
              help="Acknowledge that the mock backend offers no security.")
@click.option("--seed", type=int, default=None,
              help="Deterministic randomness for tests and golden files.")
@click.option("--mock-table", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Test-vector file pinning mock hash outputs.")
@click.pass_context
def main(ctx, backend, insecure_mock, seed, mock_table):
    """Aggregate identity-based signatures across multiple authorities."""
    if backend == "mock" and not insecure_mock:
        raise click.UsageError("the mock backend is insecure; pass --insecure-mock to use it")
    if backend != "mock" and mock_table is not None:
        raise click.UsageError("--mock-table only applies to the mock backend")
    table = None
    if mock_table is not None:
        from .pairing.mock import load_vector_table

        table = load_vector_table(mock_table)
    ctx.obj = CommandContext(seed=seed, engine=get_engine(backend, mock_table=table))


@main.command("root-setup")
@click.option("--out-params", type=click.Path(dir_okay=False), required=True)
@click.option("--out-master", type=click.Path(dir_okay=False), required=True)
@click.pass_obj
def cmd_root_setup(obj, out_params, out_master):
    """Generate the master secret and public system parameters."""
    master, params = scheme.root_setup(obj.engine, obj.rng())
    envelopes.save_json(out_params, obj.engine, params)
    envelopes.save_json(out_master, obj.engine, master)
    emit({
        "backend": obj.engine.backend,
        "params": out_params,
        "master": out_master,
        "y": obj.engine.encode_g2(params.y).hex(),
    })


@main.command("ta-enroll")
@click.option("--params", "params_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--master", "master_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--ta-id", required=True, help="Authority identity (UTF-8).")
@click.option("--out-record", type=click.Path(dir_okay=False), required=True)
@click.option("--out-secret", type=click.Path(dir_okay=False), required=True)
@click.pass_obj
def cmd_ta_enroll(obj, params_path, master_path, ta_id, out_record, out_secret):
    """Enroll a lower-level authority under the root."""
    engine = obj.engine
    params = envelopes.load_json(params_path, engine, "system-params")
    master = envelopes.load_json(master_path, engine, "master-secret")
    secret, record = scheme.lowerlevel_setup(engine, params, master, ta_id.encode(), obj.rng())
    envelopes.save_json(out_record, engine, record)
    envelopes.save_json(out_secret, engine, secret)
    emit({
        "ta_identity": ta_id,
        "record": out_record,
        "secret": out_secret,
        "y_i": engine.encode_g2(record.y_i).hex(),
        "cert": engine.encode_g1(record.cert).hex(),
    })


@main.command("extract")
@click.option("--ta-secret", "secret_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--ta-record", "record_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--signer-id", required=True, help="Signer identity (UTF-8).")
@click.option("--store", "store_path", type=click.Path(dir_okay=False), default=None,
              help=f"Key journal path (default ${keystore.STORE_ENV} or ./mtaotibas-store.journal).")
@click.pass_obj
def cmd_extract(obj, secret_path, record_path, signer_id, store_path):
    """Derive a one-time signing key and store it fresh."""
    engine = obj.engine
    secret = envelopes.load_json(secret_path, engine, "ta-secret")
    record = envelopes.load_json(record_path, engine, "ta-record")
    key = scheme.extract(engine, secret, record, signer_id.encode())
    path = keystore.store_path_from_env(store_path)
    with keystore.KeyStore(path, engine) as store:
        entry_id = store.store_key(key)
    emit({"entry_id": entry_id, "signer_id": signer_id, "store": path})


@main.command("sign")
@click.option("--store", "store_path", type=click.Path(dir_okay=False), default=None)
@click.option("--entry-id", type=int, required=True)
@click.option("--ta-record", "record_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--message-file", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.pass_obj
def cmd_sign(obj, store_path, entry_id, record_path, message_file, out_path):
    """Produce the stored key's single signature over a message file."""
    engine = obj.engine
    record = envelopes.load_json(record_path, engine, "ta-record")
    with open(message_file, "rb") as fh:
        message = fh.read()
    path = keystore.store_path_from_env(store_path)
    with keystore.KeyStore(path, engine) as store:
        signature = store.sign_once(entry_id, record, message)
        digest = store.get(entry_id).message_digest
    envelopes.save_json(out_path, engine, signature)
    emit({
        "entry_id": entry_id,
        "signature": engine.encode_g1(signature.sigma).hex(),
        "message_digest": digest.hex(),
        "out": out_path,
    })


def _read_layout(path):
    """The layout file as [(ta_record path, [(signer_id, message_file)])]."""
    with open(path, "r", encoding="utf-8") as fh:
        layout = json.load(fh)
    groups = []
    for g in envelopes.member(layout, "groups", list, "layout"):
        signers = [
            (envelopes.member(s, "signer_id", str, "layout signer"),
             envelopes.member(s, "message_file", str, "layout signer"))
            for s in envelopes.member(g, "signers", list, "layout group")
        ]
        groups.append((envelopes.member(g, "ta_record", str, "layout group"), signers))
    return groups


@main.command("aggregate")
@click.option("--layout", "layout_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="JSON file declaring the authority grouping.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.argument("signature_files", nargs=-1, type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def cmd_aggregate(obj, layout_path, out_path, signature_files):
    """Combine signatures into an aggregate bundle.

    The layout declares groups of signers per authority record; signature
    files are consumed positionally in the layout's flattened signer order.
    """
    engine = obj.engine
    layout = _read_layout(layout_path)
    total = sum(len(signers) for _, signers in layout)
    if len(signature_files) != total:
        raise click.UsageError(
            f"layout names {total} signers but {len(signature_files)} signature files given"
        )
    sig_iter = iter(signature_files)
    groups, signatures = [], []
    for record_path, layout_signers in layout:
        record = envelopes.load_json(record_path, engine, "ta-record")
        signers = []
        for signer_id, message_file in layout_signers:
            with open(message_file, "rb") as fh:
                message = fh.read()
            signatures.append(envelopes.load_json(next(sig_iter), engine, "signature"))
            signers.append((signer_id.encode(), message))
        groups.append((record, signers))
    omega = scheme.aggregate(engine, signatures)
    bundle = scheme.AggregateBundle.build(groups, omega)
    envelopes.save_json(out_path, engine, bundle)
    emit({
        "groups": len(groups),
        "signers": total,
        "omega": engine.encode_g1(omega).hex(),
        "out": out_path,
    })


@main.command("verify")
@click.option("--params", "params_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--bundle", "bundle_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.pass_obj
def cmd_verify(obj, params_path, bundle_path):
    """Verify an aggregate bundle, authority certificates included; exit 0
    when valid, 1 when not."""
    engine = obj.engine
    params = envelopes.load_json(params_path, engine, "system-params")
    bundle = envelopes.load_json(bundle_path, engine, "aggregate-bundle")
    result = scheme.verify(engine, params, bundle)
    emit({
        "valid": result.valid,
        "reason": result.reason,
        "pairings_main": result.pairings_main,
        "pairings_certificates": result.pairings_certificates,
    })
    sys.exit(EXIT_VALID if result.valid else EXIT_INVALID)


# ---------------------------------------------------------------------------
# harness subcommands; each imports the harness itself, so that the other
# commands do not pay for loading it


@main.group()
def harness():
    """Run the security game's machinery."""


@harness.command("run")
@click.option("--workload", "workload_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--delta", type=float, default=None,
              help="Coin bias; defaults to the bound's optimizer for the workload.")
@click.option("--out-transcript", type=click.Path(dir_okay=False), default=None)
@click.pass_obj
def cmd_harness_run(obj, workload_path, delta, out_transcript):
    """Replay a JSON workload script against a fresh challenger."""
    from .harness.bounds import optimal_delta
    from .harness.challenger import Challenger, CoCDHInstance
    from .harness.workload import check_workload, run_workload

    engine = obj.engine
    with open(workload_path, "r", encoding="utf-8") as fh:
        ops = check_workload(json.load(fh))
    rng = obj.rng()
    if delta is None:
        q_c = sum(1 for o in ops if o.get("op") == "corrupt")
        q_e = sum(1 for o in ops if o.get("op") == "extract")
        q_s = sum(1 for o in ops if o.get("op") == "sign")
        delta = optimal_delta(q_c, q_e, q_s, 0)
    ch = Challenger(engine, CoCDHInstance.random(engine, rng), delta, rng)
    summary = run_workload(ch, ops)
    summary["delta"] = delta
    if out_transcript:
        with open(out_transcript, "w", encoding="utf-8") as fh:
            json.dump(ch.transcript(), fh, sort_keys=True, indent=1)
        summary["transcript"] = out_transcript
    emit(summary)


@harness.command("bound-check")
@click.option("--qc", type=_COUNT, default=None)
@click.option("--qe", type=_COUNT, default=None)
@click.option("--qs", type=_COUNT, default=None)
@click.option("--n", type=_COUNT, default=None)
@click.option("--grid", is_flag=True,
              help=f"Check every point of the {_BOUND_GRID} query grid instead of one point.")
def cmd_bound_check(qc, qe, qs, n, grid):
    """Check the success-probability bound in exact arithmetic."""
    from .harness.bounds import bound_check

    if grid:
        if (qc, qe, qs, n) != (None,) * 4:
            raise click.UsageError("--grid takes no --qc, --qe, --qs or --n")
        worst = None
        points = 0
        for point in itertools.product(_BOUND_GRID, repeat=4):
            rep = bound_check(*point)
            points += 1
            if not rep["holds"]:
                _fail(EXIT_INVALID, f"bound fails at {rep}")
            margin = rep["lhs_max"] - rep["rhs"]
            if worst is None or margin < worst[0]:
                worst = (margin, rep)
        emit({"points": points, "all_hold": True, "tightest": worst[1]})
        return
    if None in (qc, qe, qs, n):
        raise click.UsageError("provide --qc --qe --qs --n, or --grid")
    rep = bound_check(qc, qe, qs, n)
    emit(rep)
    if not rep["holds"]:
        sys.exit(EXIT_INVALID)


@harness.command("monte-carlo")
@click.option("--delta", type=float, required=True)
@click.option("--qc", type=_COUNT, default=5, show_default=True)
@click.option("--qe", type=_COUNT, default=5, show_default=True)
@click.option("--qs", type=_COUNT, default=5, show_default=True)
@click.option("--trials", type=_POSITIVE, default=100_000, show_default=True)
@click.pass_obj
def cmd_monte_carlo(obj, delta, qc, qe, qs, trials):
    """Estimate the no-abort probability for the standard workload; the
    trials are seeded by --seed, or by 0 without it."""
    from .harness.bounds import monte_carlo_abort

    rep = monte_carlo_abort(delta, qc, qe, qs, trials=trials, seed=obj.seed or 0)
    emit(rep)
    if not rep["passes"]:
        sys.exit(EXIT_INVALID)


if __name__ == "__main__":
    main()
