import copy
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import mtaotibas
from mtaotibas import scheme
from mtaotibas.cli import main
from mtaotibas.errors import InvalidElement, KeyAlreadyUsed
from mtaotibas.harness.bounds import monte_carlo_abort
from mtaotibas.pairing import get_engine

from conftest import CLI_LAYOUT
from conftest import CLI_MOCK_ARGS as MOCK
from conftest import cli_lifecycle_steps, prepare_cli_dir

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_cli.json").read_text())
ENVELOPES = {
    name: json.loads(vector["json"])
    for name, vector in json.loads((DATA / "golden_envelopes.json").read_text())["mock"].items()
}


def run(runner, args, **kw):
    result = runner.invoke(main, args, catch_exceptions=False, **kw)
    return result


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    prepare_cli_dir(tmp_path)
    return tmp_path


def drive_lifecycle(runner):
    """The pinned 3-signer/2-authority scenario; returns step -> stdout."""
    out = {}
    for name, args in cli_lifecycle_steps():
        result = run(runner, args)
        assert result.exit_code == 0, f"{name}: {result.output}"
        out[name] = result.output.rstrip("\n")
    return out


def test_golden_lifecycle_stdout(workdir):
    got = drive_lifecycle(CliRunner())
    assert got == GOLDEN


def test_lifecycle_known_values(workdir):
    got = drive_lifecycle(CliRunner())
    # the pinned scenario's signature values, hand-checked mod 1009
    assert json.loads(got["sign-1"])["signature"] == "00fd"  # 253
    assert json.loads(got["sign-2"])["signature"] == "0268"  # 616
    assert json.loads(got["sign-3"])["signature"] == "0104"  # 260
    agg = json.loads(got["aggregate"])
    assert agg["omega"] == "0078"  # 1129 mod 1009 = 120
    ver = json.loads(got["verify"])
    assert ver["valid"] is True
    assert ver["pairings_main"] == 3  # l+1 with l=2


def test_lifecycle_deterministic(workdir):
    first = drive_lifecycle(CliRunner())
    for f in Path(".").glob("*.json"):
        if f.name != "layout.json":
            f.unlink()
    Path("keys.journal").unlink()
    second = drive_lifecycle(CliRunner())
    assert first == second


def test_second_sign_exits_3(workdir):
    runner = CliRunner()
    drive_lifecycle(runner)
    result = run(runner, MOCK + ["sign", "--store", "keys.journal", "--entry-id", "1",
                                 "--ta-record", "ta1.json", "--message-file", "m1.bin",
                                 "--out", "s1-again.json"])
    assert result.exit_code == 3


def test_verify_tampered_bundle_exits_1(workdir):
    runner = CliRunner()
    drive_lifecycle(runner)
    doc = json.loads(Path("bundle.json").read_text())
    doc["fields"]["omega"] = "0079"  # valid encoding, wrong element
    Path("bundle.json").write_text(json.dumps(doc))
    result = run(runner, MOCK + ["verify", "--params", "params.json", "--bundle", "bundle.json"])
    assert result.exit_code == 1
    assert json.loads(result.output)["valid"] is False


def test_verify_undecodable_bundle_exits_2(workdir):
    runner = CliRunner()
    drive_lifecycle(runner)
    doc = json.loads(Path("bundle.json").read_text())
    doc["fields"]["omega"] = "ffff"  # 65535 is no element of Z_1009
    Path("bundle.json").write_text(json.dumps(doc))
    result = run(runner, MOCK + ["verify", "--params", "params.json", "--bundle", "bundle.json"])
    assert result.exit_code == 2


def test_production_lifecycle_exit_codes(workdir):
    # the pinned lifecycle on the production backend: verify exits 0 with
    # l + 1 = 3 main and 2l = 4 certificate pairings; an aggregate or a
    # certificate moved by g1 still decodes, and exits 1 naming the failed
    # check. Both products are paired and reported on a reject too, the main
    # equation after a certificate failure included
    runner = CliRunner()
    for name, args in cli_lifecycle_steps():
        assert args[:len(MOCK)] == MOCK
        result = run(runner, args[len(MOCK):])
        assert result.exit_code == 0, f"{name}: {result.output}"
    assert json.loads(result.output) == {"valid": True, "reason": "", "pairings_main": 3,
                                         "pairings_certificates": 4}
    engine = get_engine("production")
    honest = Path("bundle.json").read_text()

    def moved(point):
        return (engine.decode_g1(bytes.fromhex(point)) * engine.g1).encode().hex()

    for slot, reason in ((("omega",), "aggregate equation failed"),
                         (("groups", 0, "ta_record", "cert"), "certificate check failed")):
        doc = json.loads(honest)
        *path, last = slot
        node = doc["fields"]
        for key in path:
            node = node[key]
        node[last] = moved(node[last])
        Path("bundle.json").write_text(json.dumps(doc))
        before = engine.pairing_count
        result = run(runner, ["verify", "--params", "params.json", "--bundle", "bundle.json"])
        assert result.exit_code == 1, f"{slot}: {result.output}"
        assert json.loads(result.output) == {"valid": False, "reason": reason, "pairings_main": 3,
                                             "pairings_certificates": 4}
        assert engine.pairing_count - before == 3 + 4


def test_extract_writes_no_key_file(workdir):
    # a key in its own envelope could sign outside the journal's single-use
    # rule, so extract offers no way to write one
    runner = CliRunner()
    drive_lifecycle(runner)
    result = run(runner, MOCK + ["extract", "--ta-secret", "ta1-secret.json", "--ta-record", "ta1.json",
                                 "--signer-id", "ID-D", "--store", "keys.journal", "--out-key", "k.json"])
    assert result.exit_code == 2
    assert "--out-key" in result.stderr
    assert not Path("k.json").exists()


def test_verify_checks_certificates_with_no_way_round(workdir):
    # ID-C's key and signature come from a TA-2 enrolled under a second
    # root: the signatures hold, but its certificate does not chain to
    # params.json, and the CLI offers no option to skip that check
    runner = CliRunner()
    drive_lifecycle(runner)
    for args in (["--seed", "7", "root-setup", "--out-params", "params2.json",
                  "--out-master", "master2.json"],
                 ["--seed", "8", "ta-enroll", "--params", "params2.json",
                  "--master", "master2.json", "--ta-id", "TA-2",
                  "--out-record", "ta2-rogue.json", "--out-secret", "ta2-rogue-secret.json"],
                 ["extract", "--ta-secret", "ta2-rogue-secret.json", "--ta-record", "ta2-rogue.json",
                  "--signer-id", "ID-C", "--store", "rogue.journal"],
                 ["sign", "--store", "rogue.journal", "--entry-id", "1", "--ta-record", "ta2-rogue.json",
                  "--message-file", "m3.bin", "--out", "s3-rogue.json"]):
        assert run(runner, MOCK + args).exit_code == 0, args
    layout = copy.deepcopy(CLI_LAYOUT)
    layout["groups"][1]["ta_record"] = "ta2-rogue.json"
    Path("layout-rogue.json").write_text(json.dumps(layout))
    result = run(runner, MOCK + ["aggregate", "--layout", "layout-rogue.json", "--out", "rogue.json",
                                 "s1.json", "s2.json", "s3-rogue.json"])
    assert result.exit_code == 0
    verify = MOCK + ["verify", "--params", "params.json", "--bundle", "rogue.json"]
    result = run(runner, verify)
    assert result.exit_code == 1
    assert json.loads(result.output)["reason"] == "certificate check failed"
    result = run(runner, verify + ["--no-check-certs"])
    assert result.exit_code == 2
    assert "--no-check-certs" in result.stderr


def test_verify_fuzzed_bundle_never_accepts(workdir):
    # flipping one hex digit anywhere must yield exit 1 (decodes, fails) or
    # exit 2 (no longer decodes), never 0
    import random as _random

    runner = CliRunner()
    drive_lifecycle(runner)
    original = Path("bundle.json").read_text()
    rng = _random.Random(1234)
    flips = 0
    for _ in range(60):
        text = list(original)
        candidates = [i for i, c in enumerate(text) if c in "0123456789abcdef"]
        pos = rng.choice(candidates)
        replacement = rng.choice([c for c in "0123456789abcdef" if c != text[pos]])
        text[pos] = replacement
        mutated = "".join(text)
        try:
            if json.loads(mutated) == json.loads(original):
                continue  # flip landed in insignificant whitespace
        except json.JSONDecodeError:
            pass  # unparseable bundles must exit 2 below
        Path("bundle.json").write_text(mutated)
        result = CliRunner().invoke(
            main, MOCK + ["verify", "--params", "params.json", "--bundle", "bundle.json"]
        )
        assert result.exit_code in (1, 2), f"fuzz flip accepted: {mutated}"
        flips += 1
    Path("bundle.json").write_text(original)
    assert flips > 40


def test_mock_requires_opt_in(workdir):
    result = CliRunner().invoke(
        main,
        ["--backend", "mock", "root-setup", "--out-params", "p.json", "--out-master", "m.json"],
    )
    assert result.exit_code == 2
    assert "--insecure-mock" in result.output


def test_mock_table_rejected_on_production(workdir):
    result = CliRunner().invoke(
        main,
        ["--backend", "production", "--mock-table", "vectors.txt", "root-setup",
         "--out-params", "p.json", "--out-master", "m.json"],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("content", [
    b"garbage line\n",
    b"hash_to_g1 | zz 00 | 0001\n",
    b"hash_to_g2 | 00 00 | 0001\n",
    b"\xff\xfe hash_to_g1 | 00 00 | 0001\n",
    b"hash_to_g1 | 4d 41 | 03f1\n",
    b"hash_to_g1 | 4d 41 | ffff\n",
    b"hash_to_scalar | 4d 41 | 0000\n",
    b"hash_to_scalar | 4d 41 | 2710\n",
    b"hash_to_g1 | 4D 41 | 000a\n",
    b"hash_to_g1 | 4d 41 | 00 0a\n",
    b"hash_to_g1 | 4d 41 | FFFF\n",
    b"hash_to_g1 | 4d 41 | 0003\nhash_to_g1 | 4d 41 | 0005\n",
], ids=["no-fields", "bad-hex", "unknown-op", "not-utf8", "g1-at-q", "g1-above-q", "scalar-zero",
        "scalar-above-q", "uppercase-input", "spaced-output", "uppercase-output", "duplicate"])
def test_malformed_mock_table_exits_2(workdir, content):
    Path("vectors.txt").write_bytes(content)
    result = CliRunner().invoke(main, MOCK + ["root-setup", "--out-params", "p.json", "--out-master", "m.json"])
    assert result.exit_code == 2, result.output
    assert "error:" in result.stderr.lower()
    assert isinstance(result.exception, SystemExit)
    if content.isascii():  # the error is on the last line
        last = content.count(b"\n")
        assert f"vectors.txt:{last}:" in result.stderr, result.stderr


def test_aggregate_argument_count_checked(workdir):
    runner = CliRunner()
    drive_lifecycle(runner)
    result = CliRunner().invoke(main, MOCK + ["aggregate", "--layout", "layout.json",
                                              "--out", "b.json", "s1.json"])
    assert result.exit_code == 2


def test_commands_do_not_mutate_inputs(workdir):
    runner = CliRunner()
    drive_lifecycle(runner)
    before = {p.name: p.read_bytes() for p in Path(".").glob("*.json")}
    run(runner, MOCK + ["verify", "--params", "params.json", "--bundle", "bundle.json"])
    after = {p.name: p.read_bytes() for p in Path(".").glob("*.json")}
    assert before == after


def test_harness_run_and_transcript(workdir):
    ops = [
        {"op": "lowerlevel_setup", "ta": "T1"},
        {"op": "h0", "id": "alice", "bit": 0},
        {"op": "h1", "id": "alice", "message": "m", "ta": "T1"},
        {"op": "corrupt", "ta": "T1"},
    ]
    Path("workload.json").write_text(json.dumps(ops))
    result = run(CliRunner(), MOCK + ["--seed", "5", "harness", "run",
                                      "--workload", "workload.json", "--delta", "0.0",
                                      "--out-transcript", "transcript.json"])
    assert result.exit_code == 0
    summary = json.loads(result.output)
    assert summary["aborted"] is False
    transcript = json.loads(Path("transcript.json").read_text())
    assert transcript["counts"]["corrupt"] == 1
    assert transcript["abort_site"] is None


def test_harness_run_deterministic_under_seed(workdir):
    ops = [{"op": "extract", "id": f"u{i}", "ta": f"t{i}"} for i in range(5)]
    Path("workload.json").write_text(json.dumps(ops))
    args = MOCK + ["--seed", "9", "harness", "run", "--workload", "workload.json", "--delta", "0.4"]
    one = run(CliRunner(), args).output
    two = run(CliRunner(), args).output
    assert one == two


def test_harness_bound_check_point(workdir):
    result = run(CliRunner(), ["harness", "bound-check", "--qc", "10", "--qe", "10",
                               "--qs", "10", "--n", "5"])
    assert result.exit_code == 0
    rep = json.loads(result.output)
    assert rep["holds"] is True


def test_harness_bound_check_grid(workdir):
    result = run(CliRunner(), ["harness", "bound-check", "--grid"])
    assert result.exit_code == 0
    rep = json.loads(result.output)
    assert rep["points"] == 625
    assert rep["all_hold"] is True


@pytest.mark.parametrize("option", ["--qc", "--qe", "--qs", "--n"])
def test_harness_bound_check_grid_with_point_exits_2(workdir, option):
    result = run(CliRunner(), ["harness", "bound-check", "--grid", option, "3"])
    assert result.exit_code == 2, result.output
    assert "--grid" in result.stderr


def _fresh_interpreter(code):
    src = str(Path(mtaotibas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)


def test_cli_import_leaves_harness_unloaded():
    # a production command needs neither the harness nor the mock backend
    code = ("import sys, mtaotibas.cli\n"
            "loaded = sorted({'mtaotibas.harness', 'mtaotibas.pairing.mock'} & set(sys.modules))\n"
            "sys.exit(f'loaded {loaded}' if loaded else 0)")
    result = _fresh_interpreter(code)
    assert result.returncode == 0, result.stderr


def test_bounds_import_leaves_the_game_unloaded():
    # bound-check needs the bound's arithmetic, not the challenger or forger
    code = ("import sys, mtaotibas.harness.bounds\n"
            "loaded = sorted({'mtaotibas.harness.forger', 'mtaotibas.harness.challenger'} & set(sys.modules))\n"
            "sys.exit(f'loaded {loaded}' if loaded else 0)")
    result = _fresh_interpreter(code)
    assert result.returncode == 0, result.stderr


def test_get_engine_imports_each_backend_on_demand():
    code = ("import sys\n"
            "from mtaotibas.pairing import get_engine\n"
            "get_engine('production')\n"
            "if 'mtaotibas.pairing.mock' in sys.modules:\n"
            "    sys.exit('production engine loaded the mock')\n"
            "engine = get_engine('mock', mock_table={('hash_to_g1', b'tag', b'x'): 5})\n"
            "sys.exit(engine.hash_to_g1(b'tag', b'x') != engine.g1 ** 5)")
    result = _fresh_interpreter(code)
    assert result.returncode == 0, result.stderr


def test_harness_monte_carlo_small(workdir):
    result = run(CliRunner(), ["--seed", "3", "harness", "monte-carlo", "--delta", "0.1",
                               "--trials", "2000"])
    assert result.exit_code == 0
    rep = json.loads(result.output)
    assert rep["passes"] is True


def test_harness_monte_carlo_follows_the_group_seed(workdir):
    # the trials take the group's --seed, and 0 without it; at 20 trials
    # seeds 5 and 0 give different no_abort counts
    args = ["harness", "monte-carlo", "--delta", "0.1", "--trials", "20"]
    reports = []
    for prefix, seed in ((["--seed", "5"], 5), ([], 0)):
        expected = monte_carlo_abort(0.1, 5, 5, 5, trials=20, seed=seed)
        result = run(CliRunner(), prefix + args)
        assert json.loads(result.output) == expected
        assert result.exit_code == (0 if expected["passes"] else 1)
        reports.append(expected)
    assert reports[0]["no_abort"] != reports[1]["no_abort"]


_BOUND = ["harness", "bound-check", "--qc", "0", "--qe", "0", "--qs", "0", "--n", "0"]
_MONTE_CARLO = ["harness", "monte-carlo", "--delta", "0.1", "--trials", "10"]
_HARNESS_RUN = MOCK + ["harness", "run", "--workload", "workload.json"]


@pytest.mark.parametrize("args, option", [
    (_BOUND + ["--qc", "-2"], "--qc"),
    (_BOUND + ["--qc", "-1"], "--qc"),
    (_BOUND + ["--qe", "-1"], "--qe"),
    (_BOUND + ["--qs", "-1"], "--qs"),
    (_BOUND + ["--n", "-1"], "--n"),
    (_MONTE_CARLO + ["--jobs", "1"], "--jobs"),  # the pool size follows from the CPU count
    (_MONTE_CARLO + ["--jobs", "8"], "--jobs"),
    (_MONTE_CARLO + ["--trials", "0"], "--trials"),
    (_MONTE_CARLO + ["--trials", "-5"], "--trials"),
    (_MONTE_CARLO + ["--qc", "-1"], "--qc"),
    (_MONTE_CARLO + ["--qe", "-1"], "--qe"),
    (_MONTE_CARLO + ["--qs", "-1"], "--qs"),
    (_HARNESS_RUN + ["--planted-b", "5"], "--planted-b"),  # no such option: the instance follows --seed
    (_HARNESS_RUN + ["--planted-a", "5"], "--planted-a"),
    (_MONTE_CARLO + ["--seed", "3"], "--seed"),  # the trials follow the group's --seed
])
def test_harness_bad_numeric_input_exits_2(workdir, args, option):
    # the last option given wins, so each case overrides one valid value
    Path("workload.json").write_text(json.dumps(_WORKLOAD))
    result = run(CliRunner(), args)  # any exception but SystemExit fails here
    assert result.exit_code == 2, result.output
    assert option in result.stderr
    assert "Traceback" not in result.output


# -- wrongly typed JSON --------------------------------------------------------

_WORKLOAD = [
    {"op": "lowerlevel_setup", "ta": "T1"},
    {"op": "h0", "id": "alice", "bit": 0},
    {"op": "h1", "id": "alice", "message": "m", "ta": "T1"},
]
_VERIFY = ["verify", "--params", "params.json", "--bundle", "bundle.json"]
_AGGREGATE = ["aggregate", "--layout", "layout.json", "--out", "b.json",
              "s1.json", "s2.json", "s3.json"]
# each input file of the pinned scenario, with its document and a command
# that reads it; the envelopes are the committed mock vectors, which the
# lifecycle reproduces
_JSON_INPUTS = {
    "bundle.json": (ENVELOPES["aggregate-bundle"], _VERIFY),
    "params.json": (ENVELOPES["system-params"], _VERIFY),
    "ta1.json": (ENVELOPES["ta-record"], [
        "extract", "--ta-secret", "ta1-secret.json", "--ta-record", "ta1.json",
        "--signer-id", "ID-NEW", "--store", "keys.journal"]),
    "s1.json": (ENVELOPES["signature"], _AGGREGATE),
    "layout.json": (CLI_LAYOUT, _AGGREGATE),
    "workload.json": (_WORKLOAD, ["--seed", "5", "harness", "run", "--workload", "workload.json"]),
}


def _nodes(doc, path=()):
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, child in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _nodes(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _wrong_type_cases():
    # a value of the node's own JSON type is skipped: it is no type error
    # (an empty list of groups is a well-formed bundle that fails to verify)
    for name, (doc, _) in _JSON_INPUTS.items():
        for path, node in _nodes(doc):
            # true and 1.0 equal 1 in Python but are no JSON integer
            extra = {"version": (True, 1.0), "bit": (True,)}.get(path[-1] if path else None, ())
            for wrong in (1, "x", [], {}, None) + extra:
                if type(wrong) is not type(node):
                    node_id = "/".join(map(str, path)) or "root"
                    yield pytest.param(name, path, wrong, id=f"{name}:{node_id}={json.dumps(wrong)}")


@pytest.fixture(scope="module")
def lifecycle_dir(tmp_path_factory):
    """A directory holding every file of the pinned scenario plus a workload."""
    d = tmp_path_factory.mktemp("lifecycle")
    prepare_cli_dir(d)
    (d / "workload.json").write_text(json.dumps(_WORKLOAD))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        drive_lifecycle(CliRunner())
    return d


def _invoke_with(lifecycle_dir, tmp_path, monkeypatch, name, doc):
    shutil.copytree(lifecycle_dir, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(json.dumps(doc))
    return CliRunner().invoke(main, MOCK + _JSON_INPUTS[name][1])


@pytest.mark.parametrize("name", list(_JSON_INPUTS))
def test_json_inputs_accepted_unchanged(lifecycle_dir, tmp_path, monkeypatch, name):
    doc = _JSON_INPUTS[name][0]
    assert json.loads((lifecycle_dir / name).read_text()) == doc
    result = _invoke_with(lifecycle_dir, tmp_path, monkeypatch, name, doc)
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("name,path,wrong", list(_wrong_type_cases()))
def test_wrongly_typed_json_exits_2(lifecycle_dir, tmp_path, monkeypatch, name, path, wrong):
    doc = _replaced(_JSON_INPUTS[name][0], path, wrong)
    result = _invoke_with(lifecycle_dir, tmp_path, monkeypatch, name, doc)
    assert result.exit_code == 2, result.output
    assert "error:" in result.stderr.lower()
    assert isinstance(result.exception, SystemExit)  # no traceback escaped


@pytest.mark.parametrize("bit", [7, -1, True])
def test_workload_bit_checked_before_any_operation(lifecycle_dir, tmp_path, monkeypatch, bit):
    from mtaotibas.harness.challenger import Challenger

    ran = []
    setup = Challenger.oracle_lowerlevel_setup
    monkeypatch.setattr(Challenger, "oracle_lowerlevel_setup",
                        lambda ch, ta: ran.append(ta) or setup(ch, ta))
    assert _WORKLOAD[0]["op"] == "lowerlevel_setup" and _WORKLOAD[1]["op"] == "h0"
    doc = _replaced(_WORKLOAD, (1, "bit"), bit)
    result = _invoke_with(lifecycle_dir, tmp_path, monkeypatch, "workload.json", doc)
    assert result.exit_code == 2, result.output
    assert "error:" in result.stderr.lower()
    assert ran == []


@pytest.mark.parametrize("name", ["params.json", "bundle.json", "layout.json", "workload.json"])
def test_deeply_nested_json_exits_2(lifecycle_dir, tmp_path, monkeypatch, name):
    # json raises RecursionError, not ValueError, on nesting this deep
    shutil.copytree(lifecycle_dir, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    Path(name).write_text("[" * 200_000)
    result = CliRunner().invoke(main, MOCK + _JSON_INPUTS[name][1])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: "), result.stderr
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback escaped


# -- the error contract of every command ---------------------------------------

_CONTRACT_ERRORS = [(KeyAlreadyUsed("planted"), 3), (InvalidElement("planted"), 2),
                    (ValueError("planted"), 2), (OSError("planted"), 2)]


def _commands(group=main, path=()):
    """(argv path, command) for each group's own callback and every command."""
    yield path, group
    for name, cmd in group.commands.items():
        if isinstance(cmd, click.Group):
            yield from _commands(cmd, path + (name,))
        else:
            yield path + (name,), cmd


def _dummy_args(cmd):
    """A value for each required parameter of ``cmd``; a path that must exist
    names an empty file."""
    args = []
    for param in cmd.params:
        if not param.required:
            continue
        if isinstance(param.type, click.Path) and param.type.exists:
            value = "dummy.txt"
            Path(value).touch()
        elif isinstance(param.type, click.Path):
            value = "out.json"
        elif isinstance(param.type, click.types.FloatParamType):
            value = "0.5"
        elif isinstance(param.type, click.types.IntParamType):
            value = "1"
        else:
            value = "x"
        args += [param.opts[0], value] if isinstance(param, click.Option) else [value]
    return args


@pytest.mark.parametrize("path, cmd", [pytest.param(p, c, id=" ".join(p) or "main")
                                       for p, c in _commands()])
@pytest.mark.parametrize("error, code", [pytest.param(e, c, id=type(e).__name__)
                                         for e, c in _CONTRACT_ERRORS])
def test_every_command_maps_errors_to_exit_codes(workdir, monkeypatch, path, cmd, error, code):
    def raise_error(**params):
        raise error

    monkeypatch.setattr(cmd, "callback", raise_error)
    if isinstance(cmd, click.Group):
        argv = ["harness", "bound-check", "--grid"]
    else:
        argv = list(path) + _dummy_args(cmd)
    result = CliRunner().invoke(main, MOCK + argv)
    assert result.exit_code == code, result.output
    assert result.stderr == "error: planted\n", result.stderr
    assert isinstance(result.exception, SystemExit)  # no traceback escaped


# -- inputs that decode but cannot verify, and non-canonical hex -------------------

_BUNDLE = ENVELOPES["aggregate-bundle"]


@pytest.mark.parametrize("path, value, reason", [
    (("fields", "groups"), [], "empty bundle"),
    (("fields", "groups", 1, "signers"), [], "empty authority group"),
    (("fields", "groups", 0, "signers", 1, "identity"), "", "empty signer identity"),
], ids=["no-groups", "empty-group", "empty-identity"])
def test_verify_rejects_degenerate_bundle_without_pairing(lifecycle_dir, tmp_path, monkeypatch,
                                                         path, value, reason):
    result = _invoke_with(lifecycle_dir, tmp_path, monkeypatch, "bundle.json",
                          _replaced(_BUNDLE, path, value))
    assert result.exit_code == 1, result.output
    assert json.loads(result.stdout) == {
        "valid": False, "reason": reason, "pairings_main": 0, "pairings_certificates": 0}


_WEIGHT_SEED = 0


@pytest.mark.parametrize("y, code", [("008a", 1), ("008A", 2), (" 00 8a\n", 2)])
def test_params_hex_must_be_canonical(lifecycle_dir, tmp_path, monkeypatch, y, code):
    # "008a" decodes (to the wrong key, so the bundle fails); no other spelling does.
    # Under y = 0x8a the batched certificate check accepts when its weights give
    # 170*rho_1 + 301*rho_2 = 0 mod 1009, so verify draws them from a seed that
    # does not cancel.
    weights = random.Random(_WEIGHT_SEED)
    rho_1, rho_2 = (weights.randrange(1, 1009) for _ in range(2))
    assert (170 * rho_1 + 301 * rho_2) % 1009 != 0
    monkeypatch.setattr(scheme.random, "SystemRandom", lambda: random.Random(_WEIGHT_SEED))
    doc = _replaced(ENVELOPES["system-params"], ("fields", "y"), y)
    result = _invoke_with(lifecycle_dir, tmp_path, monkeypatch, "params.json", doc)
    assert result.exit_code == code, result.output
    if code == 2:
        assert result.stderr.startswith("error: ") and "hex" in result.stderr
