import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import mtaotibas
from mtaotibas.cli import main

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
], ids=["no-fields", "bad-hex", "unknown-op", "not-utf8"])
def test_malformed_mock_table_exits_2(workdir, content):
    Path("vectors.txt").write_bytes(content)
    result = CliRunner().invoke(main, MOCK + ["root-setup", "--out-params", "p.json", "--out-master", "m.json"])
    assert result.exit_code == 2, result.output
    assert "error:" in result.stderr.lower()
    assert isinstance(result.exception, SystemExit)


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


def test_cli_import_leaves_harness_unloaded():
    src = str(Path(mtaotibas.__file__).resolve().parents[1])
    code = "import sys, mtaotibas.cli; sys.exit('mtaotibas.harness' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_harness_monte_carlo_small(workdir):
    result = run(CliRunner(), ["harness", "monte-carlo", "--delta", "0.1", "--trials", "2000",
                               "--seed", "3", "--jobs", "1"])
    assert result.exit_code == 0
    rep = json.loads(result.output)
    assert rep["passes"] is True


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
            extra = (True, 1.0) if path[-1:] == ("version",) else ()
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
