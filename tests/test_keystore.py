import errno
import json
import os
import random
import shutil
import struct
import threading
import warnings
import zlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from mtaotibas import envelopes, keystore, scheme
from mtaotibas.cli import main
from mtaotibas.errors import (
    CorruptJournal,
    DuplicateKey,
    KeyAlreadyUsed,
    KeyNotFound,
    StoreClosed,
    StoreLocked,
)
from mtaotibas.keystore import STATUS_FRESH, STATUS_USED, KeyStore
from mtaotibas.pairing import bls12381

from conftest import cli_lifecycle_steps, off_subgroup_g1_point, prepare_cli_dir

GOLDEN_JOURNAL = Path(__file__).parent / "data" / "mock_keys.journal"


@pytest.fixture
def setup(fixed_scenario, tmp_path):
    eng = fixed_scenario["engine"]
    _, trec = fixed_scenario["tas"][b"TA-1"]
    key = fixed_scenario["keys"][b"ID-A"]
    return eng, trec, key, tmp_path / "keys.journal"


def test_store_and_sign_once(setup):
    eng, trec, key, path = setup
    with KeyStore(path, eng) as store:
        entry_id = store.store_key(key)
        assert store.get(entry_id).status == STATUS_FRESH
        sig = store.sign_once(entry_id, trec, b"message-1")
        assert sig == scheme.sign(eng, key, trec, b"message-1")
        entry = store.get(entry_id)
        assert entry.status == STATUS_USED
        assert entry.message_digest is not None


def test_second_use_rejected(setup):
    eng, trec, key, path = setup
    with KeyStore(path, eng) as store:
        entry_id = store.store_key(key)
        store.sign_once(entry_id, trec, b"message-1")
        with pytest.raises(KeyAlreadyUsed):
            store.sign_once(entry_id, trec, b"another")


def test_unknown_entry(setup):
    eng, trec, _, path = setup
    with KeyStore(path, eng) as store:
        with pytest.raises(KeyNotFound):
            store.sign_once(123, trec, b"m")
        with pytest.raises(KeyNotFound):
            store.get(123)


def _frame(payload: bytes) -> bytes:
    """A CRC-valid journal frame holding ``payload``."""
    return struct.pack(">I", len(payload)) + payload + struct.pack(">I", zlib.crc32(payload))


def _record(rec) -> bytes:
    """A CRC-valid journal frame holding ``rec``."""
    return _frame(json.dumps(rec, sort_keys=True, separators=(",", ":")).encode())


def _reopened(store, reopen):
    """The same store, closed and replayed from its journal when ``reopen``."""
    if not reopen:
        return store
    store.close()
    return KeyStore(store.path, store.engine)


def _store_many(store, fixed_scenario, n):
    tsec, trec = fixed_scenario["tas"][b"TA-1"]
    return [
        store.store_key(scheme.extract(store.engine, tsec, trec, f"dev-{k}".encode()))
        for k in range(n)
    ]


def _count_decode_g1(monkeypatch, eng):
    decoded = []
    original = eng.decode_g1

    def counted(data):
        decoded.append(bytes(data))
        return original(data)

    monkeypatch.setattr(eng, "decode_g1", counted)
    return decoded


def test_duplicate_fresh_key_rejected(setup):
    eng, _, key, path = setup
    for reopen in (False, True):
        store = KeyStore(path.with_name(f"dup-{reopen}.journal"), eng)
        store.store_key(key)
        with _reopened(store, reopen) as store:
            with pytest.raises(DuplicateKey):
                store.store_key(key)


def test_rotation_after_use_allowed(setup):
    eng, trec, key, path = setup
    for reopen in (False, True):
        store = KeyStore(path.with_name(f"rotate-{reopen}.journal"), eng)
        first = store.store_key(key)
        store.sign_once(first, trec, b"message-1")
        with _reopened(store, reopen) as store:
            second = store.store_key(key)  # re-extraction models the key update
            assert second != first
            assert store.get(second).status == STATUS_FRESH
        with KeyStore(store.path, eng) as store:  # the rotated key is the fresh one
            with pytest.raises(DuplicateKey):
                store.store_key(key)


def test_reopen_decodes_no_key(setup, fixed_scenario, monkeypatch):
    eng, trec, _, path = setup
    with KeyStore(path, eng) as store:
        ids = _store_many(store, fixed_scenario, 16)
        store.sign_once(ids[0], trec, b"message-1")
    decoded = _count_decode_g1(monkeypatch, eng)
    with KeyStore(path, eng) as store:
        entries = store.entries()
        store.get(ids[1])
    assert len(entries) == 16
    assert decoded == []


def test_sign_once_decodes_its_own_key_once(setup, fixed_scenario, monkeypatch):
    eng, trec, _, path = setup
    with KeyStore(path, eng) as store:
        ids = _store_many(store, fixed_scenario, 16)
    decoded = _count_decode_g1(monkeypatch, eng)
    with KeyStore(path, eng) as store:
        sig = store.sign_once(ids[5], trec, b"message-1")
        key = store.get(ids[5]).key
        assert store.entries()[ids[5]].key is key
    assert decoded == [eng.encode_g1(key.s0), eng.encode_g1(key.s1)]
    assert sig == scheme.sign(eng, key, trec, b"message-1")


def test_reload_preserves_state(setup):
    eng, trec, key, path = setup
    with KeyStore(path, eng) as store:
        a = store.store_key(key)
        store.sign_once(a, trec, b"message-1")
    with KeyStore(path, eng) as store:
        entry = store.get(a)
        assert entry.status == STATUS_USED
        assert entry.key == key
        with pytest.raises(KeyAlreadyUsed):
            store.sign_once(a, trec, b"again")


def test_replay_idempotent(setup):
    eng, trec, key, path = setup
    with KeyStore(path, eng) as store:
        a = store.store_key(key)
        store.sign_once(a, trec, b"message-1")
    with KeyStore(path, eng) as one:
        state_one = one.entries()
    with KeyStore(path, eng) as two:
        state_two = two.entries()
    assert state_one.keys() == state_two.keys()
    for k in state_one:
        assert state_one[k].status == state_two[k].status
        assert state_one[k].message_digest == state_two[k].message_digest


def test_crash_after_persist_leaves_used_state(setup):
    eng, trec, key, path = setup

    class Boom(RuntimeError):
        pass

    with KeyStore(path, eng) as store:
        entry_id = store.store_key(key)
        store.after_persist_hook = lambda: (_ for _ in ()).throw(Boom())
        with pytest.raises(Boom):
            store.sign_once(entry_id, trec, b"message-1")
    # the use record hit the disk before the crash: no second signature
    with KeyStore(path, eng) as store:
        entry = store.get(entry_id)
        assert entry.status == STATUS_USED
        assert entry.message_digest is not None  # audit digest recorded
        with pytest.raises(KeyAlreadyUsed):
            store.sign_once(entry_id, trec, b"message-1")


class _HalfWrite:
    """The journal handle, except that its first write puts half the bytes
    on disk and then fails as a full disk does."""

    def __init__(self, fh):
        self._fh = fh
        self.failed = False

    def write(self, data):
        if self.failed:
            return self._fh.write(data)
        self.failed = True
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _inject(store, monkeypatch, fault):
    if fault == "half-write":
        store._fh = _HalfWrite(store._fh)
    else:
        real_fsync, failed = os.fsync, []

        def fsync(fd):
            if not failed:
                failed.append(fd)
                raise OSError(errno.EIO, "Input/output error")
            real_fsync(fd)

        monkeypatch.setattr(keystore.os, "fsync", fsync)


@pytest.mark.parametrize("fault", ["half-write", "fsync"])
@pytest.mark.parametrize("op", ["store_key", "sign_once"])
def test_failed_append_closes_the_store(setup, fixed_scenario, monkeypatch, op, fault):
    # a failed write, flush or fsync may leave a torn record or a whole one
    # that was never acknowledged; nothing may be appended after it
    eng, trec, key, path = setup
    bob = fixed_scenario["keys"][b"ID-B"]
    store = KeyStore(path, eng)
    entry = store.store_key(key)
    _inject(store, monkeypatch, fault)
    with pytest.raises(OSError):
        if op == "store_key":
            store.store_key(bob)
        else:
            store.sign_once(entry, trec, b"message-1")
    size = path.stat().st_size
    with pytest.raises(StoreClosed):
        store.store_key(bob)
    with pytest.raises(StoreClosed):
        store.sign_once(entry, trec, b"message-2")
    assert path.stat().st_size == size
    store.close()

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a torn final record is dropped with a warning
        store = KeyStore(path, eng)
    signed = []
    with store:
        for entry_id in store.entries():
            for message in (b"message-3", b"message-4"):
                try:
                    store.sign_once(entry_id, trec, message)
                    signed.append(entry_id)
                except KeyAlreadyUsed:
                    pass
    torn = fault == "half-write"
    if op == "store_key":
        # a whole add record stored Bob's key although the call failed
        assert signed == ([1] if torn else [1, 2])
    else:
        # a whole use record spent the key although no signature came back
        assert signed == ([1] if torn else [])


def test_truncated_final_record_dropped(setup):
    eng, trec, key, path = setup
    with KeyStore(path, eng) as store:
        a = store.store_key(key)
        size_before_use = path.stat().st_size
        store.sign_once(a, trec, b"message-1")
    # chop the tail of the use record: state must equal the pre-use state
    data = path.read_bytes()
    path.write_bytes(data[: size_before_use + 7])
    with pytest.warns(UserWarning):
        with KeyStore(path, eng) as store:
            assert store.get(a).status == STATUS_FRESH


def test_flipped_byte_mid_journal_raises(setup):
    eng, trec, key, path = setup
    with KeyStore(path, eng) as store:
        a = store.store_key(key)
        store.sign_once(a, trec, b"message-1")
    data = bytearray(path.read_bytes())
    data[len(keystore.JOURNAL_MAGIC) + 6] ^= 0x40  # inside the first record's payload
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptJournal):
        KeyStore(path, eng)


def test_corrupt_trailing_record_dropped_with_warning(setup):
    eng, trec, key, path = setup
    with KeyStore(path, eng) as store:
        a = store.store_key(key)
    data = bytearray(path.read_bytes())
    data[-5] ^= 0x01  # payload byte of the final (add) record
    path.write_bytes(bytes(data))
    with pytest.warns(UserWarning):
        with KeyStore(path, eng) as store:
            with pytest.raises(KeyNotFound):
                store.get(a)


_USE = {"op": "use", "entry": 1, "at": 1.0, "digest": "00" * 32}

# CRC-valid records appended after entry 1 (the key of ID-A), the last of
# which breaks the schema; ``hexes`` holds hex envelopes of ID-A's key
# ("A"), ID-B's key ("B") and a signature ("sig")
_CORRUPT_TAILS = {
    "unknown-op": lambda hexes: [{"op": "explode"}],
    "not-an-object": lambda hexes: [["add", 2]],
    "entry-not-int": lambda hexes: [dict(_USE, entry="1")],
    "entry-bool": lambda hexes: [dict(_USE, entry=True)],
    "add-without-key": lambda hexes: [{"op": "add", "entry": 2}],
    "key-not-hex": lambda hexes: [{"op": "add", "entry": 2, "key": "zz"}],
    "key-not-signer-key": lambda hexes: [{"op": "add", "entry": 2, "key": hexes["sig"]}],
    "add-reuses-entry": lambda hexes: [{"op": "add", "entry": 1, "key": hexes["B"]}],
    "second-fresh-key-for-owner": lambda hexes: [{"op": "add", "entry": 2, "key": hexes["A"]}],
    "use-unknown-entry": lambda hexes: [dict(_USE, entry=9)],
    "at-missing": lambda hexes: [{k: v for k, v in _USE.items() if k != "at"}],
    "at-not-number": lambda hexes: [dict(_USE, at="now")],
    "at-huge-int": lambda hexes: [dict(_USE, at=10**400)],
    "at-nan": lambda hexes: [dict(_USE, at=float("nan"))],
    "at-infinity": lambda hexes: [dict(_USE, at=float("inf"))],
    "digest-not-hex": lambda hexes: [dict(_USE, digest="xyz")],
    "digest-not-32-bytes": lambda hexes: [dict(_USE, digest="00" * 31)],
    "key-uppercase-hex": lambda hexes: [{"op": "add", "entry": 2, "key": hexes["B"].upper()}],
    "key-hex-with-space": lambda hexes: [{"op": "add", "entry": 2, "key": " " + hexes["B"]}],
    "digest-uppercase-hex": lambda hexes: [dict(_USE, digest="AB" * 32)],
    "digest-hex-with-newline": lambda hexes: [dict(_USE, digest="ab" * 32 + "\n")],
    "second-use": lambda hexes: [_USE, _USE],
}


@pytest.mark.parametrize("tail", list(_CORRUPT_TAILS.values()), ids=list(_CORRUPT_TAILS))
def test_unknown_record_op_is_corrupt(setup, fixed_scenario, tail):
    eng, _, key, path = setup
    with KeyStore(path, eng) as store:
        store.store_key(key)
    hexes = {
        "A": envelopes.to_binary(eng, key).hex(),
        "B": envelopes.to_binary(eng, fixed_scenario["keys"][b"ID-B"]).hex(),
        "sig": envelopes.to_binary(eng, fixed_scenario["signatures"][0]).hex(),
    }
    frames = [_record(rec) for rec in tail(hexes)]
    offset = path.stat().st_size + sum(map(len, frames[:-1]))
    with open(path, "ab") as fh:
        fh.write(b"".join(frames))
    with pytest.raises(CorruptJournal, match=f"offset {offset}:"):
        KeyStore(path, eng)


@pytest.mark.parametrize("at", [10**400, float("nan"), float("-inf")], ids=["huge-int", "nan", "-infinity"])
def test_cli_sign_on_non_finite_at_exits_2(setup, tmp_path, at):
    eng, trec, key, path = setup
    with KeyStore(path, eng) as store:
        store.store_key(key)
    with open(path, "ab") as fh:
        fh.write(_record(dict(_USE, at=at)))
    size = path.stat().st_size
    envelopes.save_json(tmp_path / "ta.json", eng, trec)
    (tmp_path / "m.bin").write_bytes(b"message-1")
    result = CliRunner().invoke(main, [
        "--backend", "mock", "--insecure-mock", "sign", "--store", str(path), "--entry-id", "1",
        "--ta-record", str(tmp_path / "ta.json"), "--message-file", str(tmp_path / "m.bin"),
        "--out", str(tmp_path / "s.json")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ") and "'at'" in result.stderr
    assert path.stat().st_size == size


@pytest.mark.parametrize("payload", [b"\xff\xfe{}", b"not json", b'{"op": "add"', b"[" * 100_000],
                         ids=["not-utf8", "not-json", "cut-json", "deep-nesting"])
def test_crc_valid_unreadable_payload_is_corrupt(setup, payload):
    eng, _, key, path = setup
    with KeyStore(path, eng) as store:
        store.store_key(key)
    offset = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(_frame(payload))
    with pytest.raises(CorruptJournal, match=f"offset {offset}: unreadable"):
        KeyStore(path, eng)


@pytest.mark.parametrize("header", [b"", b"MTAOJRN", b"MTAOJRN\x02", b"XXXXXXXX"],
                         ids=["missing", "short", "wrong-version", "wrong-magic"])
def test_bad_journal_header_is_corrupt(setup, header):
    eng, _, key, path = setup
    with KeyStore(path, eng) as store:
        store.store_key(key)
    data = path.read_bytes()
    path.write_bytes(header + data[len(keystore.JOURNAL_MAGIC):])
    with pytest.raises(CorruptJournal, match="bad journal header"):
        KeyStore(path, eng)


@pytest.mark.parametrize("torn", [1, 2, 3])
def test_torn_record_header_dropped_then_clean_reopen(setup, torn):
    eng, trec, key, path = setup
    with KeyStore(path, eng) as store:
        a = store.store_key(key)
    size = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(b"\x00" * torn)
    with pytest.warns(UserWarning, match=f"torn record header at offset {size}"):
        with KeyStore(path, eng) as store:
            assert store.get(a).status == STATUS_FRESH
    assert path.stat().st_size == size
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with KeyStore(path, eng) as store:
            store.sign_once(a, trec, b"message-1")
    with KeyStore(path, eng) as store:
        assert store.get(a).status == STATUS_USED


@pytest.mark.parametrize("cut", range(1, len(keystore.JOURNAL_MAGIC)))
def test_torn_new_journal_opens_empty(setup, cut):
    # a new journal cut inside its header holds no record: it opens as new
    eng, _, key, path = setup
    KeyStore(path, eng).close()
    path.write_bytes(path.read_bytes()[:cut])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with KeyStore(path, eng) as store:
            assert store.entries() == {}
            a = store.store_key(key)
        with KeyStore(path, eng) as store:
            assert store.get(a).status == STATUS_FRESH
    assert path.read_bytes().startswith(keystore.JOURNAL_MAGIC)


@pytest.mark.parametrize("cut", [1, 4, 7])
def test_cli_extract_on_torn_new_journal_exits_0(tmp_path, monkeypatch, cut):
    monkeypatch.chdir(tmp_path)
    prepare_cli_dir(tmp_path)
    steps = dict(cli_lifecycle_steps())
    runner = CliRunner()
    for name in ("root-setup", "ta-enroll-1"):
        assert runner.invoke(main, steps[name]).exit_code == 0
    (tmp_path / "keys.journal").write_bytes(keystore.JOURNAL_MAGIC[:cut])
    result = runner.invoke(main, steps["extract-a"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["entry_id"] == 1


def test_failed_header_write_releases_the_lock(setup, monkeypatch):
    eng, _, key, path = setup
    _inject(None, monkeypatch, "fsync")
    try:
        KeyStore(path, eng)
    except OSError:
        # the failed store is still referenced from this frame's traceback;
        # it must not keep the journal locked
        with KeyStore(path, eng) as store:
            assert store.entries() == {}
            store.store_key(key)
    else:
        pytest.fail("the header's fsync did not fail")


@pytest.mark.parametrize("head", [b"XXXX", b"MTAX"])
def test_short_journal_that_is_no_header_prefix_is_corrupt(setup, head):
    eng, _, _, path = setup
    path.write_bytes(head)
    with pytest.raises(CorruptJournal, match="bad journal header"):
        KeyStore(path, eng)
    assert path.read_bytes() == head


@pytest.mark.parametrize("zeros", [8, 9, 16, 150, 400])
def test_zero_filled_tail_dropped_with_warning(setup, zeros):
    # a crash can leave zeros where an append was cut; the writer never
    # writes an empty payload, so they hold no record, even as exactly one
    # empty frame (8 zero bytes: length 0, CRC 0)
    eng, trec, key, path = setup
    with KeyStore(path, eng) as store:
        a = store.store_key(key)
    size = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(bytes(zeros))
    with pytest.warns(UserWarning, match=f"offset {size}"):
        with KeyStore(path, eng) as store:
            assert store.get(a).status == STATUS_FRESH
    assert path.stat().st_size == size
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with KeyStore(path, eng) as store:
            store.sign_once(a, trec, b"message-1")


@pytest.mark.parametrize("zeros", [8, 150])
def test_zero_region_before_a_whole_record_is_corrupt(setup, zeros):
    eng, _, key, path = setup
    with KeyStore(path, eng) as store:
        store.store_key(key)
    size = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(bytes(zeros) + _record(_USE))
    with pytest.raises(CorruptJournal, match=f"offset {size}:"):
        KeyStore(path, eng)
    assert path.stat().st_size == size + zeros + len(_record(_USE))


def _record_offsets(data):
    offsets, off = [], len(keystore.JOURNAL_MAGIC)
    while off < len(data):
        offsets.append(off)
        off += 8 + struct.unpack_from(">I", data, off)[0]
    return offsets


def _state(store):
    return {i: (e.stored.raw, e.status, e.used_at, e.message_digest)
            for i, e in store.entries().items()}


def _open_state(path, eng):
    """(state, warned) of the journal at ``path``; raises CorruptJournal."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with KeyStore(path, eng) as store:
            return _state(store), bool(caught)


def test_damage_costs_at_most_the_final_record(fixed_scenario, tmp_path):
    """Every single-bit flip of the committed journal (add 1, add 2, use 1)
    raises CorruptJournal or loses only the final record, and so does every
    cut inside that record: a used key never signs again."""
    eng = fixed_scenario["engine"]
    data = GOLDEN_JOURNAL.read_bytes()
    assert 8 * len(data) == 3712
    last = _record_offsets(data)[-1]
    path = tmp_path / "keys.journal"
    path.write_bytes(data[:last])
    kept, warned = _open_state(path, eng)
    assert kept[1][1] == STATUS_FRESH and not warned

    damaged = [data[:cut] for cut in range(last + 1, len(data))]
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        damaged.append(bytes(flipped))
    wrong = []
    for journal in damaged:
        path.write_bytes(journal)
        try:
            state, warned = _open_state(path, eng)
        except CorruptJournal:
            continue
        if state != kept or not warned or path.stat().st_size != last:
            wrong.append(journal)
    assert wrong == []


def test_damaged_stored_key_fails_on_use(bls_engine, tmp_path):
    eng = bls_engine
    rng = random.Random(5)
    master, params = scheme.root_setup(eng, rng)
    tsec, trec = scheme.lowerlevel_setup(eng, params, master, b"TA-1", rng)
    path = tmp_path / "keys.journal"
    with KeyStore(path, eng) as store:
        good = store.store_key(scheme.extract(eng, tsec, trec, b"ID-GOOD"))
    # entry 2: a CRC-valid add whose s1 (the last field) is on the curve but
    # outside the subgroup
    raw = envelopes.to_binary(eng, scheme.extract(eng, tsec, trec, b"ID-BAD"))
    raw = raw[: -eng.g1_bytes] + bls12381.encode_g1_point(off_subgroup_g1_point())
    with open(path, "ab") as fh:
        fh.write(_record({"op": "add", "entry": 2, "key": raw.hex()}))

    with KeyStore(path, eng) as store:
        sig = store.sign_once(good, trec, b"message-1")
        bundle = scheme.AggregateBundle.build([(trec, [(b"ID-GOOD", b"message-1")])], sig.sigma)
        assert scheme.verify(eng, params, bundle).valid
        size = path.stat().st_size
        with pytest.raises(CorruptJournal, match="entry 2"):
            store.sign_once(2, trec, b"message-2")
        assert store.get(2).status == STATUS_FRESH
    assert path.stat().st_size == size

    envelopes.save_json(tmp_path / "ta.json", eng, trec)
    (tmp_path / "m2.bin").write_bytes(b"message-2")
    result = CliRunner().invoke(main, [
        "sign", "--store", str(path), "--entry-id", "2", "--ta-record", str(tmp_path / "ta.json"),
        "--message-file", str(tmp_path / "m2.bin"), "--out", str(tmp_path / "s2.json")])
    assert result.exit_code == 2
    assert "entry 2" in result.stderr
    assert path.stat().st_size == size


def test_committed_journal_replays(fixed_scenario, tmp_path):
    """A journal written by an earlier release: entry 1 holds ID-A's key and
    signed message-1, entry 2 holds ID-B's key, fresh."""
    eng = fixed_scenario["engine"]
    _, trec = fixed_scenario["tas"][b"TA-1"]
    path = tmp_path / "keys.journal"
    shutil.copy(GOLDEN_JOURNAL, path)
    with KeyStore(path, eng) as store:
        assert store.get(1).key == fixed_scenario["keys"][b"ID-A"]
        assert store.get(1).status == STATUS_USED
        with pytest.raises(KeyAlreadyUsed):
            store.sign_once(1, trec, b"message-1")
        sig = store.sign_once(2, trec, b"message-2")
    assert sig == fixed_scenario["signatures"][1]


def test_file_lock_excludes_second_writer(setup):
    eng, _, _, path = setup
    with KeyStore(path, eng):
        with pytest.raises(StoreLocked):
            KeyStore(path, eng)


def test_journal_created_while_opening_is_replayed(setup, fixed_scenario, monkeypatch):
    # another store creates the journal between this store's open and its
    # lock; this store must replay that journal, not write a second header
    eng, trec, key, path = setup
    bob = fixed_scenario["keys"][b"ID-B"]
    real_flock = keystore.fcntl.flock
    raced = []

    def flock(fd, op):
        if not raced:
            raced.append(True)
            with KeyStore(path, eng) as first:
                first.sign_once(first.store_key(key), trec, b"message-1")
        return real_flock(fd, op)

    monkeypatch.setattr(keystore.fcntl, "flock", flock)
    with KeyStore(path, eng) as second:
        bob_id = second.store_key(bob)
    monkeypatch.undo()
    assert raced
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with KeyStore(path, eng) as store:
            entries = store.entries()
    assert {e.key.signer_id: e.status for e in entries.values()} == {
        b"ID-A": STATUS_USED, b"ID-B": STATUS_FRESH}
    assert entries[bob_id].key == bob


def test_concurrent_contenders_single_winner(setup):
    eng, trec, key, path = setup
    contenders = 32
    with KeyStore(path, eng) as store:
        entry_id = store.store_key(key)
    # reopened, so the contenders also race on the key's first-use decode
    with KeyStore(path, eng) as store:
        outcomes = []
        barrier = threading.Barrier(contenders)

        def attempt():
            barrier.wait()
            try:
                store.sign_once(entry_id, trec, b"message-1")
                outcomes.append("win")
            except KeyAlreadyUsed:
                outcomes.append("lose")

        threads = [threading.Thread(target=attempt) for _ in range(contenders)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert outcomes.count("win") == 1
    assert len(outcomes) == contenders


def test_store_path_from_env(monkeypatch):
    assert keystore.store_path_from_env("explicit.journal") == "explicit.journal"
    monkeypatch.setenv(keystore.STORE_ENV, "from-env.journal")
    assert keystore.store_path_from_env(None) == "from-env.journal"
    monkeypatch.delenv(keystore.STORE_ENV)
    assert keystore.store_path_from_env(None) == "mtaotibas-store.journal"
