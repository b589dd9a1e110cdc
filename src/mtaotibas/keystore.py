"""Durable one-time enforcement for signer keys.

A key may produce exactly one signature. The store records keys and their
fresh/used status in an append-only journal and flips status with a
check-and-set under a lock, persisting (fsync) before the signature is
released to the caller. Reloading the journal reconstructs the exact
state, so a crash between persist and return can lose the returned
signature but can never allow a second one.

Journal layout: an 8-byte header, then framed records of
``u32 length | payload | u32 crc32(payload)``. Payloads are compact JSON:

    {"op": "add", "entry": 7, "key": "<hex signer-key envelope>"}
    {"op": "use", "entry": 7, "at": 1730000000.0, "digest": "<sha256 hex>"}

Opening takes the lock and replays. A file that is empty or a strict
prefix of the header holds no record (new, or cut before its header was
durable) and gets the header; any other bad header raises CorruptJournal.
Replay checks each record's framing, CRC and schema; for an ``add`` it
reads the signer identity and authority fingerprint from the envelope's
framing and keeps the envelope bytes. The key's two G1 points are decoded,
with the full curve and subgroup checks, when the key is first used and
before any signature; a stored key that fails that decode raises
CorruptJournal naming its entry. Opening a journal therefore costs no
group arithmetic, and fresh (identity, authority) pairs are indexed so the
duplicate check is one lookup.

A record that is not whole, non-empty and CRC-valid is dropped with a
warning, as a torn or crash-zeroed last write, only if no whole record
starts anywhere after it; otherwise, and for a CRC-valid record that
breaks the schema, replay raises CorruptJournal naming its offset. One
damaged byte thus costs at most the final record. An OS-level file lock
keeps two processes from appending to the same journal.

Every write and truncate is fsynced through one helper. A failure there
closes the store, releasing its lock, before the error reaches the
caller, and later appends raise StoreClosed. The failed record thus stays
the journal's last: torn, it is dropped on replay; whole, it counts as
done, as after a crash between persist and return (a stored key the
caller never got an entry id for, or a used key whose signature was
never released).
"""

import fcntl
import hashlib
import json
import math
import os
import struct
import threading
import time
import warnings
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import envelopes, scheme
from .encoding import from_hex
from .errors import (
    CorruptJournal,
    DuplicateKey,
    InvalidElement,
    KeyAlreadyUsed,
    KeyNotFound,
    MalformedEnvelope,
    StoreClosed,
    StoreLocked,
)

JOURNAL_MAGIC = b"MTAOJRN\x01"
STORE_ENV = "MTAOTIBAS_STORE"
STATUS_FRESH = "fresh"
STATUS_USED = "used"


def _frame(data: bytes, off: int) -> Optional[int]:
    """The end of the record at ``off`` if its frame is whole, its payload
    not empty (the writer never writes one) and its CRC valid, else None."""
    if off + 4 > len(data):
        return None
    (n,) = struct.unpack_from(">I", data, off)
    end = off + 4 + n + 4
    if n == 0 or end > len(data):
        return None
    (crc,) = struct.unpack_from(">I", data, end - 4)
    return end if crc == zlib.crc32(data[off + 4 : end - 4]) else None


class _StoredKey:
    """A signer-key envelope as stored in the journal. The owner is read from
    the framing; the key itself is decoded on first use and then kept, so
    every copy of an entry shares one decode."""

    __slots__ = ("raw", "owner", "_engine", "_where", "_key")

    def __init__(self, engine, raw: bytes, where: str, key: Optional[scheme.SignerKey] = None):
        self.owner = envelopes.signer_key_owner(raw)  # (signer_id, ta_fingerprint)
        self.raw = raw
        self._engine = engine
        self._where = where
        self._key = key

    def key(self) -> scheme.SignerKey:
        if self._key is None:
            try:
                self._key = envelopes.from_binary(self._engine, self.raw, "signer-key")
            except (InvalidElement, MalformedEnvelope) as exc:
                raise CorruptJournal(f"{self._where}: stored key does not decode: {exc}") from exc
        return self._key


@dataclass(frozen=True, slots=True)
class KeyEntry:
    stored: _StoredKey
    status: str = STATUS_FRESH
    used_at: Optional[float] = None
    message_digest: Optional[bytes] = None

    @property
    def key(self) -> scheme.SignerKey:
        """The signer key, decoded and validated on first use."""
        return self.stored.key()


class KeyStore:
    """Journal-backed store enforcing the one-signature-per-key rule."""

    def __init__(self, path, engine):
        self.path = str(path)
        self.engine = engine
        self._lock = threading.RLock()
        self._entries: Dict[int, KeyEntry] = {}
        self._fresh: Dict[Tuple[bytes, bytes], int] = {}  # owner -> its fresh entry
        self._next_id = 1
        # called after a use record is durably on disk, before the signature
        # is returned; tests inject crashes here
        self.after_persist_hook = None
        self._fh = open(self.path, "a+b")
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            self._fh.close()
            raise StoreLocked(f"journal {self.path} is locked by another process") from exc
        try:
            self._replay()  # read under the lock: another store may write up to then
        except BaseException:
            self.close()  # release the lock even while the error is held
            raise

    # -- journal ----------------------------------------------------------

    def _replay(self) -> None:
        self._fh.seek(0)
        data = self._fh.read()
        size = len(data)
        off = len(JOURNAL_MAGIC)
        if not JOURNAL_MAGIC.startswith(data[:off]):
            raise CorruptJournal(f"{self.path}: bad journal header")
        if size < off:  # new, or cut before the header's fsync returned: no record yet
            self._durably(lambda fh: fh.write(JOURNAL_MAGIC[size:]))
        while off < size:
            end = _frame(data, off)
            if end is None:
                # a torn or crash-zeroed last write has no whole record after it
                if any(_frame(data, o) for o in range(off + 1, size)):
                    raise CorruptJournal(f"{self.path}: record at offset {off}: unreadable frame")
                torn = "torn record header" if off + 4 > size else "torn record"
                warnings.warn(f"{self.path}: dropping {torn} at offset {off}")
                self._durably(lambda fh: fh.truncate(off))
                return
            self._apply(data[off + 4 : end - 4], off)
            off = end

    def _durably(self, change) -> None:
        """Apply ``change`` to the journal file and fsync it. A failure closes
        the store before the error reaches the caller, so nothing is written
        after bytes that may be torn."""
        fh = self._fh
        if fh is None:
            raise StoreClosed(f"journal {self.path} is closed")
        try:
            change(fh)
            fh.flush()
            os.fsync(fh.fileno())
        except BaseException:
            self.close()
            raise

    def _apply(self, payload: bytes, off: int) -> None:
        def corrupt(why: str) -> CorruptJournal:
            return CorruptJournal(f"{self.path}: record at offset {off}: {why}")

        def hex_field(name: str) -> bytes:
            try:
                return from_hex(rec.get(name))
            except (TypeError, ValueError):
                raise corrupt(f"{name!r} is not a lowercase hex string") from None

        try:
            rec = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # deep nesting
            raise corrupt(f"unreadable: {exc}") from exc
        if not isinstance(rec, dict):
            raise corrupt("not a JSON object")
        op = rec.get("op")
        if op not in ("add", "use"):
            raise corrupt(f"unknown record op {op!r}")
        entry_id = rec.get("entry")
        if type(entry_id) is not int:
            raise corrupt("'entry' is not an integer")
        if op == "add":
            if entry_id in self._entries:
                raise corrupt(f"add record reuses entry {entry_id}")
            try:
                stored = _StoredKey(self.engine, hex_field("key"), self._where(entry_id))
            except MalformedEnvelope as exc:
                raise corrupt(f"'key' is not a signer-key envelope: {exc}") from exc
            if stored.owner in self._fresh:
                raise corrupt("second fresh key for one signer and authority")
            self._add(entry_id, stored)
        else:
            entry = self._entries.get(entry_id)
            if entry is None:
                raise corrupt(f"use record for unknown entry {entry_id}")
            if entry.status != STATUS_FRESH:
                raise corrupt(f"second use record for entry {entry_id}")
            used_at = rec.get("at")
            try:
                finite = type(used_at) in (int, float) and math.isfinite(used_at)
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise corrupt("'at' is not a finite number")
            digest = hex_field("digest")
            if len(digest) != 32:
                raise corrupt("'digest' is not 32 bytes")
            self._mark_used(entry_id, float(used_at), digest)

    def _where(self, entry_id: int) -> str:
        return f"{self.path}: entry {entry_id}"

    def _add(self, entry_id: int, stored: _StoredKey) -> None:
        self._entries[entry_id] = KeyEntry(stored)
        self._fresh[stored.owner] = entry_id
        self._next_id = max(self._next_id, entry_id + 1)

    def _mark_used(self, entry_id: int, used_at: float, digest: bytes) -> None:
        stored = self._entries[entry_id].stored
        self._entries[entry_id] = KeyEntry(stored, STATUS_USED, used_at, digest)
        del self._fresh[stored.owner]

    def _append(self, rec: dict) -> None:
        payload = json.dumps(rec, sort_keys=True, separators=(",", ":")).encode("utf-8")
        frame = struct.pack(">I", len(payload)) + payload + struct.pack(">I", zlib.crc32(payload))
        self._durably(lambda fh: fh.write(frame))  # "a+b": every write lands at the end

    # -- operations --------------------------------------------------------

    def store_key(self, key: scheme.SignerKey) -> int:
        """Persist a fresh key. Rejects a second fresh key for the same
        (identity, authority); storing again after use models key rotation."""
        with self._lock:
            if (key.signer_id, key.ta_fingerprint) in self._fresh:
                raise DuplicateKey(
                    f"fresh key for {key.signer_id!r} under this authority already stored"
                )
            entry_id = self._next_id
            raw = envelopes.to_binary(self.engine, key)
            self._append({"op": "add", "entry": entry_id, "key": raw.hex()})
            self._add(entry_id, _StoredKey(self.engine, raw, self._where(entry_id), key))
            return entry_id

    def sign_once(self, entry_id: int, ta: scheme.TARecord, message: bytes) -> scheme.Signature:
        """Sign with a stored key, consuming it. The used status is durable
        before the signature is released."""
        with self._lock:
            entry = self._entries.get(entry_id)
            if entry is None:
                raise KeyNotFound(f"no entry {entry_id}")
            if entry.status != STATUS_FRESH:
                raise KeyAlreadyUsed(f"entry {entry_id} already produced its signature")
            signature = scheme.sign(self.engine, entry.key, ta, message)
            digest = hashlib.sha256(message).digest()
            used_at = time.time()
            self._append(
                {"op": "use", "entry": entry_id, "at": used_at, "digest": digest.hex()}
            )
            self._mark_used(entry_id, used_at, digest)
            if self.after_persist_hook is not None:
                self.after_persist_hook()
            return signature

    def get(self, entry_id: int) -> KeyEntry:
        with self._lock:
            entry = self._entries.get(entry_id)
            if entry is None:
                raise KeyNotFound(f"no entry {entry_id}")
            return entry

    def entries(self) -> Dict[int, KeyEntry]:
        with self._lock:
            return dict(self._entries)

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def store_path_from_env(explicit: Optional[str]) -> str:
    """Resolve the journal path: explicit flag wins, then the environment
    override, then the default file in the working directory."""
    if explicit:
        return explicit
    return os.environ.get(STORE_ENV, "mtaotibas-store.journal")
