"""Byte-level helpers: length prefixing, canonical hex, byte expansion.

Length prefixing keeps multi-field hash inputs unambiguous; expansion turns
SHA-256 into an arbitrary-length deterministic stream with domain separation.
"""

import hashlib
import struct


def length_prefixed(*fields: bytes) -> bytes:
    """Concatenate fields, each preceded by its u32 big-endian length."""
    out = bytearray()
    for field in fields:
        out += struct.pack(">I", len(field))
        out += field
    return bytes(out)


def from_hex(s: str) -> bytes:
    """The bytes whose ``.hex()`` is ``s``; ValueError for any other string,
    uppercase or spaced hex included, and TypeError for a non-string."""
    data = bytes.fromhex(s)
    if data.hex() != s:
        raise ValueError("hex must be lowercase, with no whitespace")
    return data


def expand_bytes(tag: bytes, data: bytes, n: int) -> bytes:
    """Derive n deterministic bytes from (tag, data) with SHA-256 in counter
    mode. tag must be non-empty (domain separation)."""
    if not tag:
        raise ValueError("domain tag must be non-empty")
    seed = length_prefixed(tag, data)
    out = bytearray()
    counter = 0
    while len(out) < n:
        out += hashlib.sha256(struct.pack(">I", counter) + seed).digest()
        counter += 1
    return bytes(out[:n])


def hash_to_int_wide(tag: bytes, data: bytes, modulus: int) -> int:
    """Reduce an expanded byte stream of >= bitlen(modulus)+128 bits modulo
    ``modulus``. The widening keeps the reduction bias below 2**-128."""
    nbytes = (modulus.bit_length() + 128 + 7) // 8
    return int.from_bytes(expand_bytes(tag, data, nbytes), "big") % modulus
