"""Known-discrete-log mock backend over the integers mod a small prime.

All three groups are the additive group Z_q written multiplicatively:
the group law is integer addition, exponentiation is integer
multiplication, and the bilinear map is ``pair(a, b) = a*b mod q``. Every
element literally equals its own discrete log (the generator is 1), which
makes the backend a brute-force oracle for tests. It is, of course,
completely insecure.

Hash functions consult a pinned lookup table first so test vectors can fix
their outputs; unknown inputs fall back to deterministic wide hashing.
"""

import threading
from typing import Optional

from ..encoding import expand_bytes, hash_to_int_wide
from ..errors import EmptyInput, InvalidElement

MOCK_MODULUS = 1009  # prime, small enough for hand arithmetic


class _MockElement:
    """Shared behavior for the three mock groups."""

    __slots__ = ("value",)
    modulus = MOCK_MODULUS

    def __init__(self, value: int):
        self.value = value % self.modulus

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self.value + other.value)

    def __pow__(self, k: int):
        return type(self)(self.value * (k % self.modulus))

    def inverse(self):
        return type(self)(-self.value)

    def __eq__(self, other):
        return type(other) is type(self) and other.value == self.value

    def __hash__(self):
        return hash((type(self).__name__, self.value))

    def __repr__(self):
        return f"{type(self).__name__}({self.value})"


class MockG1(_MockElement):
    __slots__ = ()


class MockG2(_MockElement):
    __slots__ = ()


class MockGT(_MockElement):
    __slots__ = ()


def load_vector_table(path) -> dict:
    """Parse a test-vector file into a hash table for MockEngine.

    One record per line: ``op | hex-inputs | hex-output`` where op is
    ``hash_to_g1`` or ``hash_to_scalar`` and the inputs are the domain tag
    and the hashed bytes. Blank lines and ``#`` comments are skipped.
    """
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'op | inputs | output'")
            op, inputs, output = parts
            if op not in ("hash_to_g1", "hash_to_scalar"):
                raise ValueError(f"{path}:{lineno}: unknown op {op!r}")
            hexes = inputs.split()
            if len(hexes) != 2:
                raise ValueError(f"{path}:{lineno}: expected tag and input hex")
            tag, data = bytes.fromhex(hexes[0]), bytes.fromhex(hexes[1])
            table[(op, tag, data)] = int.from_bytes(bytes.fromhex(output), "big")
    return table


def dump_vector_table(table: dict, path) -> None:
    """Write a hash table in the format read by load_vector_table."""
    with open(path, "w", encoding="utf-8") as fh:
        for (op, tag, data), value in table.items():
            fh.write(f"{op} | {tag.hex()} {data.hex()} | {value.to_bytes(2, 'big').hex()}\n")


class MockEngine:
    """PairingEngine backend over Z_1009 with readable discrete logs."""

    backend = "mock"
    name = f"mock-{MOCK_MODULUS}"
    supports_psi = True
    order = MOCK_MODULUS
    scalar_bytes = 2
    g1_bytes = 2
    g2_bytes = 2

    def __init__(self, table: Optional[dict] = None):
        self.g1 = MockG1(1)
        self.g2 = MockG2(1)
        self.identity_g1 = MockG1(0)
        self.identity_g2 = MockG2(0)
        self.identity_gt = MockGT(0)
        self._table = dict(table) if table else {}
        self._pairing_count = 0
        self._count_lock = threading.Lock()

    # -- pairing ---------------------------------------------------------

    def _count(self, k: int) -> None:
        with self._count_lock:
            self._pairing_count += k

    @property
    def pairing_count(self) -> int:
        with self._count_lock:
            return self._pairing_count

    def pair(self, p: MockG1, r: MockG2) -> MockGT:
        if type(p) is not MockG1 or type(r) is not MockG2:
            raise InvalidElement("pair expects (G1, G2)")
        self._count(1)
        return MockGT(p.value * r.value)

    def multi_pair(self, terms) -> MockGT:
        terms = list(terms)
        if not terms:
            raise EmptyInput("multi_pair needs at least one term")
        acc = 0
        for p, r in terms:
            if type(p) is not MockG1 or type(r) is not MockG2:
                raise InvalidElement("multi_pair expects (G1, G2) terms")
            acc += p.value * r.value
        self._count(len(terms))
        return MockGT(acc)

    def psi(self, r: MockG2) -> MockG1:
        if type(r) is not MockG2:
            raise InvalidElement("psi expects a G2 element")
        return MockG1(r.value)

    # -- hashing and sampling ---------------------------------------------

    def hash_to_g1(self, tag: bytes, data: bytes) -> MockG1:
        if not tag:
            raise ValueError("domain tag must be non-empty")
        pinned = self._table.get(("hash_to_g1", bytes(tag), bytes(data)))
        if pinned is not None:
            return MockG1(pinned)
        return MockG1(hash_to_int_wide(tag, data, self.order))

    def hash_to_scalar(self, tag: bytes, data: bytes) -> int:
        if not tag:
            raise ValueError("domain tag must be non-empty")
        pinned = self._table.get(("hash_to_scalar", bytes(tag), bytes(data)))
        if pinned is not None:
            return pinned
        # reduce mod q-1 then shift into [1, q-1]: output is never 0
        return 1 + hash_to_int_wide(tag, data, self.order - 1)

    def random_scalar(self, rng) -> int:
        return rng.randrange(1, self.order)

    # -- encodings ---------------------------------------------------------

    def encode_scalar(self, k: int) -> bytes:
        if not 0 <= k < self.order:
            raise InvalidElement(f"scalar {k} out of range")
        return k.to_bytes(self.scalar_bytes, "big")

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != self.scalar_bytes:
            raise InvalidElement("bad scalar length")
        k = int.from_bytes(data, "big")
        if k >= self.order:
            raise InvalidElement(f"scalar {k} out of range")
        return k

    def _encode_element(self, e: _MockElement) -> bytes:
        return e.value.to_bytes(2, "big")

    def _decode_value(self, data: bytes) -> int:
        if len(data) != 2:
            raise InvalidElement("mock elements encode to 2 bytes")
        v = int.from_bytes(data, "big")
        if v >= self.order:
            raise InvalidElement(f"value {v} outside Z_{self.order}")
        return v

    def encode_g1(self, e: MockG1) -> bytes:
        if type(e) is not MockG1:
            raise InvalidElement("not a G1 element")
        return self._encode_element(e)

    def decode_g1(self, data: bytes) -> MockG1:
        return MockG1(self._decode_value(data))

    def encode_g2(self, e: MockG2) -> bytes:
        if type(e) is not MockG2:
            raise InvalidElement("not a G2 element")
        return self._encode_element(e)

    def decode_g2(self, data: bytes) -> MockG2:
        return MockG2(self._decode_value(data))

    # -- test-oracle helpers -------------------------------------------------

    def dlog(self, e: _MockElement) -> int:
        """Discrete log of any element (the element is its own dlog)."""
        return e.value

    def element_g1(self, value: int) -> MockG1:
        return MockG1(value)

    def element_g2(self, value: int) -> MockG2:
        return MockG2(value)
