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

from typing import Optional

from ..encoding import from_hex, hash_to_int_wide
from ..errors import InvalidElement
from .engine import PairingEngine

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

    def encode(self) -> bytes:
        return self.value.to_bytes(2, "big")

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
    and the hashed bytes. Blank lines and ``#`` comments are skipped. Hex is
    canonical (lowercase, unspaced), and an output is 2 bytes in the op's
    range: Z_q for ``hash_to_g1``, [1, q - 1] for ``hash_to_scalar``.
    Each (op, tag, input) has one record. ValueError names the offending
    ``path:line``.
    """
    table = {}
    first_line = {}
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
            try:
                tag, data, raw = (from_hex(h) for h in (*hexes, output))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if len(raw) != 2:
                raise ValueError(f"{path}:{lineno}: an output is 2 bytes, as mock elements and scalars are")
            value = int.from_bytes(raw, "big")
            low = 0 if op == "hash_to_g1" else 1
            if not low <= value < MOCK_MODULUS:
                raise ValueError(f"{path}:{lineno}: {op} output {value} outside [{low}, {MOCK_MODULUS - 1}]")
            key = (op, tag, data)
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: duplicate record, first at line {first_line[key]}")
            first_line[key] = lineno
            table[key] = value
    return table


class MockEngine(PairingEngine):
    """PairingEngine backend over Z_1009 with readable discrete logs."""

    backend = "mock"
    order = MOCK_MODULUS
    G1 = MockG1
    G2 = MockG2
    scalar_bytes = 2
    g1_bytes = 2

    def __init__(self, table: Optional[dict] = None):
        super().__init__()
        self.g1 = MockG1(1)
        self.g2 = MockG2(1)
        self.identity_g1 = MockG1(0)
        self._table = dict(table) if table else {}

    # -- pairing ---------------------------------------------------------

    def multi_pair(self, terms) -> MockGT:
        return MockGT(sum(p.value * r.value for p, r in self._counted_products([terms])[0]))

    def first_failing(self, products) -> Optional[int]:
        # each product on its own: a combined check would accept a failing
        # weighted product and a failing last one that cancel, here with
        # probability 1/1008
        for i, terms in enumerate(self._counted_products(products)):
            if sum(p.value * r.value for p, r in terms) % self.order:
                return i
        return None

    def psi(self, r: MockG2) -> MockG1:
        if type(r) is not MockG2:
            raise InvalidElement("psi expects a G2 element")
        return MockG1(r.value)

    # -- hashing ------------------------------------------------------------

    def _pinned(self, op: str, tag: bytes, data: bytes) -> Optional[int]:
        if not tag:
            raise ValueError("domain tag must be non-empty")
        return self._table.get((op, bytes(tag), bytes(data)))

    def _hash_to_g1(self, tag: bytes, data: bytes) -> int:
        pinned = self._pinned("hash_to_g1", tag, data)
        return hash_to_int_wide(tag, data, self.order) if pinned is None else pinned

    def hash_to_scalar(self, tag: bytes, data: bytes) -> int:
        pinned = self._pinned("hash_to_scalar", tag, data)
        return super().hash_to_scalar(tag, data) if pinned is None else pinned

    # -- encodings ---------------------------------------------------------

    def _decode_value(self, data: bytes) -> int:
        if len(data) != 2:
            raise InvalidElement("mock elements encode to 2 bytes")
        v = int.from_bytes(data, "big")
        if v >= self.order:
            raise InvalidElement(f"value {v} outside Z_{self.order}")
        return v

    _decode_g1 = _decode_g2 = _decode_value

    # -- test-oracle helpers -------------------------------------------------

    def dlog(self, e: _MockElement) -> int:
        """Discrete log of any element (the element is its own dlog)."""
        return e.value
