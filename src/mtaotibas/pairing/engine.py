"""The base class of both pairing backends: the plumbing every engine
shares, written once."""

import threading
from functools import lru_cache

from ..encoding import hash_to_int_wide
from ..errors import EmptyInput, InvalidElement, UnsupportedOperation

# distinct (tag, data) pairs whose hash-to-G1 point an engine keeps
_HASH_MEMO_SIZE = 8192
# distinct valid encodings whose decoded point an engine keeps, per group
_DECODE_MEMO_SIZE = 256


class PairingEngine:
    """A Type-3 pairing e: G1 x G2 -> GT on groups of prime order ``order``,
    with hashing, canonical encodings and a pairing counter.

    Elements are immutable and compare with ``==``. G1 has the full group
    law: ``a * b``, ``a ** k``, ``a.inverse()``, and ``g1_product`` for a
    product of powers. G2 offers ``r ** k`` (key generation), and GT only
    ``==``: every pairing equation is a product of (G1, G2) terms that should
    pair to one, with the inverses taken in G1. One equation is checked as a
    ``multi_pair`` product compared with ``identity_gt``; several at once by
    ``first_failing(products)``, which returns the index of the first product
    that does not pair to one, or None when all do. The mock backend, the
    tests' oracle, gives all three groups the full law.

    ``first_failing``'s precondition: every product but the last carries
    independent random weights, drawn after its inputs are fixed. Production
    multiplies the products' Miller values and pays one final
    exponentiation, so without the weights two failing products could
    cancel; only when that check fails does it final-exponentiate each
    product but the last, in order, to name the first that fails. The mock
    checks each product on its own, since in its group of order 1009 weights
    would leave a 1/1008 chance of cancelling. Both check every term of
    every product before counting anything, and then count every term of
    every product, whichever product fails.

    A subclass sets ``backend`` (named in envelopes), ``order``, the element
    classes ``G1``/``G2``, whose elements give their canonical bytes as
    ``encode()`` (``encode_g1``/``encode_g2`` check the type and return
    them), the widths ``scalar_bytes``/``g1_bytes``, the generators
    ``g1``/``g2`` and the identities ``identity_g1``/``identity_gt``. It
    provides ``multi_pair`` and ``first_failing`` (passing their terms through
    ``_counted`` and ``_counted_products``), ``_hash_to_g1``
    (the uncached value that ``hash_to_g1`` memoizes) and
    ``_decode_g1``/``_decode_g2`` (the uncached decoders that
    ``decode_g1``/``decode_g2`` memoize), which return the value an element
    class wraps and raise InvalidElement for all but canonical encodings
    of subgroup elements; ``psi`` (G2 -> G1) only where the backend has
    one; and may replace ``g1_product``'s loop of ``*`` and ``**`` with a
    faster kernel that passes its bases through ``_g1_terms``.

    An engine can be shared across threads. Its mutable state is the
    counter, which adds one per pairing term, and caches of pure functions:
    in both backends the hash-to-G1 memo of ``_HASH_MEMO_SIZE`` inputs and
    one decode memo per group of ``_DECODE_MEMO_SIZE`` encodings
    (``functools.lru_cache``, thread-safe itself; a mock's pinned table is
    fixed per engine), and in production only the Miller lines of recent G2
    arguments. One lock, ``_lock``, guards the counter and the line cache.
    No cache changes a result. A decode memo keys on the exact bytes and
    holds only encodings that passed every check; a rejected one is never
    cached, so it runs the whole decoder again on every call.
    """

    def __init__(self):
        self._pairing_count = 0
        self._lock = threading.Lock()
        self._hash_g1 = lru_cache(maxsize=_HASH_MEMO_SIZE)(self._hash_to_g1)
        self._decoded_g1 = lru_cache(maxsize=_DECODE_MEMO_SIZE)(self._decode_g1)
        self._decoded_g2 = lru_cache(maxsize=_DECODE_MEMO_SIZE)(self._decode_g2)

    @property
    def pairing_count(self) -> int:
        with self._lock:
            return self._pairing_count

    def _counted_products(self, products) -> list:
        """The products as lists of terms, once every term of every product
        is checked to be a (G1, G2) pair of this engine and neither the list
        nor any product is empty; counts the terms of them all. Raises before
        counting anything."""
        products = [list(terms) for terms in products]
        if not products or not all(products):
            raise EmptyInput("a pairing needs at least one term")
        for terms in products:
            for p, r in terms:
                if type(p) is not self.G1 or type(r) is not self.G2:
                    raise InvalidElement("pairing terms must be (G1, G2)")
        with self._lock:
            self._pairing_count += sum(map(len, products))
        return products

    def _counted(self, terms) -> list:
        """The terms of one product as a list, checked and counted as by
        ``_counted_products``."""
        return self._counted_products([terms])[0]

    def pair(self, p, r):
        """e(p, r), as the one-term product."""
        return self.multi_pair([(p, r)])

    def g1_product(self, pairs):
        """The product of ``base ** k`` over (base, k) pairs whose bases are
        G1 elements of this engine; ``identity_g1`` for no pairs. Raises
        InvalidElement for any other base before computing anything."""
        out = self.identity_g1
        for base, k in self._g1_terms(pairs):
            out = out * base ** k
        return out

    def _g1_terms(self, pairs) -> list:
        pairs = list(pairs)
        for base, _ in pairs:
            if type(base) is not self.G1:
                raise InvalidElement("product bases must be G1 elements")
        return pairs

    def psi(self, r):
        raise UnsupportedOperation(
            f"the {self.backend} backend exposes no efficient G2->G1 isomorphism; use the mock backend"
        )

    def hash_to_g1(self, tag: bytes, data: bytes):
        """H(tag, data) in G1, memoized; an error (an empty tag's ValueError) is never cached."""
        return self.G1(self._hash_g1(bytes(tag), bytes(data)))

    def hash_to_scalar(self, tag: bytes, data: bytes) -> int:
        """A scalar in [1, order - 1]; the domain tag must be non-empty
        (``expand_bytes`` raises ValueError otherwise)."""
        # reduce mod q-1 then shift into [1, q-1]: output is never 0
        return 1 + hash_to_int_wide(tag, data, self.order - 1)

    def random_scalar(self, rng) -> int:
        return rng.randrange(1, self.order)

    def encode_scalar(self, k: int) -> bytes:
        if not 0 <= k < self.order:
            raise InvalidElement(f"scalar {k} out of range")
        return int(k).to_bytes(self.scalar_bytes, "big")

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != self.scalar_bytes:
            raise InvalidElement("bad scalar length")
        k = int.from_bytes(data, "big")
        if k >= self.order:
            raise InvalidElement(f"scalar {k} out of range")
        return k

    def decode_g1(self, data: bytes):
        """The G1 element ``data`` encodes, memoized; InvalidElement is never cached."""
        return self.G1(self._decoded_g1(bytes(data)))

    def decode_g2(self, data: bytes):
        """The G2 element ``data`` encodes, memoized; InvalidElement is never cached."""
        return self.G2(self._decoded_g2(bytes(data)))

    def encode_g1(self, e) -> bytes:
        if type(e) is not self.G1:
            raise InvalidElement("not a G1 element")
        return e.encode()

    def encode_g2(self, e) -> bytes:
        if type(e) is not self.G2:
            raise InvalidElement("not a G2 element")
        return e.encode()
