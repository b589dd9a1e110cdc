"""Pairing engines: the algebraic substrate for the signature scheme.

Both backends subclass ``engine.PairingEngine``, which states the contract:

* ``production`` -- BLS12-381, a Type-3 curve at the 128-bit level. No
  G2->G1 isomorphism is exposed.
* ``mock`` -- integers mod 1009 with readable discrete logs; the test
  oracle. Requires explicit opt-in everywhere it can leak out (it offers no
  security whatsoever).
"""

from typing import Optional

from .mock import MOCK_MODULUS, MockEngine, load_vector_table

BACKENDS = ("production", "mock")

_production_singleton = None


def get_engine(backend: str, mock_table: Optional[dict] = None):
    """Construct (or fetch) the engine for a backend selector.

    The production engine is a process-wide singleton so its hash cache and
    pairing counter are shared; mock engines are cheap and built fresh so
    tests can pin independent hash tables.
    """
    if backend == "mock":
        return MockEngine(table=mock_table)
    if backend == "production":
        if mock_table is not None:
            raise ValueError("hash-table pinning is a mock-only facility")
        global _production_singleton
        if _production_singleton is None:
            from .bls12381 import Bls12381Engine

            _production_singleton = Bls12381Engine()
        return _production_singleton
    raise ValueError(f"unknown backend {backend!r} (expected one of {BACKENDS})")


__all__ = [
    "BACKENDS",
    "MOCK_MODULUS",
    "MockEngine",
    "get_engine",
    "load_vector_table",
]
