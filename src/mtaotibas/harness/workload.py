"""Workload scripts: JSON-described oracle call sequences.

A workload is a list of operations with symbolic names, e.g.::

    [{"op": "lowerlevel_setup", "ta": "TA-1"},
     {"op": "h0", "id": "alice", "bit": 0},
     {"op": "h1", "id": "alice", "message": "m1", "ta": "TA-1"},
     {"op": "corrupt", "ta": "TA-1"},
     {"op": "extract", "id": "alice", "ta": "TA-1"},
     {"op": "sign", "id": "alice", "message": "m1", "ta": "TA-1"}]

Names are encoded as UTF-8 bytes. An ``h1`` op requires its authority to
have been set up earlier in the script (the oracle enforces that
ordering); corrupt/extract/sign set authorities up internally, matching
the game's bookkeeping, where only the adversary's own queries count.
"""

from typing import List, Optional

from ..envelopes import member
from ..errors import MalformedEnvelope, ReductionAbort, UnknownCertificate
from .challenger import Challenger


def _h1(ch: Challenger, op: dict) -> None:
    ta = ch.ta_list.get(op["ta"].encode())
    if ta is None:
        raise UnknownCertificate(f"workload queried h1 for authority {op['ta']!r} before setting it up")
    ch.oracle_h1(op["id"].encode(), op["message"].encode(), ta.record.cert_bytes(ch.engine))


# each operation: the string members it names, and how it runs against a
# challenger
_OPS = {
    "h0": (("id",), lambda ch, op: ch.oracle_h0(op["id"].encode(), int(op.get("bit", 0)))),
    "h1": (("id", "message", "ta"), _h1),
    "lowerlevel_setup": (("ta",), lambda ch, op: ch.oracle_lowerlevel_setup(op["ta"].encode())),
    "corrupt": (("ta",), lambda ch, op: ch.oracle_corrupt(op["ta"].encode())),
    "extract": (("id", "ta"), lambda ch, op: ch.oracle_extract(op["id"].encode(), op["ta"].encode())),
    "sign": (("id", "message", "ta"),
             lambda ch, op: ch.oracle_sign(op["id"].encode(), op["message"].encode(), op["ta"].encode())),
}


def check_workload(ops) -> List[dict]:
    """Return ``ops`` once it is a JSON list of objects, each with a known
    string ``"op"``, the string members that operation names and, for
    ``h0``, a ``"bit"`` of JSON integer 0 or 1 if any; raise
    MalformedEnvelope otherwise, before any operation runs."""
    if not isinstance(ops, list):
        raise MalformedEnvelope("workload must be a JSON list of operations")
    for op in ops:
        kind = member(op, "op", str, "workload operation")
        if kind not in _OPS:
            raise MalformedEnvelope(f"unknown workload op {kind!r}")
        members, _ = _OPS[kind]
        for key in members:
            member(op, key, str, f"workload {kind} operation")
        if kind == "h0":
            bit = op.get("bit", 0)
            # JSON true loads as a Python bool, which equals 1 but is no JSON integer
            if type(bit) is not int or bit not in (0, 1):
                raise MalformedEnvelope("workload h0 operation: 'bit' must be the JSON integer 0 or 1")
    return ops


def run_workload(ch: Challenger, ops: List[dict]) -> dict:
    """Execute a script, shaped as check_workload requires, against a
    challenger. Stops at the first abort.

    Returns a summary: executed op count, abort site (if any), and the
    challenger's query counters.
    """
    executed = 0
    abort_site: Optional[str] = None
    abort_detail = ""
    for op in ops:
        try:
            _, run = _OPS[op["op"]]
            run(ch, op)
        except ReductionAbort as abort:
            abort_site = abort.site
            abort_detail = abort.detail
            break
        executed += 1
    return {
        "executed": executed,
        "total": len(ops),
        "aborted": abort_site is not None,
        "abort_site": abort_site,
        "abort_detail": abort_detail,
        "counts": dict(ch.counts),
    }


def abort_workload(q_c: int, q_e: int, q_s: int) -> List[dict]:
    """The standard abort-probability workload: the requested numbers of
    corrupt, extract and sign queries, each on fresh names so every query
    flips fresh coins."""
    ops = []
    for i in range(q_c):
        ops.append({"op": "corrupt", "ta": f"wl-ta-c{i}"})
    for i in range(q_e):
        ops.append({"op": "extract", "id": f"wl-id-e{i}", "ta": f"wl-ta-e{i}"})
    for i in range(q_s):
        ops.append({"op": "sign", "id": f"wl-id-s{i}", "message": f"wl-m{i}", "ta": f"wl-ta-s{i}"})
    return ops
