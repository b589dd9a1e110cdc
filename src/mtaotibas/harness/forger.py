"""A perfect adversary for exercising the extraction step.

Only the mock backend makes this possible: there every element is its own
discrete log, so the script can compute valid signatures for identities it
never extracted keys for. It white-box-reads the challenger's coins to
rejection-sample identities and authorities until the extraction-friendly
pattern holds: the target identity and its authority planted (coins 1),
the target message hash unprogrammed (coin' 0), and every other identity
unplanted (coin 0).

The script never queries corrupt, extract, or sign, so the forgery target
is untouched by construction.
"""

import random
from dataclasses import dataclass
from typing import Dict, Optional

from .. import scheme
from ..errors import GiveUp, UnsupportedOperation
from .challenger import Challenger

_BACKGROUND_SIGNERS = 2  # unplanted signers beside the target
_BACKGROUND_TAS = 1  # authorities beside the target's
_MAX_ATTEMPTS = 256  # draws per coin hunt before giving up


@dataclass
class Forgery:
    bundle: scheme.AggregateBundle
    target_identity: bytes
    target_ta_identity: bytes
    target_message: bytes
    resamples: Dict[str, int]


def _sample(ch: Challenger, label: str, fresh, want) -> object:
    for k in range(_MAX_ATTEMPTS):
        value = fresh(k)
        if want(value):
            return value, k + 1
    raise GiveUp(
        f"no {label} with the required coin after {_MAX_ATTEMPTS} attempts "
        f"(per-attempt success probability depends on delta={ch.delta})"
    )


def scripted_forger(ch: Challenger, rng: Optional[random.Random] = None) -> Forgery:
    """Drive the challenger's oracles until the coin pattern occurs, then
    assemble a verifying aggregate forgery from mock discrete logs."""
    engine = ch.engine
    if engine.backend != "mock":
        raise UnsupportedOperation("the scripted forger needs readable discrete logs")
    rng = rng or random.Random(ch.rng.randrange(1 << 30))
    tag = rng.randrange(1 << 24)  # keeps identities fresh across runs
    resamples = {}

    def fresh_ta(k):
        name = f"forge-ta-{tag}-{k}".encode()
        ch.oracle_lowerlevel_setup(name)
        return name

    target_ta, n = _sample(ch, "planted authority", fresh_ta,
                           lambda name: ch.ta_list[name].coin == 1)
    resamples["authority"] = n

    def fresh_id(k):
        name = f"forge-id-{tag}-{k}".encode()
        ch.oracle_h0(name, 0)
        return name

    target_id, n = _sample(ch, "planted identity", fresh_id,
                           lambda name: ch.h0_list[name].coin == 1)
    resamples["identity"] = n

    ta_rec = ch.ta_list[target_ta].record
    cert_b = ta_rec.cert_bytes(engine)

    def fresh_msg(k):
        m = f"forged-payload-{tag}-{k}".encode()
        ch.oracle_h1(target_id, m, cert_b)
        return m

    target_msg, n = _sample(ch, "unprogrammed message hash", fresh_msg,
                            lambda m: ch.h1_list[(target_id, m, cert_b)].coin_prime == 0)
    resamples["message"] = n

    # background signers: unplanted identities spread over the target
    # authority and the extra ones (their coins are unconstrained)
    background = []
    attempts_left = _MAX_ATTEMPTS * _BACKGROUND_SIGNERS
    extra_names = []
    for j in range(_BACKGROUND_TAS):
        name = f"forge-bgta-{tag}-{j}".encode()
        ch.oracle_lowerlevel_setup(name)
        extra_names.append(name)
    k = 0
    while len(background) < _BACKGROUND_SIGNERS:
        if k >= attempts_left:
            raise GiveUp(f"no unplanted identity after {attempts_left} attempts")
        name = f"forge-bgid-{tag}-{k}".encode()
        k += 1
        ch.oracle_h0(name, 0)
        if ch.h0_list[name].coin == 0:
            background.append(name)
    resamples["background"] = k

    # assemble per-authority groups; the target signs first in group one
    groups = {target_ta: [(target_id, target_msg)]}
    homes = [target_ta] + extra_names
    for i, ident in enumerate(background):
        home = homes[i % len(homes)]
        groups.setdefault(home, []).append((ident, f"bg-message-{tag}-{i}".encode()))

    # forge each signature from discrete logs: sigma = (id0 + h*id1) * dlog(y)
    q = engine.order
    omega_value = 0
    group_list = []
    for ta_name, signers in groups.items():
        rec = ch.ta_list[ta_name].record
        rec_cert = rec.cert_bytes(engine)
        y_log = engine.dlog(rec.y_i)
        for ident, message in signers:
            h = ch.oracle_h1(ident, message, rec_cert)
            h0 = ch.h0_list[ident]
            omega_value = (omega_value + (engine.dlog(h0.id0) + h * engine.dlog(h0.id1)) * y_log) % q
        group_list.append((rec, signers))

    bundle = scheme.AggregateBundle.build(group_list, engine.g1 ** omega_value)
    return Forgery(
        bundle=bundle,
        target_identity=target_id,
        target_ta_identity=target_ta,
        target_message=target_msg,
        resamples=resamples,
    )
