"""Numeric validation of the success-probability bound.

The challenger's success probability against an adversary with advantage
eps decomposes as (no abort during queries) * (forgery lands) * (coin
pattern holds), giving

    f(delta) = (1 - delta)^(q_C + q_E + q_S + n) * delta^2

times eps. Maximizing over delta must dominate the closed-form bound
4 / (e^2 (q_C + q_E + q_S + n + 2)^2); over 0 < delta <= 1, f peaks at
exactly delta* = 2 / (q_C + q_E + q_S + n + 2). bound_check establishes
the inequality in exact rational arithmetic (using a rational lower bound
on e^2 tight to 20 digits); monte_carlo_abort estimates the no-abort
probability empirically.
"""

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from ..pairing import get_engine
from .challenger import Challenger, CoCDHInstance
from .workload import abort_workload, run_workload

# e^2 = 7.3890560989306502272304274605750078131... (truncated -> lower bound)
E_SQUARED_LOWER = Fraction(73890560989306502272, 10**19)


def optimal_delta(q_c: int, q_e: int, q_s: int, n: int) -> float:
    """The delta maximizing the bound, 2/(q_C+q_E+q_S+n+2)."""
    return 2.0 / (q_c + q_e + q_s + n + 2)


def success_probability(delta: Fraction, budget: int) -> Fraction:
    """(1-delta)^budget * delta^2, exactly."""
    return (1 - delta) ** budget * delta**2


def bound_rhs_upper(budget: int) -> Fraction:
    """A rational upper bound on 4/(e^2 (budget+2)^2): anything >= this is
    >= the true right-hand side."""
    return Fraction(4) / (E_SQUARED_LOWER * (budget + 2) ** 2)


def bound_check(q_c: int, q_e: int, q_s: int, n: int) -> dict:
    """Evaluate max_delta f(delta), at its maximizer delta*, against the
    closed-form bound. The comparison is between exact rationals, with a
    rational upper bound on the right-hand side, so a pass is a proof of
    the inequality."""
    budget = q_c + q_e + q_s + n
    delta_star = Fraction(2, budget + 2)
    lhs = success_probability(delta_star, budget)
    return {
        "q_c": q_c,
        "q_e": q_e,
        "q_s": q_s,
        "n": n,
        "delta_star": float(delta_star),
        "lhs_max": float(lhs),
        "rhs": 4.0 / (math.e**2 * (budget + 2) ** 2),
        "holds": lhs >= bound_rhs_upper(budget),
    }


def _mc_worker(args) -> int:
    delta, ops, seed, lo, hi = args
    # planted coins are answered through psi (G2 -> G1), which only the mock has
    engine = get_engine("mock")
    survived = 0
    for t in range(lo, hi):
        rng = random.Random((seed << 24) ^ t)
        ch = Challenger(engine, CoCDHInstance.random(engine, rng), delta, rng)
        if not run_workload(ch, ops)["aborted"]:
            survived += 1
    return survived


def monte_carlo_abort(delta: float, q_c: int, q_e: int, q_s: int,
                      trials: int = 100_000, seed: int = 0) -> dict:
    """Empirical Pr[no abort] for the standard workload, with a 99%
    normal-approximation confidence interval and the claimed lower bound
    (1-delta)^(q_C+q_E+q_S). Each trial seeds its own rng from (seed, t),
    so how the trials split into chunks cannot change the estimate."""
    ops = abort_workload(q_c, q_e, q_s)
    jobs = min(8, os.cpu_count() or 1)
    chunk = (trials + jobs - 1) // jobs
    ranges = [(delta, ops, seed, lo, min(lo + chunk, trials))
              for lo in range(0, trials, chunk)]
    if jobs == 1 or trials < 2000:
        survived = sum(_mc_worker(a) for a in ranges)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            survived = sum(pool.map(_mc_worker, ranges))
    estimate = survived / trials
    half_width = 2.5758 * math.sqrt(max(estimate * (1 - estimate), 1e-12) / trials)
    bound = (1 - delta) ** (q_c + q_e + q_s)
    return {
        "delta": delta,
        "q_c": q_c,
        "q_e": q_e,
        "q_s": q_s,
        "trials": trials,
        "no_abort": survived,
        "estimate": estimate,
        "ci99_half_width": half_width,
        "bound": bound,
        "passes": estimate >= bound - half_width,
    }
