"""Executable security harness: the unforgeability game, its challenger,
a scripted perfect adversary, and numeric validation of the success
probability bound."""

from .bounds import bound_check, monte_carlo_abort, optimal_delta
from .challenger import Challenger, CoCDHInstance
from .forger import Forgery, scripted_forger
from .workload import abort_workload, check_workload, run_workload

__all__ = [
    "Challenger",
    "CoCDHInstance",
    "Forgery",
    "scripted_forger",
    "check_workload",
    "run_workload",
    "abort_workload",
    "bound_check",
    "monte_carlo_abort",
    "optimal_delta",
]
