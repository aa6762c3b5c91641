"""Per-run cost counters.

One Counters object belongs to one solver run.
"""

from dataclasses import dataclass


@dataclass
class Counters:
    gradient_evals: int = 0
    function_evals: int = 0
    minres_iters: int = 0
    # subproblem work: interior-point iterations, plus one per working-set
    # solve of an exact direction QP (sqp_ineq._projection)
    barrier_iters: int = 0
