"""Monolithic reference solve on the undecomposed grid.

The global backward-Euler solution serves as the reference u in every error
functional, so iteration error is measured free of discretization error.
It deliberately reuses the same assembly path as the subdomain solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteSolution
from .grid import AxisRange, FaceRule, SpaceTimeGrid, check_domain, eval_plane, march
from .problem import ParabolicProblem


@dataclass(frozen=True)
class GlobalSolution:
    values: np.ndarray  # (nt+1, nx_axis, nx_cross)


def solve_global(problem: ParabolicProblem, grid: SpaceTimeGrid) -> GlobalSolution:
    """Backward-Euler march with Dirichlet closures (data g) on every face.

    Raises NonFiniteSolution, without numpy's overflow warnings, when the
    march overflows (as it can for a tiny dt).
    """
    check_domain(problem, grid)  # before g is called with the grid's coordinates
    whole = AxisRange(0, grid.nx_axis - 1, FaceRule("dirichlet"), FaceRule("dirichlet"))
    faces = (eval_plane(problem.g, grid, problem.domain.alpha),
             eval_plane(problem.g, grid, problem.domain.beta))
    with np.errstate(over="ignore", invalid="ignore"):
        values, = march(problem, grid, [whole], [faces])
    if not np.all(np.isfinite(values)):
        raise NonFiniteSolution(f"the reference solution is not finite (dt = {grid.dt:g})")
    return GlobalSolution(values=values)
