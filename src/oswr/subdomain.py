"""One-strip space-time solve and Robin trace extraction, the per-strip
references of run()'s stacked march and exchange.

A strip's Dirichlet faces carry g, which its march evaluates, and its
Robin faces take the (nt+1, faces, ncross) Robin data sign * du/dx_n + p u;
its AxisRange (axis_range) states each face's kind, sign and p.
Outgoing Robin traces are extracted at nodes interior to the owning strip
with centered differences, so they match the ghost-eliminated boundary rows
exactly at the discrete level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import SubdomainEntry
from .errors import DataMismatch, NodeOutOfRange
from .grid import AxisRange, FaceRule, SpaceTimeGrid, march
from .problem import ParabolicProblem


@dataclass(frozen=True)
class RobinParameter:
    """Finite Robin constant p > 0 plus the sign convention of the derivative term.

    orientation 'outward' (default) flips the sign of the derivative on low
    faces so the condition reads du/dn + p u = data with n the outward
    normal; 'paper' keeps +d/dx_n with the same p on both faces, which
    converges through overlap alone and is markedly slower.
    """

    p: float
    orientation: str = "outward"

    def __post_init__(self):
        if not 0 < self.p < math.inf:
            raise ValueError("Robin parameter p must be positive and finite")
        if self.orientation not in ("paper", "outward"):
            raise ValueError("orientation must be 'paper' or 'outward'")

    def sign(self, side: str) -> float:
        if side == "left":
            return -1.0 if self.orientation == "outward" else 1.0
        return 1.0


@dataclass(frozen=True)
class SubdomainSolution:
    """Iterate values on one strip: (nt+1, local axis nodes, cross nodes)."""

    index: int
    i_left: int
    values: np.ndarray


def axis_range(entry: SubdomainEntry, p: RobinParameter) -> AxisRange:
    """The strip's axis nodes and face rules, as the march takes them."""
    return AxisRange(entry.i_left, entry.i_right,
                     FaceRule(entry.left_kind, p.p, p.sign("left")),
                     FaceRule(entry.right_kind, p.p, p.sign("right")))


def solve_subdomain(problem: ParabolicProblem, grid: SpaceTimeGrid,
                    entry: SubdomainEntry, robin: np.ndarray,
                    p: RobinParameter) -> SubdomainSolution:
    """March one strip over the whole time window with the given Robin
    data of its Robin faces."""
    values, = march(problem, grid, [axis_range(entry, p)], robin)
    return SubdomainSolution(index=entry.index, i_left=entry.i_left, values=values)


def extract_robin_trace(sol: SubdomainSolution, grid: SpaceTimeGrid, node: int,
                        p: RobinParameter, for_side: str) -> np.ndarray:
    """Robin data sign*D_h u + p u at a node interior to this subdomain,
    (nt+1, ncross).

    D_h is the centered difference along the axis; `for_side` is the face of
    the neighboring subdomain that will consume the data (it fixes the sign
    under the 'outward' orientation).
    """
    li = node - sol.i_left
    m = sol.values.shape[1]
    if not 1 <= li <= m - 2:
        raise NodeOutOfRange(
            f"node {node} is not strictly interior to subdomain {sol.index}")
    s = p.sign(for_side)
    h = grid.hx_axis
    deriv = (sol.values[:, li + 1, :] - sol.values[:, li - 1, :]) / (2.0 * h)
    vals = s * deriv + p.p * sol.values[:, li, :]
    if not np.all(np.isfinite(vals)):
        raise DataMismatch("trace values contain non-finite entries")
    return vals
