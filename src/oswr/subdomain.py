"""One-subdomain space-time solve with Robin/Dirichlet face data.

Interior interfaces carry Robin data of the functional
sign * du/dx_n + p u; the default orientation uses the +d/dx_n sign on both
faces (one constant p everywhere).  Outgoing Robin traces are extracted at
nodes interior to the owning subdomain with centered differences, so they
match the ghost-eliminated boundary rows exactly at the discrete level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

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
class TraceData:
    """Time series of boundary data on one interface plane.

    values has shape (nt+1, ncross): Robin functional values for kind
    'robin', solution values for kind 'dirichlet'.  side names the face of
    the receiving subdomain.
    """

    side: str
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("robin", "dirichlet"):
            raise ValueError("trace kind must be 'robin' or 'dirichlet'")
        if self.side not in ("left", "right"):
            raise ValueError("trace side must be 'left' or 'right'")
        if not np.all(np.isfinite(self.values)):
            raise DataMismatch("trace values contain non-finite entries")


@dataclass(frozen=True)
class SubdomainSolution:
    """Iterate values on one strip: (nt+1, local axis nodes, cross nodes)."""

    index: int
    i_left: int
    values: np.ndarray


def _check_trace(data: TraceData, expected_kind: str, side: str,
                 grid: SpaceTimeGrid) -> None:
    if data.kind != expected_kind:
        raise DataMismatch(f"{side} face expects {expected_kind} data, got {data.kind}")
    if data.side != side:
        raise DataMismatch(f"trace marked for side {data.side} fed to {side} face")
    if data.values.shape != (grid.nt + 1, grid.nx_cross):
        raise DataMismatch(
            f"trace shape {data.values.shape} != {(grid.nt + 1, grid.nx_cross)}")


def axis_range(entry: SubdomainEntry, p: RobinParameter) -> AxisRange:
    """The strip's axis nodes and face rules, as the march takes them."""
    return AxisRange(entry.i_left, entry.i_right,
                     FaceRule(entry.left_kind, p.p, p.sign("left")),
                     FaceRule(entry.right_kind, p.p, p.sign("right")))


def face_data(entry: SubdomainEntry, left_data: TraceData, right_data: TraceData,
              grid: SpaceTimeGrid) -> Tuple[np.ndarray, np.ndarray]:
    """The strip's inbound (low, high) face data, checked against its face
    kinds and the grid."""
    _check_trace(left_data, entry.left_kind, "left", grid)
    _check_trace(right_data, entry.right_kind, "right", grid)
    return left_data.values, right_data.values


def solve_subdomain(problem: ParabolicProblem, grid: SpaceTimeGrid,
                    entry: SubdomainEntry, left_data: TraceData,
                    right_data: TraceData, p: RobinParameter) -> SubdomainSolution:
    """March one strip over the whole time window with the given face data,
    preparing every step afresh."""
    faces = face_data(entry, left_data, right_data, grid)
    values, = march(problem, grid, [axis_range(entry, p)], [faces])
    return SubdomainSolution(index=entry.index, i_left=entry.i_left, values=values)


def extract_robin_trace(sol: SubdomainSolution, grid: SpaceTimeGrid, node: int,
                        p: RobinParameter, for_side: str) -> TraceData:
    """Robin data sign*D_h u + p u at a node interior to this subdomain.

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
    return TraceData(side=for_side, kind="robin", values=vals)
