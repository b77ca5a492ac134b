"""The outer Schwarz waveform relaxation iteration.

Each sweep solves all strips from the previous sweep's traces
(additive/Jacobi pattern), then exchanges Robin traces across interfaces.
Extreme faces always carry Dirichlet data g; the initial guess h0 supplies
Robin data on interior interfaces for the first sweep only.  Since the
strips of a sweep are independent, a sweep marches them side by side, one
block-diagonal solve per time step; a run keeps one StackOperator, so the
steps are assembled and factored in the first sweep and reused by the
later ones.  `run()` takes each sweep's diagnostics (StackDiagnostics) and
Robin exchange (StackExchange) from the stacked (nt+1, N) iterate in a few
array operations, whatever the number of strips; sweep_once and exchange
are the per-strip forms of the same sweep and exchange.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .decomposition import SubdomainLayout
from .diagnostics import (IterationHistory, IterationRecord, StackDiagnostics,
                          WeightSpec, default_gamma)
from .errors import DataMismatch, NodeOutOfRange, OswrError
from .grid import SpaceTimeGrid, StackOperator, eval_plane, march
from .oracle import GlobalSolution
from .problem import ParabolicProblem
from .subdomain import (RobinParameter, SubdomainSolution, TraceData, axis_range,
                        extract_robin_trace, face_data)

SubTraces = Tuple[TraceData, TraceData]  # (left, right) inbound data
GUESS_MODES = 3  # sinusoids in the random-smooth guess


@dataclass(frozen=True)
class InitialGuess:
    """Interface guess h0: zero, a constant, or seeded low-frequency noise."""

    kind: str = "zero"
    value: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "random-smooth"):
            raise ValueError("guess kind must be zero, constant or random-smooth")
        if not math.isfinite(self.value):
            raise ValueError("guess value must be finite")
        if self.seed < 0:
            raise ValueError("guess seed must be nonnegative")

    def evaluate(self, domain, t, X, xn):
        if self.kind == "zero":
            return np.zeros(np.broadcast(t, X, xn).shape)
        if self.kind == "constant":
            return np.full(np.broadcast(t, X, xn).shape, self.value)
        # Sum of low-frequency sinusoids; a fresh generator per call keeps
        # the guess independent of evaluation order.
        rng = np.random.default_rng(self.seed)
        amp = rng.uniform(-1.0, 1.0, GUESS_MODES)
        phase = rng.uniform(0.0, 2.0 * np.pi, GUESS_MODES)
        tmod = rng.uniform(-1.0, 1.0, GUESS_MODES)
        xmod = rng.uniform(-1.0, 1.0, GUESS_MODES)
        xi = (xn - domain.alpha) / domain.axis_length
        tau = t / domain.T
        if domain.n == 2:
            lo, hi = domain.cross
            chi = (X - lo) / (hi - lo)
        else:
            chi = 0.0
        out = np.zeros(np.broadcast(t, X, xn).shape)
        for q in range(GUESS_MODES):
            term = amp[q] * np.sin((q + 1) * np.pi * xi + phase[q])
            term = term * (1.0 + 0.5 * tmod[q] * np.cos((q + 1) * np.pi * tau))
            term = term * (1.0 + 0.5 * xmod[q] * np.sin(np.pi * chi))
            out = out + term
        return out


@dataclass(frozen=True)
class SWRConfig:
    p: RobinParameter
    max_iters: int = 60
    stop_tol: float = 1e-20
    guess: InitialGuess = field(default_factory=InitialGuess)
    gamma: Optional[float] = None  # space-weight gamma; default 5/(beta-alpha)
    theta: float = 0.0  # decay rate of the time weight varphi(t) = exp(-theta t)

    def __post_init__(self):
        if not isinstance(self.p, RobinParameter):
            object.__setattr__(self, "p", RobinParameter(float(self.p)))
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.stop_tol > 0:
            raise ValueError("stop_tol must be positive")
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not 0 <= self.theta < math.inf:
            raise ValueError("theta must be nonnegative and finite")


def _dirichlet_trace(problem: ParabolicProblem, grid: SpaceTimeGrid,
                     xn: float, side: str) -> TraceData:
    return TraceData(side=side, kind="dirichlet", values=eval_plane(problem.g, grid, xn))


def initial_traces(guess: InitialGuess, layout: SubdomainLayout,
                   grid: SpaceTimeGrid, problem: ParabolicProblem) -> List[SubTraces]:
    """Sweep-0 data: h0 on interior interfaces, Dirichlet g at the extremes."""
    domain = problem.domain
    times = grid.times()
    cross = grid.cross_nodes()
    axis = grid.axis_nodes()

    def robin_trace(node: int, side: str) -> TraceData:
        xn = axis[node]
        vals = guess.evaluate(domain, times[:, None], cross[None, :], xn)
        vals = np.broadcast_to(vals, (grid.nt + 1, grid.nx_cross)).copy()
        return TraceData(side=side, kind="robin", values=vals)

    traces: List[SubTraces] = []
    for entry in layout.entries:
        left = (_dirichlet_trace(problem, grid, axis[entry.i_left], "left")
                if entry.left_kind == "dirichlet"
                else robin_trace(entry.i_left, "left"))
        right = (_dirichlet_trace(problem, grid, axis[entry.i_right], "right")
                 if entry.right_kind == "dirichlet"
                 else robin_trace(entry.i_right, "right"))
        traces.append((left, right))
    return traces


def exchange(solutions: Sequence[SubdomainSolution], layout: SubdomainLayout,
             grid: SpaceTimeGrid, p: RobinParameter,
             previous: Sequence[SubTraces]) -> List[SubTraces]:
    """Next sweep's inbound traces, extracted from this sweep's solutions."""
    traces: List[SubTraces] = []
    for entry in layout.entries:
        l = entry.index
        if entry.left_kind == "dirichlet":
            left = previous[l][0]
        else:
            left = extract_robin_trace(solutions[l - 1], grid, entry.i_left, p, "left")
        if entry.right_kind == "dirichlet":
            right = previous[l][1]
        else:
            right = extract_robin_trace(solutions[l + 1], grid, entry.i_right, p, "right")
        traces.append((left, right))
    return traces


def sweep_once(problem: ParabolicProblem, grid: SpaceTimeGrid,
               layout: SubdomainLayout, traces: Sequence[SubTraces],
               p: RobinParameter, operator: Optional[StackOperator] = None,
               ) -> List[SubdomainSolution]:
    """Solve all strips from the given inbound traces (Jacobi ordering) in
    one march.

    `operator`, a StackOperator over the layout's axis ranges, carries the
    prepared steps from one sweep to the next; without one, the steps are
    prepared for this sweep.
    """
    entries = layout.entries
    faces = [face_data(e, *traces[e.index], grid) for e in entries]
    values = march(problem, grid, [axis_range(e, p) for e in entries], faces, operator)
    return [SubdomainSolution(index=e.index, i_left=e.i_left, values=v)
            for e, v in zip(entries, values)]


class StackExchange:
    """The Robin exchange of every strip at once, on march's stacked
    (nt+1, N) iterate.

    `faces` holds each strip's (low, high) face data, as march takes it.
    update() gathers every outgoing Robin trace from the iterate in one
    pass, sign * D_h u + p u as extract_robin_trace computes it, puts it in
    place of the Robin face data and returns the trace increment; Dirichlet
    faces keep their data.
    """

    def __init__(self, operator: StackOperator, layout: SubdomainLayout,
                 p: RobinParameter, faces: Sequence[Tuple[np.ndarray, np.ndarray]]):
        entries = layout.entries
        cols = operator._unstack(np.arange(operator.size))
        self.faces = [list(pair) for pair in faces]
        self.slots = []  # (strip, face) of each Robin trace
        sources, signs = [], []
        for e in entries:
            for face, side, kind, src, node in ((0, "left", e.left_kind, e.index - 1, e.i_left),
                                                (1, "right", e.right_kind, e.index + 1, e.i_right)):
                if kind != "robin":
                    continue
                li, m = node - entries[src].i_left, len(cols[src])
                if not 1 <= li <= m - 2:
                    raise NodeOutOfRange(
                        f"node {node} is not strictly interior to subdomain {src}")
                sources.append(cols[src][[li, li + 1, li - 1]])
                signs.append(p.sign(side))
                self.slots.append((e.index, face))
        self.cols = np.stack(sources, axis=1)  # (3, traces, ncross): node, node +- 1
        self.signs = np.array(signs)[:, None]
        self.p, self.h = p.p, operator.grid.hx_axis
        self.robin = np.stack([self.faces[l][f] for l, f in self.slots], axis=1)

    def update(self, u: np.ndarray) -> float:
        g = u[:, self.cols]
        vals = self.signs * ((g[:, 1] - g[:, 2]) / (2.0 * self.h)) + self.p * g[:, 0]
        if not np.isfinite(vals).all():
            raise DataMismatch("trace values contain non-finite entries")
        increment = float(np.max(np.abs(vals - self.robin)))
        for q, (l, f) in enumerate(self.slots):
            self.faces[l][f] = vals[:, q]
        self.robin = vals
        return increment


def run(problem: ParabolicProblem, grid: SpaceTimeGrid, layout: SubdomainLayout,
        config: SWRConfig, oracle: GlobalSolution,
        on_sweep: Optional[Callable[[int, List[SubdomainSolution]], None]] = None,
        ) -> IterationHistory:
    """Iterate until E_k <= stop_tol, a non-finite E_k or max_iters; returns
    the diagnostics rows, with the reason in `termination`.

    The oracle is used for error metrics only and never enters the
    iteration's dataflow.
    """
    gamma = config.gamma if config.gamma is not None else default_gamma(problem.domain)
    history = IterationHistory(window=layout.count)
    entries = layout.entries
    operator = StackOperator(problem, grid, [axis_range(e, config.p) for e in entries])
    diagnose = StackDiagnostics(operator, oracle, config.p,
                                WeightSpec(gamma=gamma, theta=config.theta))
    traces = initial_traces(config.guess, layout, grid, problem)
    robin = StackExchange(operator, layout, config.p,
                          [face_data(e, *traces[e.index], grid) for e in entries])
    for k in range(1, config.max_iters + 1):
        # Overflow needs no numpy warning: robin.update raises on non-finite
        # traces, and a non-finite E_k (exp(p (x_n - alpha))) ends the run.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                u = operator.solve(robin.faces)
            except OswrError as exc:
                raise type(exc)(f"sweep {k}: {exc}") from exc
            d = diagnose(u)
            increment = robin.update(u)
        history.rows.append(IterationRecord(
            k=k, E=d.E, sup_e_max=max(d.sup_e), sup_e_per_sub=d.sup_e,
            phi_boundary_ok=d.phi_ok, trace_increment=increment))
        if on_sweep is not None:
            on_sweep(k, [SubdomainSolution(index=e.index, i_left=e.i_left, values=v)
                         for e, v in zip(entries, operator._unstack(u))])
        if not math.isfinite(d.E):
            history.termination = "nonfinite_E"
            return history
        if d.E <= config.stop_tol:
            history.termination = "stop_tol"
            return history
    history.termination = "max_iters"
    return history
