"""The outer Schwarz waveform relaxation iteration.

Each sweep solves all strips from the previous sweep's traces
(additive/Jacobi pattern), then exchanges Robin traces across interfaces.
Extreme faces always carry Dirichlet data g; the initial guess h0 supplies
Robin data on interior interfaces for the first sweep only.  Since the
strips of a sweep are independent, a sweep marches them side by side, one
block-diagonal solve per time step; a run keeps one StackOperator, so the
steps are assembled and factored in the first sweep and reused by the
later ones.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .decomposition import SubdomainLayout
from .diagnostics import (IterationHistory, IterationRecord, WeightSpec,
                          compute_E, compute_error_fields, default_gamma,
                          phi_boundary_check)
from .errors import OswrError
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
    record_timing: bool = False

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


def _trace_increment(new: Sequence[SubTraces], old: Sequence[SubTraces]) -> float:
    inc = 0.0
    for (nl, nr), (ol, orr) in zip(new, old):
        for nt_, ot in ((nl, ol), (nr, orr)):
            if nt_.kind == "robin" and ot.kind == "robin":
                inc = max(inc, float(np.max(np.abs(nt_.values - ot.values))))
    return inc


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
    varphi = (np.exp(-config.theta * grid.times()) if config.theta != 0.0 else None)
    weights = WeightSpec(gamma=gamma, varphi=varphi)
    history = IterationHistory(window=layout.count)
    traces = initial_traces(config.guess, layout, grid, problem)
    operator = StackOperator(problem, grid,
                             [axis_range(e, config.p) for e in layout.entries])
    for k in range(1, config.max_iters + 1):
        t0 = time.perf_counter()
        try:
            solutions = sweep_once(problem, grid, layout, traces, config.p, operator)
        except OswrError as exc:
            raise type(exc)(f"sweep {k}: {exc}") from exc
        # exp(p (x_n - alpha)) can overflow; a non-finite E_k ends the run.
        with np.errstate(over="ignore", invalid="ignore"):
            fields = [compute_error_fields(sol, oracle, config.p, weights, grid)
                      for sol in solutions]
            E = compute_E(fields)
            sup_e = tuple(float(np.max(np.abs(f.e))) for f in fields)
            phi_ok = all(phi_boundary_check(f).ok for f in fields)
        new_traces = exchange(solutions, layout, grid, config.p, traces)
        increment = _trace_increment(new_traces, traces)
        wall_ms = (time.perf_counter() - t0) * 1000.0 if config.record_timing else 0.0
        history.rows.append(IterationRecord(
            k=k, E=E, sup_e_max=max(sup_e), sup_e_per_sub=sup_e,
            phi_boundary_ok=phi_ok, trace_increment=increment, wall_ms=wall_ms))
        if on_sweep is not None:
            on_sweep(k, solutions)
        traces = new_traces
        if not math.isfinite(E):
            history.termination = "nonfinite_E"
            return history
        if E <= config.stop_tol:
            history.termination = "stop_tol"
            return history
    history.termination = "max_iters"
    return history
