"""The outer Schwarz waveform relaxation iteration.

Each sweep solves all strips from the previous sweep's traces
(additive/Jacobi pattern), then exchanges Robin traces across interfaces.
Extreme faces always carry Dirichlet data g, which the StackOperator
evaluates; the initial guess h0 supplies Robin data on interior
interfaces for the first sweep only.  Robin data are the only face data
callers pass: one (nt+1, faces, ncross) array, a row per Robin face in
strip order, left face first, checked where it enters
(StackOperator.sweeps()).  A sweep marches its independent strips side by
side, one block-diagonal solve per time step.  A run builds one
StackOperator, which prepares every step's data, and takes its sweeps one
by one from StackOperator.sweeps(), which owns the march schedule: sweep
s + 1 at step k reads only sweep s's step-k traces, so the sweeps may be
marched time-outer in blocks, each step factored once per block.  `run()`
takes each sweep's diagnostics (StackDiagnostics) and Robin traces
(StackOperator.traces) from the stacked (nt+1, N) iterate, in a few array
operations, whatever the number of strips; sweep_once and exchange are
the per-strip forms of the same sweep and exchange.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .decomposition import SubdomainLayout
from .diagnostics import (IterationHistory, IterationRecord, StackDiagnostics,
                          WeightSpec, default_gamma)
from .errors import DataMismatch, OswrError
from .grid import SpaceTimeGrid, StackOperator, march
from .oracle import GlobalSolution
from .problem import ParabolicProblem
from .subdomain import RobinParameter, SubdomainSolution, axis_range, extract_robin_trace

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


def initial_traces(guess: InitialGuess, layout: SubdomainLayout,
                   grid: SpaceTimeGrid, problem: ParabolicProblem) -> np.ndarray:
    """Sweep-0 Robin data: h0 on every Robin face's plane, evaluated at
    once, (nt+1, faces, ncross), in strip order, left face first."""
    axis = grid.axis_nodes()
    robin = axis[[node for e in layout.entries
                  for node, kind in ((e.i_left, e.left_kind), (e.i_right, e.right_kind))
                  if kind != "dirichlet"]]
    vals = guess.evaluate(problem.domain, grid.times()[:, None, None],
                          grid.cross_nodes()[None, None, :], robin[None, :, None])
    return np.broadcast_to(vals, (grid.nt + 1, len(robin), grid.nx_cross)).copy()


def exchange(solutions: Sequence[SubdomainSolution], layout: SubdomainLayout,
             grid: SpaceTimeGrid, p: RobinParameter) -> np.ndarray:
    """Next sweep's Robin data, extracted from this sweep's solutions, as
    initial_traces lays them out."""
    traces = []
    for entry in layout.entries:
        l = entry.index
        if entry.left_kind != "dirichlet":
            traces.append(extract_robin_trace(solutions[l - 1], grid, entry.i_left, p, "left"))
        if entry.right_kind != "dirichlet":
            traces.append(extract_robin_trace(solutions[l + 1], grid, entry.i_right, p, "right"))
    return np.stack(traces, axis=1)


def sweep_once(problem: ParabolicProblem, grid: SpaceTimeGrid,
               layout: SubdomainLayout, robin: np.ndarray,
               p: RobinParameter) -> List[SubdomainSolution]:
    """Solve all strips from the given Robin data (Jacobi ordering) in one
    march."""
    entries = layout.entries
    values = march(problem, grid, [axis_range(e, p) for e in entries], robin)
    return [SubdomainSolution(index=e.index, i_left=e.i_left, values=v)
            for e, v in zip(entries, values)]


def run(problem: ParabolicProblem, grid: SpaceTimeGrid, layout: SubdomainLayout,
        config: SWRConfig, oracle: GlobalSolution,
        on_sweep: Optional[Callable[[int, List[SubdomainSolution]], None]] = None,
        ) -> IterationHistory:
    """Iterate until E_k <= stop_tol, a non-finite E_k or max_iters; returns
    the diagnostics rows, with the reason in `termination`.

    The oracle is used for error metrics only and never enters the
    iteration's dataflow.  The sweeps come one by one from
    StackOperator.sweeps(), which may march them in blocks; each is
    diagnosed, its traces compared with the last (the trace increment,
    from h0 for the first sweep), passed to `on_sweep` and tested for a
    stop in turn, with the same bits whatever the blocks.  A stop discards
    the rest of a block.
    """
    entries = layout.entries
    first, last = entries[0].i_left, entries[-1].i_right
    if (first, last) != (0, grid.nx_axis - 1):
        raise DataMismatch(f"the layout spans axis nodes {first}..{last}, "
                           f"not the grid's 0..{grid.nx_axis - 1}")
    gamma = config.gamma if config.gamma is not None else default_gamma(problem.domain)
    history = IterationHistory(window=layout.count)
    # Overflow needs no numpy warning, in the node data as in the sweeps:
    # non-finite traces raise, and a non-finite E_k (exp(p (x_n - alpha)))
    # ends the run.
    with np.errstate(over="ignore", invalid="ignore"):
        operator = StackOperator(problem, grid, [axis_range(e, config.p) for e in entries])
    diagnose = StackDiagnostics(operator, oracle, config.p,
                                WeightSpec(gamma=gamma, theta=config.theta))
    robin = initial_traces(config.guess, layout, grid, problem)
    sweeps = operator.sweeps(robin, config.max_iters)
    for k in range(1, config.max_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                u, traces = next(sweeps)
            except OswrError as exc:
                raise type(exc)(f"sweep {k}: {exc}") from exc
            d = diagnose(u)
            if not np.isfinite(traces).all():
                raise DataMismatch("trace values contain non-finite entries")
            increment = float(np.max(np.abs(traces - robin)))  # the trace increment
            robin = traces
        history.rows.append(IterationRecord(
            k=k, E=d.E, sup_e_max=d.sup_e, phi_boundary_ok=d.phi_ok,
            trace_increment=increment))
        if on_sweep is not None:
            on_sweep(k, [SubdomainSolution(index=e.index, i_left=e.i_left, values=v)
                         for e, v in zip(entries, operator._unstack(u))])
        del u  # gone before the next sweep, which may make a block of iterates
        if not math.isfinite(d.E):
            history.termination = "nonfinite_E"
            return history
        if d.E <= config.stop_tol:
            history.termination = "stop_tol"
            return history
    history.termination = "max_iters"
    return history
