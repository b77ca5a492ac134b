"""The outer Schwarz waveform relaxation iteration.

Each sweep solves all strips from the previous sweep's traces
(additive/Jacobi pattern), then exchanges Robin traces across interfaces.
Extreme faces always carry Dirichlet data g; the initial guess h0 supplies
Robin data on interior interfaces for the first sweep only.  A strip's face
data are a (left, right) pair of (nt+1, ncross) arrays (SubTraces), checked
where they enter: by march, and for run() by StackExchange.  The strips of
a sweep are independent, so a sweep marches them side by side, one
block-diagonal solve per time step; a run builds one StackOperator, which
prepares every step's data, and reuses the factors it keeps from one sweep
to the next; when they do not fit the cap, it marches blocks of sweeps
time-outer, as sweep s + 1 at step k reads only sweep s's step-k traces:
each step is factored once per block, and each of its sweeps then costs
one in-place LAPACK solve and a few small array operations at that step.
`run()` takes each sweep's diagnostics (StackDiagnostics) and Robin
exchange (StackExchange) from the stacked (nt+1, N) iterate in a few array
operations, whatever the number of strips; sweep_once and exchange are the
per-strip forms of the same sweep and exchange.
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
from .grid import SpaceTimeGrid, StackOperator, check_faces, eval_plane, march
from .oracle import GlobalSolution
from .problem import ParabolicProblem
from .subdomain import RobinParameter, SubdomainSolution, axis_range, extract_robin_trace

SubTraces = Tuple[np.ndarray, np.ndarray]  # (left, right) inbound data, (nt+1, ncross) each
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
                   grid: SpaceTimeGrid, problem: ParabolicProblem) -> List[SubTraces]:
    """Sweep-0 data: h0 on interior interfaces, Dirichlet g at the extremes."""
    times = grid.times()
    cross = grid.cross_nodes()
    axis = grid.axis_nodes()

    def face(node: int, kind: str) -> np.ndarray:
        if kind == "dirichlet":
            return eval_plane(problem.g, grid, axis[node])
        vals = guess.evaluate(problem.domain, times[:, None], cross[None, :], axis[node])
        return np.broadcast_to(vals, (grid.nt + 1, grid.nx_cross)).copy()

    return [(face(e.i_left, e.left_kind), face(e.i_right, e.right_kind))
            for e in layout.entries]


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
               p: RobinParameter) -> List[SubdomainSolution]:
    """Solve all strips from the given inbound traces (Jacobi ordering) in
    one march."""
    entries = layout.entries
    values = march(problem, grid, [axis_range(e, p) for e in entries], traces)
    return [SubdomainSolution(index=e.index, i_left=e.i_left, values=v)
            for e, v in zip(entries, values)]


class StackExchange:
    """The Robin exchange of every strip at once, on march's stacked
    (nt+1, N) iterate.

    `faces` holds each range's (low, high) face data, as march takes it;
    range l's low (high) Robin face takes the data of range l - 1 (l + 1)
    at node lo (hi), with its rule's sign and p.  traces() gathers every
    outgoing Robin trace from the iterate, of all steps or of one, in one
    pass: sign * D_h u + p u as extract_robin_trace computes it.  update()
    puts a sweep's traces in place of the Robin face data and returns the
    trace increment; Dirichlet faces keep their data.  The slots follow
    the operator's Robin faces, so traces() of one step is the next
    sweep's Robin data in StackOperator.solve_block.
    """

    def __init__(self, operator: StackOperator, faces: Sequence[SubTraces]):
        ranges = operator.ranges
        check_faces(operator.grid, ranges, faces)
        cols = operator._unstack(np.arange(operator.size))
        self.faces = [list(pair) for pair in faces]
        self.slots = []  # (range, face) of each Robin trace
        sources, signs, ps = [], [], []
        for l, r in enumerate(ranges):
            for face, rule, src, node in ((0, r.low, l - 1, r.lo), (1, r.high, l + 1, r.hi)):
                if rule.kind != "robin":
                    continue
                if not (0 <= src < len(ranges) and ranges[src].lo < node < ranges[src].hi):
                    raise NodeOutOfRange(
                        f"node {node} is not strictly interior to subdomain {src}")
                li = node - ranges[src].lo
                sources.append(cols[src][[li, li + 1, li - 1]])
                signs.append(rule.sign)
                ps.append(rule.p)
                self.slots.append((l, face))
        # (traces, ncross, 3): the source node, node + 1 and node - 1
        self.cols = np.stack(sources).transpose(0, 2, 1)
        self.signs, self.p = np.array(signs)[:, None], np.array(ps)[:, None]
        self.h = operator.grid.hx_axis
        self.robin = np.stack([self.faces[l][f] for l, f in self.slots], axis=1)

    def traces(self, u: np.ndarray) -> np.ndarray:
        """The outgoing Robin traces of a stacked iterate (..., N), of all
        steps or of one: (..., traces, ncross)."""
        g = u[..., self.cols]
        return self.signs * ((g[..., 1] - g[..., 2]) / (2.0 * self.h)) + self.p * g[..., 0]

    def update(self, u: np.ndarray) -> float:
        vals = self.traces(u)
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
    iteration's dataflow.  If StackOperator.block > 1, max_iters is split
    evenly into the fewest blocks of at most that many sweeps, each marched
    time-outer (StackOperator.solve_block); then its sweeps are diagnosed,
    exchanged, passed to `on_sweep` and tested for a stop one by one, as
    unblocked sweeps are, with the same bits.  A stop discards the rest.
    """
    gamma = config.gamma if config.gamma is not None else default_gamma(problem.domain)
    history = IterationHistory(window=layout.count)
    entries = layout.entries
    # Overflow needs no numpy warning, in the node data as in the sweeps:
    # robin.update raises on non-finite traces, and a non-finite E_k
    # (exp(p (x_n - alpha))) ends the run.
    with np.errstate(over="ignore", invalid="ignore"):
        operator = StackOperator(problem, grid, [axis_range(e, config.p) for e in entries])
    diagnose = StackDiagnostics(operator, oracle, config.p,
                                WeightSpec(gamma=gamma, theta=config.theta))
    robin = StackExchange(operator, initial_traces(config.guess, layout, grid, problem))
    blocks, k = math.ceil(config.max_iters / operator.block), 0
    for b in range(blocks):
        size = config.max_iters // blocks + (b < config.max_iters % blocks)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                sweeps = (operator.solve_block(robin.faces, size, robin.traces)
                          if operator.block > 1 else [operator.solve(robin.faces)])
            except OswrError as exc:
                raise type(exc)(f"sweep {k + 1}: {exc}") from exc
        for u in sweeps:
            k += 1
            with np.errstate(over="ignore", invalid="ignore"):
                d = diagnose(u)
                increment = robin.update(u)
            history.rows.append(IterationRecord(
                k=k, E=d.E, sup_e_max=d.sup_e, phi_boundary_ok=d.phi_ok,
                trace_increment=increment))
            if on_sweep is not None:
                on_sweep(k, [SubdomainSolution(index=e.index, i_left=e.i_left, values=v)
                             for e, v in zip(entries, operator._unstack(u))])
            if not math.isfinite(d.E):
                history.termination = "nonfinite_E"
                return history
            if d.E <= config.stop_tol:
                history.termination = "stop_tol"
                return history
        del sweeps, u  # a block's iterates go before the next block is marched
    history.termination = "max_iters"
    return history
