"""The outer Schwarz waveform relaxation iteration.

Each sweep solves all strips from the previous sweep's traces
(additive/Jacobi pattern), then exchanges Robin traces across interfaces.
Extreme faces always carry Dirichlet data g; the initial guess h0 supplies
Robin data on interior interfaces for the first sweep only.  A strip's face
data are a (left, right) pair of (nt+1, ncross) arrays (SubTraces), checked
where they enter: by march, and for run() by StackExchange.  The strips of
a sweep are independent, so a sweep marches them side by side, one
block-diagonal solve per time step.  A run builds one StackOperator, which
prepares every step's data, and takes its sweeps one by one from
StackOperator.sweeps(), which owns the march schedule: sweep s + 1 at step
k reads only sweep s's step-k traces, so the sweeps may be marched
time-outer in blocks, each step factored once per block.  `run()` takes
each sweep's diagnostics (StackDiagnostics) from the stacked (nt+1, N)
iterate and its Robin exchange (StackExchange) from the traces sweeps()
gathered with it, in a few array operations, whatever the number of
strips; sweep_once and exchange are the per-strip forms of the same sweep
and exchange.
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
    """Sweep-0 data: h0 on interior interfaces, Dirichlet g at the extremes.

    h0 is evaluated once, on every Robin face's plane at once."""
    axis = grid.axis_nodes()
    faces = [(node, kind) for e in layout.entries
             for node, kind in ((e.i_left, e.left_kind), (e.i_right, e.right_kind))]
    robin = axis[[node for node, kind in faces if kind != "dirichlet"]]
    vals = guess.evaluate(problem.domain, grid.times()[:, None], grid.cross_nodes()[None, :],
                          robin[:, None, None])
    guessed = iter(np.broadcast_to(vals, (len(robin), grid.nt + 1, grid.nx_cross)).copy())
    data = [eval_plane(problem.g, grid, axis[node]) if kind == "dirichlet" else next(guessed)
            for node, kind in faces]
    return list(zip(data[::2], data[1::2]))


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
    pass: sign * D_h u + p u as extract_robin_trace computes it, one row
    per Robin face as StackOperator.sweeps() takes them.  `robin` holds the
    last Robin data; update() replaces them by a sweep's traces, as
    sweeps() yields them, and returns the trace increment.
    """

    def __init__(self, operator: StackOperator, faces: Sequence[SubTraces]):
        ranges = operator.ranges
        check_faces(operator.grid, ranges, faces)
        cols = operator._unstack(np.arange(operator.size))
        sources, signs, ps, robin = [], [], [], []
        for l, r in enumerate(ranges):
            for rule, src, node, data in ((r.low, l - 1, r.lo, faces[l][0]),
                                          (r.high, l + 1, r.hi, faces[l][1])):
                if rule.kind != "robin":
                    continue
                if not (0 <= src < len(ranges) and ranges[src].lo < node < ranges[src].hi):
                    raise NodeOutOfRange(
                        f"node {node} is not strictly interior to subdomain {src}")
                li = node - ranges[src].lo
                sources.append(cols[src][[li, li + 1, li - 1]])
                signs.append(rule.sign)
                ps.append(rule.p)
                robin.append(data)
        # (traces, ncross, 3): the source node, node + 1 and node - 1
        self.cols = np.stack(sources).transpose(0, 2, 1)
        self.signs, self.p = np.array(signs)[:, None], np.array(ps)[:, None]
        self.two_h = 2.0 * operator.grid.hx_axis
        self.robin = np.stack(robin, axis=1)

    def traces(self, u: np.ndarray) -> np.ndarray:
        """The outgoing Robin traces of a stacked iterate (..., N), of all
        steps or of one: (..., traces, ncross)."""
        g = u[..., self.cols]
        return self.signs * ((g[..., 1] - g[..., 2]) / self.two_h) + self.p * g[..., 0]

    def update(self, vals: np.ndarray) -> float:
        """Replace `robin` by a sweep's traces (traces() of its iterate) and
        return the largest change, the trace increment."""
        if not np.isfinite(vals).all():
            raise DataMismatch("trace values contain non-finite entries")
        increment = float(np.max(np.abs(vals - self.robin)))
        self.robin = vals
        return increment


def run(problem: ParabolicProblem, grid: SpaceTimeGrid, layout: SubdomainLayout,
        config: SWRConfig, oracle: GlobalSolution,
        on_sweep: Optional[Callable[[int, List[SubdomainSolution]], None]] = None,
        ) -> IterationHistory:
    """Iterate until E_k <= stop_tol, a non-finite E_k or max_iters; returns
    the diagnostics rows, with the reason in `termination`.

    The oracle is used for error metrics only and never enters the
    iteration's dataflow.  The sweeps come one by one from
    StackOperator.sweeps(), which may march them in blocks; each is
    diagnosed, exchanged, passed to `on_sweep` and tested for a stop in
    turn, with the same bits whatever the blocks.  A stop discards the rest
    of a block.
    """
    entries = layout.entries
    first, last = entries[0].i_left, entries[-1].i_right
    if (first, last) != (0, grid.nx_axis - 1):
        raise DataMismatch(f"the layout spans axis nodes {first}..{last}, "
                           f"not the grid's 0..{grid.nx_axis - 1}")
    gamma = config.gamma if config.gamma is not None else default_gamma(problem.domain)
    history = IterationHistory(window=layout.count)
    # Overflow needs no numpy warning, in the node data as in the sweeps:
    # robin.update raises on non-finite traces, and a non-finite E_k
    # (exp(p (x_n - alpha))) ends the run.
    with np.errstate(over="ignore", invalid="ignore"):
        operator = StackOperator(problem, grid, [axis_range(e, config.p) for e in entries])
    diagnose = StackDiagnostics(operator, oracle, config.p,
                                WeightSpec(gamma=gamma, theta=config.theta))
    faces = initial_traces(config.guess, layout, grid, problem)
    robin = StackExchange(operator, faces)
    sweeps = operator.sweeps(faces, config.max_iters, robin.traces)
    for k in range(1, config.max_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                u, traces = next(sweeps)
            except OswrError as exc:
                raise type(exc)(f"sweep {k}: {exc}") from exc
            d = diagnose(u)
            increment = robin.update(traces)
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
