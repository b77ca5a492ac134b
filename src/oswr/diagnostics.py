"""Error functionals and empirical convergence diagnostics for the iteration.

Per subdomain and sweep the error e = u_l^k - u (u being the monolithic
reference) is transformed to eps = e * exp(p (x_n - alpha)); nu is the
discrete x_n-derivative of eps and Phi = nu^2 * phi(x_n) * varphi(t) with
the exponential space weight phi(x_n) = exp(-gamma (x_n - alpha)) and the
time weight varphi(t) = exp(-theta t).  Measuring x_n from alpha keeps the
exponentials finite on shifted domains.  The sweep functional that `run()`
records is unweighted,

    E_k = max_l  sup |nu|^2,

so theta and gamma enter Phi only.  E_k should contract geometrically over
windows of I sweeps, Phi should attain its maximum on the parabolic
boundary, and sup|e| should decay to zero.

compute_error_fields, compute_E and phi_boundary_check work on one strip;
`run()` computes the same numbers, bitwise, with StackDiagnostics, which
takes every strip at once from the stacked iterate of a sweep.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ShapeMismatch, TooShort
from .grid import SpaceTimeGrid, StackOperator
from .oracle import GlobalSolution
from .problem import DomainSpec
from .subdomain import RobinParameter, SubdomainSolution

HISTORY_HEADER = ("k", "E_k", "sup_e_max", "gamma_window", "phi_boundary_ok",
                  "trace_increment")


def default_gamma(domain: DomainSpec) -> float:
    return 5.0 / domain.axis_length


@dataclass(frozen=True)
class WeightSpec:
    """Space weight exp(-gamma x_n) and time weight varphi(t) = exp(-theta t)."""

    gamma: float
    theta: float = 0.0

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not 0 <= self.theta < math.inf:
            raise ValueError("theta must be nonnegative and finite")

    def time_weight(self, times: np.ndarray) -> np.ndarray:
        return np.exp(-self.theta * times)


def axis_derivative(arr: np.ndarray, h: float) -> np.ndarray:
    """d/dx_n along axis 1: centered interior, one-sided second order at ends."""
    out = np.empty_like(arr)
    out[:, 1:-1, :] = (arr[:, 2:, :] - arr[:, :-2, :]) / (2.0 * h)
    out[:, 0, :] = (-3.0 * arr[:, 0, :] + 4.0 * arr[:, 1, :] - arr[:, 2, :]) / (2.0 * h)
    out[:, -1, :] = (3.0 * arr[:, -1, :] - 4.0 * arr[:, -2, :] + arr[:, -3, :]) / (2.0 * h)
    return out


@dataclass(frozen=True)
class ErrorFields:
    """e, nu, Phi on one subdomain grid (nt+1, m, ncross)."""

    e: np.ndarray
    nu: np.ndarray
    phi: np.ndarray


def compute_error_fields(sol: SubdomainSolution, oracle: GlobalSolution,
                         p: RobinParameter, weights: WeightSpec,
                         grid: SpaceTimeGrid) -> ErrorFields:
    m = sol.values.shape[1]
    ref = oracle.values[:, sol.i_left:sol.i_left + m, :]
    if ref.shape != sol.values.shape:
        raise ShapeMismatch(
            f"oracle restriction {ref.shape} != solution {sol.values.shape}")
    xn = grid.axis_nodes()[sol.i_left:sol.i_left + m] - grid.domain.alpha
    e = sol.values - ref
    eps = e * np.exp(p.p * xn)[None, :, None]
    nu = axis_derivative(eps, grid.hx_axis)
    w_space = np.exp(-weights.gamma * xn)[None, :, None]
    w_time = weights.time_weight(grid.times())[:, None, None]
    phi = nu ** 2 * w_space * w_time
    return ErrorFields(e=e, nu=nu, phi=phi)


def compute_E(fields: Sequence[ErrorFields]) -> float:
    """max over subdomains of sup nu^2 (unweighted)."""
    m = float(np.max([np.max(np.abs(f.nu)) for f in fields]))
    return m * m


@dataclass(frozen=True)
class PhiBoundaryResult:
    ok: bool
    interior_max: float
    boundary_max: float


def phi_boundary_check(fields: ErrorFields) -> PhiBoundaryResult:
    """True iff Phi's maximum sits on the parabolic boundary (up to a
    relative 1e-8 plus an absolute 1e-13).

    The parabolic boundary is the t=0 slice plus the interface planes and,
    for n=2, the lateral faces; the final-time slice is interior.  A nan or
    inf anywhere in Phi fails the check.
    """
    phi = fields.phi
    faces = [phi[0], phi[:, 0], phi[:, -1]]
    if phi.shape[2] > 1:
        faces += [phi[..., 0], phi[..., -1]]
        interior = phi[1:, 1:-1, 1:-1]
    else:
        interior = phi[1:, 1:-1, :]
    boundary_max = float(np.max([np.max(f) for f in faces]))
    interior_max = float(np.max(interior))
    ok = _on_boundary(interior_max, boundary_max)
    return PhiBoundaryResult(ok=ok, interior_max=interior_max, boundary_max=boundary_max)


def _on_boundary(interior_max, boundary_max):
    """The Phi check's verdict, for floats or per-strip arrays."""
    return interior_max <= boundary_max * (1.0 + 1e-8) + 1e-13


@dataclass(frozen=True)
class SweepDiagnostics:
    """One sweep's E_k, sup|e| over every strip and per-strip Phi maxima."""

    E: float
    sup_e: float
    interior_max: np.ndarray
    boundary_max: np.ndarray

    @property
    def phi_ok(self) -> bool:
        return bool(np.all(_on_boundary(self.interior_max, self.boundary_max)))


class StackDiagnostics:
    """E_k, sup|e| and the Phi check of every strip at once, on march's
    stacked (nt+1, N) iterate.

    Bitwise equal to compute_error_fields, compute_E, max|e| and
    phi_boundary_check strip by strip, with a fixed number of array
    operations per sweep whatever the number of strips.  The oracle, the
    space weights and the column indices of each strip's ends, boundary
    and interior are stacked once, when this is built.  With theta = 0,
    Phi's maxima are taken from max_t |2h nu| and the division by 2h and
    the space weight applied after: division by a positive constant,
    squaring and a nonnegative weight are monotone under rounding, so the
    maxima are the same as those of the full field.
    """

    def __init__(self, operator: StackOperator, oracle: GlobalSolution,
                 p: RobinParameter, weights: WeightSpec):
        grid = operator.grid
        shape = (grid.nt + 1, grid.nx_axis, grid.nx_cross)
        if oracle.values.shape != shape:
            raise ShapeMismatch(f"oracle values {oracle.values.shape} != grid {shape}")
        self.h = grid.hx_axis
        self.ref = operator._stack(oracle.values)
        xn = grid.axis_nodes() - grid.domain.alpha

        def stacked(w):
            return operator._stack(np.broadcast_to(w[:, None], shape[1:]))

        with np.errstate(over="ignore"):  # an overflow gives a non-finite E_k
            self.grow = stacked(np.exp(p.p * xn))
        self.w_space = stacked(np.exp(-weights.gamma * xn))
        self.w_time = (None if weights.theta == 0
                       else weights.time_weight(grid.times())[:, None])
        # Runs of adjacent ranges with one axis stride: the centred
        # difference is one slice per run (one run in 1D).
        self.runs = []
        for rows, (sa, _) in zip(operator.slices, operator._strides):
            if self.runs and self.runs[-1][2] == sa:
                self.runs[-1][1] = rows.stop
            else:
                self.runs.append([rows.start, rows.stop, sa])
        # Per range: its end nodes and their two inward neighbours, with
        # the one-sided weights w of w0 a0 + w1 a1 - w2 a2, which rounds as
        # axis_derivative's -3 a0 + 4 a1 - a2 (low end) and 3 a0 - 4 a1 + a2
        # (high end) do; the Phi index groups into the (2, N) array of the
        # t=0 row and the maxima over t >= 1: the boundary (the whole t=0
        # row, the axis ends, in 2D the lateral faces), then the interior.
        cols = operator._unstack(np.arange(operator.size))
        ends, stencil, groups = [], [], []
        N = operator.size
        for c in cols:
            ends += [c[[0, 1, 2]], c[[-1, -2, -3]]]
            stencil += [np.repeat([[-3.0], [4.0], [1.0]], c.shape[1], 1),
                        np.repeat([[3.0], [-4.0], [-1.0]], c.shape[1], 1)]
            faces = [c[0], c[-1]]
            if c.shape[1] > 1:
                faces += [c[:, 0], c[:, -1]]
                interior = c[1:-1, 1:-1]
            else:
                interior = c[1:-1, :]
            groups += [np.concatenate([c.ravel()] + [N + f for f in faces]),
                       N + interior.ravel()]
        self.ends = np.concatenate(ends, axis=1)        # (3, ends)
        self.end_weights = np.concatenate(stencil, axis=1)
        self.groups = np.concatenate(groups)
        self.group_starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
        self._e = np.empty_like(self.ref)
        self._nu = np.empty_like(self.ref)

    def __call__(self, u: np.ndarray) -> SweepDiagnostics:
        e, nu, h = self._e, self._nu, self.h
        np.subtract(u, self.ref, out=e)
        # max(max e, -min e) is max|e|, nan and inf included; abs() clears
        # the sign of a zero.
        sup_e = abs(float(np.maximum(e.max(), -e.min())))
        e *= self.grow  # eps
        # nu times 2h; with theta = 0 only the maxima are divided by 2h.
        for lo, hi, s in self.runs:
            np.subtract(e[:, lo + 2 * s:hi], e[:, lo:hi - 2 * s], out=nu[:, lo + s:hi - s])
        a, w = e[:, self.ends], self.end_weights
        nu[:, self.ends[0]] = w[0] * a[:, 0] + w[1] * a[:, 1] - w[2] * a[:, 2]

        if self.w_time is None:
            r = np.abs(nu, out=e)
            reduced = np.stack([r[0], r[1:].max(axis=0)])
            reduced /= 2.0 * h
            m = float(reduced.max())
            reduced = reduced ** 2 * self.w_space
        else:
            nu /= 2.0 * h
            m = float(np.abs(nu).max())
            phi = nu ** 2 * self.w_space * self.w_time
            reduced = np.stack([phi[0], phi[1:].max(axis=0)])
        maxima = np.maximum.reduceat(reduced.ravel()[self.groups], self.group_starts)
        return SweepDiagnostics(E=m * m, sup_e=sup_e, interior_max=maxima[1::2],
                                boundary_max=maxima[0::2])


@dataclass(frozen=True)
class ContractionReport:
    """Per-window ratios E_{k+I} / max(E_k..E_{k+I-1}) and the verdict."""

    window: int
    ratios: Tuple[Optional[float], ...]  # None marks a 0/0 (converged) window
    verdict: str  # 'pass' | 'fail' | 'converged'
    geometric_mean: Optional[float]
    gamma_max: float

    def post_warmup_ratios(self) -> List[float]:
        return [r for r in self.ratios[self.window:] if r is not None]


def _window_ratios(E: Sequence[float], window: int) -> List[Optional[float]]:
    """E[k + window] / max(E[k:k + window]) for each full window; None for
    0/0, inf for x/0."""
    ratios: List[Optional[float]] = []
    for k in range(len(E) - window):
        denom = max(E[k:k + window])
        num = E[k + window]
        if denom == 0.0:
            ratios.append(None if num == 0.0 else math.inf)
        else:
            ratios.append(num / denom)
    return ratios


def contraction_report(E: Sequence[float], window: int,
                       gamma_max: float = 0.99) -> ContractionReport:
    E = [float(v) for v in E]
    if len(E) < 2 * window:
        raise TooShort(f"need at least {2 * window} sweeps, got {len(E)}")
    ratios = _window_ratios(E, window)
    judged = [r for r in ratios[window:] if r is not None]
    if not judged:
        verdict = "converged"
        geo = None
    else:
        verdict = "pass" if all(r <= gamma_max for r in judged) else "fail"
        positive = [r for r in judged if r > 0.0]
        geo = (math.exp(sum(math.log(r) for r in positive) / len(positive))
               if positive else 0.0)
    return ContractionReport(window=window, ratios=tuple(ratios), verdict=verdict,
                             geometric_mean=geo, gamma_max=gamma_max)


@dataclass(frozen=True)
class IterationRecord:
    k: int
    E: float
    sup_e_max: float
    phi_boundary_ok: bool
    trace_increment: float


@dataclass
class IterationHistory:
    """Per-sweep diagnostics rows plus the post-run contraction analysis."""

    window: int
    rows: List[IterationRecord] = field(default_factory=list)
    termination: str = ""

    def E_sequence(self) -> List[float]:
        return [r.E for r in self.rows]

    def contraction(self, gamma_max: float = 0.99) -> ContractionReport:
        return contraction_report(self.E_sequence(), self.window, gamma_max)

    def write_csv(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(HISTORY_HEADER)
        # The first `window` rows have no full window before them.
        ratios = [None] * self.window + _window_ratios(self.E_sequence(), self.window)
        for r, gamma in zip(self.rows, ratios):
            writer.writerow([
                r.k,
                repr(r.E),
                repr(r.sup_e_max),
                "" if gamma is None else repr(gamma),
                int(r.phi_boundary_ok),
                repr(r.trace_increment),
            ])

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)
