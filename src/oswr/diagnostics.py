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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ShapeMismatch, TooShort
from .grid import SpaceTimeGrid
from .oracle import GlobalSolution
from .problem import DomainSpec
from .subdomain import RobinParameter, SubdomainSolution

HISTORY_HEADER = ("k", "E_k", "sup_e_max", "gamma_window", "phi_boundary_ok",
                  "trace_increment", "wall_ms")


def default_gamma(domain: DomainSpec) -> float:
    return 5.0 / domain.axis_length


@dataclass(frozen=True)
class WeightSpec:
    """Space weight exp(-gamma x_n) and finite nonnegative time weight samples."""

    gamma: float
    varphi: Optional[np.ndarray] = None  # (nt+1,), defaults to ones

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.varphi is not None:
            v = np.asarray(self.varphi, dtype=float)
            if not np.all(np.isfinite(v) & (v >= 0)):
                raise ValueError("time weight samples must be finite and nonnegative")

    def time_weight(self, nt: int) -> np.ndarray:
        if self.varphi is None:
            return np.ones(nt + 1)
        v = np.asarray(self.varphi, dtype=float)
        if v.shape != (nt + 1,):
            raise ShapeMismatch("time weight samples must match the time grid")
        return v


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
    w_time = weights.time_weight(grid.nt)[:, None, None]
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


def phi_boundary_check(fields: ErrorFields,
                       rel_tol: float = 1e-8, abs_tol: float = 1e-13) -> PhiBoundaryResult:
    """True iff Phi's maximum sits on the parabolic boundary.

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
    ok = interior_max <= boundary_max * (1.0 + rel_tol) + abs_tol
    return PhiBoundaryResult(ok=ok, interior_max=interior_max, boundary_max=boundary_max)


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
class TrendReport:
    ok: bool
    peak: float
    final: float


def pointwise_error_trend(sup_e: Sequence[float], window: int, stop_tol: float,
                          slack: float = 10.0, decay: float = 100.0) -> TrendReport:
    """Pass iff the final sup|e| is tiny or decayed >= `decay`x from its peak."""
    vals = [float(v) for v in sup_e]
    if len(vals) < 2 * window:
        raise TooShort(f"need at least {2 * window} sweeps, got {len(vals)}")
    peak, final = max(vals), vals[-1]
    ok = final <= stop_tol * slack or (peak > 0 and final <= peak / decay)
    return TrendReport(ok=ok, peak=peak, final=final)


@dataclass(frozen=True)
class IterationRecord:
    k: int
    E: float
    sup_e_max: float
    sup_e_per_sub: Tuple[float, ...]
    phi_boundary_ok: bool
    trace_increment: float
    wall_ms: float


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
                repr(r.wall_ms),
            ])

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)
