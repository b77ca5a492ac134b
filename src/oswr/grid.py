"""Uniform space-time grid, backward-Euler step assembly and strip operators.

One implicit step solves  (I/dt + L_h(t_next)) u_next = u_prev/dt + f(t_next)
with L_h the centered second-order discretization of
-sum a_ij d2/dx_i dx_j + sum b_i d/dx_i + c.  The mixed derivative (n=2)
uses the four-corner centered cross stencil.  Robin faces along the
decomposed axis are closed by ghost-node elimination, which keeps the
boundary rows second-order accurate.

Unknowns are all nodes of the (local) box, ordered axis-major
(index = i_axis * ncross + j_cross); Dirichlet nodes carry identity rows so
the band structure is uniform.

The step matrices depend on t_next and the face kinds only, never on the
iterate, so a StripOperator factors them once (LAPACK ?gbtrf) and every
later march over the strip costs a right-hand-side update and one ?gbtrs
per step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import BadResolution, SingularSystem
from .problem import CoefficientSet, DomainSpec, ParabolicProblem

# Bytes of LU factors one run keeps between sweeps, over all its strips.  A
# step's factors take (3*bw + 1) * N * 8 bytes plus N pivots, with bw = 1 in
# 1D and nx_cross + 1 in 2D.  Steps whose factors do not fit are assembled
# and factored again at every use.
FACTOR_CACHE_BYTES = 5 * 2 ** 20


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Tensor grid on Omega x (0, T); nx_cross is 1 for n=1."""

    domain: DomainSpec
    nx_axis: int
    nt: int
    nx_cross: int = 1

    @property
    def hx_axis(self) -> float:
        return (self.domain.beta - self.domain.alpha) / (self.nx_axis - 1)

    @property
    def hx_cross(self) -> float:
        if self.domain.n == 1:
            return 0.0
        lo, hi = self.domain.cross
        return (hi - lo) / (self.nx_cross - 1)

    @property
    def dt(self) -> float:
        return self.domain.T / self.nt

    def axis_nodes(self) -> np.ndarray:
        return self.domain.alpha + self.hx_axis * np.arange(self.nx_axis)

    def cross_nodes(self) -> np.ndarray:
        if self.domain.n == 1:
            return np.zeros(1)
        return self.domain.cross[0] + self.hx_cross * np.arange(self.nx_cross)

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.nt + 1)


def build_grid(domain: DomainSpec, nx_axis: int, nt: int,
               nx_cross: Optional[int] = None) -> SpaceTimeGrid:
    if nx_axis < 3:
        raise BadResolution("nx_axis must be at least 3")
    if nt < 1:
        raise BadResolution("nt must be at least 1")
    if domain.n == 2:
        if nx_cross is None or nx_cross < 3:
            raise BadResolution("nx_cross must be at least 3 for n=2")
    else:
        nx_cross = 1
    return SpaceTimeGrid(domain=domain, nx_axis=nx_axis, nt=nt, nx_cross=nx_cross)


def eval_nodes(fn, n: int, t: float, axis: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Evaluate a space-time callable on a node box, returning (m, ncross)."""
    m, J = len(axis), len(cross)
    if n == 1:
        vals = np.asarray(fn(t, axis), dtype=float)
        return np.broadcast_to(vals, (m,)).reshape(m, 1).copy()
    vals = np.asarray(fn(t, cross[None, :], axis[:, None]), dtype=float)
    return np.broadcast_to(vals, (m, J)).copy()


@dataclass(frozen=True)
class FaceClosure:
    """Closure of one axis face for a single time step.

    kind 'dirichlet': values are prescribed solution values over the cross
    nodes.  kind 'robin': values are the data of  sign * du/dx_n + p u = data.
    """

    kind: str
    values: np.ndarray
    p: float = 0.0
    sign: float = 1.0


@dataclass(frozen=True)
class BoundaryClosure:
    low: FaceClosure
    high: FaceClosure
    lateral_low: Optional[np.ndarray] = None   # (m,) Dirichlet values at j=0
    lateral_high: Optional[np.ndarray] = None  # (m,) Dirichlet values at j=J-1


@dataclass(frozen=True)
class BandedLU:
    """LU factors of a banded matrix from ?gbtrf, for repeated solves."""

    bandwidth: int
    lu: np.ndarray   # (3 * bandwidth + 1, N), Fortran order
    piv: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.lu.nbytes + self.piv.nbytes

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # ?gbtrs reports only invalid arguments, which the factors rule out.
        x, _ = dgbtrs(self.lu, self.bandwidth, self.bandwidth, rhs, self.piv)
        return x


@dataclass
class BandedSystem:
    """Banded matrix in scipy solve_banded layout plus right-hand side."""

    bandwidth: int
    ab: np.ndarray
    rhs: np.ndarray

    def factor(self) -> BandedLU:
        bw = self.bandwidth
        work = np.zeros((3 * bw + 1, self.rhs.size), order="F")
        work[bw:] = self.ab
        lu, piv, info = dgbtrf(work, bw, bw, overwrite_ab=1)
        if info > 0:
            raise SingularSystem(f"singular matrix: zero pivot at unknown {info - 1}")
        return BandedLU(bandwidth=bw, lu=lu, piv=piv)

    def solve(self) -> np.ndarray:
        return self.factor().solve(self.rhs)

    def to_dense(self) -> np.ndarray:
        n = self.rhs.size
        bw = self.bandwidth
        dense = np.zeros((n, n))
        for o in range(-bw, bw + 1):  # o = column - row
            rows = np.arange(max(0, -o), n - max(0, o))
            dense[rows, rows + o] = self.ab[bw - o, rows + o]
        return dense


def _clear_rows(ab: np.ndarray, bw: int, rows: np.ndarray) -> None:
    """Zero every stored entry of the given matrix rows."""
    cols = rows[:, None] + np.arange(-bw, bw + 1)
    rows = np.broadcast_to(rows[:, None], cols.shape)
    inside = (cols >= 0) & (cols < ab.shape[1])
    ab[bw + rows[inside] - cols[inside], cols[inside]] = 0.0


def _identity_rows(ab: np.ndarray, bw: int, rows: np.ndarray) -> None:
    _clear_rows(ab, bw, rows)
    ab[bw, rows] = 1.0


def _coefficient_values(coeffs: CoefficientSet, t: float) -> Tuple[float, ...]:
    """(a_nn, b_n, c, a_11, a_12, b_1) at t, the last three 0 for n=1.

    Steps of one strip with equal values and face rules have equal matrices.
    """
    n = coeffs.n
    axis = (float(coeffs.a[n - 1][n - 1](t)), float(coeffs.b[n - 1](t)),
            float(coeffs.c(t)))
    if n == 1:
        return axis + (0.0, 0.0, 0.0)
    return axis + (float(coeffs.a[0][0](t)), float(coeffs.a[0][1](t)),
                   float(coeffs.b[0](t)))


def _robin_data_coefficients(values: Tuple[float, ...], grid: SpaceTimeGrid,
                             face: FaceClosure, low: bool) -> Tuple[float, float]:
    """Factors of data[j] and of data[j+1] - data[j-1] in a Robin face row."""
    a_ax, b_ax, _, _, a_mx, _ = values
    s, h = face.sign, grid.hx_axis
    mixed = a_mx / (s * grid.hx_cross) if grid.domain.n == 2 else 0.0
    if low:
        return -(2.0 * a_ax / (s * h) + b_ax / s), mixed
    return 2.0 * a_ax / (s * h) - b_ax / s, mixed


def _face_values(face: FaceClosure, J: int) -> np.ndarray:
    vals = np.atleast_1d(np.asarray(face.values, dtype=float))
    if vals.shape != (J,):
        raise ValueError("face closure values must have one entry per cross node")
    return vals


def _face_rhs(rhs: np.ndarray, rows, face: FaceClosure, vals: np.ndarray, n: int,
              coefs: Optional[Tuple[float, float]]) -> None:
    """Put one axis face's data into its rows of the right-hand side.

    The Robin rows must already hold u_prev/dt + f.
    """
    inner = vals[1:-1] if n == 2 else vals
    if face.kind == "dirichlet":
        rhs[rows] = inner
        return
    data, mixed = coefs
    rhs[rows] += data * inner
    if n == 2:
        rhs[rows] += mixed * (vals[2:] - vals[:-2])


def assemble_step(coeffs: CoefficientSet, grid: SpaceTimeGrid, t_next: float,
                  bc: BoundaryClosure, u_prev: np.ndarray, f_vals: np.ndarray,
                  axis_lo: int = 0, axis_hi: Optional[int] = None) -> BandedSystem:
    """Assemble one implicit step on axis nodes [axis_lo, axis_hi].

    u_prev and f_vals have shape (m, ncross) over the local box; the
    returned system's solution is u_next flattened axis-major.
    """
    n = coeffs.n
    if axis_hi is None:
        axis_hi = grid.nx_axis - 1
    m = axis_hi - axis_lo + 1
    J = grid.nx_cross
    N = m * J
    h = grid.hx_axis
    dt = grid.dt

    values = _coefficient_values(coeffs, t_next)
    a_ax, b_ax, cc, a_cr, a_mx, b_cr = values
    if n == 2:
        hc = grid.hx_cross
        bw = J + 1
    else:
        hc = np.inf  # cross terms vanish below
        bw = 1

    diag = 1.0 / dt + cc + 2.0 * a_ax / h ** 2 + (2.0 * a_cr / hc ** 2 if n == 2 else 0.0)
    up_ax = -a_ax / h ** 2 + b_ax / (2.0 * h)
    dn_ax = -a_ax / h ** 2 - b_ax / (2.0 * h)
    if n == 2:
        up_cr = -a_cr / hc ** 2 + b_cr / (2.0 * hc)
        dn_cr = -a_cr / hc ** 2 - b_cr / (2.0 * hc)
        corner = -a_mx / (2.0 * h * hc)  # sign for (i+1,j+1) and (i-1,j-1)
    else:
        up_cr = dn_cr = corner = 0.0

    ab = np.zeros((2 * bw + 1, N))
    rhs = (u_prev / dt + f_vals).reshape(N).astype(float)

    # Constant diagonals (boundary rows are overwritten afterwards).
    ab[bw, :] = diag
    ab[bw - J, J:] = up_ax
    ab[bw + J, :-J] = dn_ax
    if n == 2:
        ab[bw - 1, 1:] = up_cr
        ab[bw + 1, :-1] = dn_cr
        ab[bw - (J + 1), J + 1:] = corner
        ab[bw + (J + 1), :-(J + 1)] = corner
        ab[bw - (J - 1), J - 1:] = -corner
        ab[bw + (J - 1), :-(J - 1)] = -corner

    # Lateral faces (n=2): Dirichlet along the whole axis range, corners
    # included (lateral data wins at corners).
    if n == 2:
        lateral = np.arange(0, N, J)
        _identity_rows(ab, bw, np.concatenate([lateral, lateral + J - 1]))
        rhs[lateral] = bc.lateral_low
        rhs[lateral + J - 1] = bc.lateral_high

    j_interior = np.arange(1, J - 1) if n == 2 else np.arange(1)
    for face, low in ((bc.low, True), (bc.high, False)):
        vals = _face_values(face, J)
        rows = (0 if low else m - 1) * J + j_interior
        coefs = None
        if face.kind == "dirichlet":
            _identity_rows(ab, bw, rows)
        elif face.kind == "robin":
            p, s = face.p, face.sign
            # Ghost elimination: s*(u_inner - u_ghost)/(2h) + p*u_face = data
            # (low face; mirrored for the high face).
            drift = -2.0 * a_ax * p / (s * h) if low else 2.0 * a_ax * p / (s * h)
            inner = J if low else -J  # axis neighbor kept in the stencil
            _clear_rows(ab, bw, rows)
            ab[bw, rows] = diag + drift - b_ax * p / s
            ab[bw - inner, rows + inner] = -2.0 * a_ax / h ** 2
            if n == 2:
                ab[bw - 1, rows + 1] = up_cr + a_mx * p / (s * hc)
                ab[bw + 1, rows - 1] = dn_cr - a_mx * p / (s * hc)
            coefs = _robin_data_coefficients(values, grid, face, low)
        else:
            raise ValueError(f"unknown face closure kind '{face.kind}'")
        _face_rhs(rhs, rows, face, vals, n, coefs)

    return BandedSystem(bandwidth=bw, ab=ab, rhs=rhs)


class _Step(NamedTuple):
    """What a StripOperator keeps of one time step."""

    rule: tuple          # kind, p and sign of the low face, then of the high face
    static: np.ndarray   # right-hand side for zero u_prev and zero face data
    lu: BandedLU
    face_coefs: tuple    # per face: Robin data factors, or None for Dirichlet


class StripOperator:
    """The time steps of one axis node range, prepared once for many marches.

    A step's matrix, forcing and lateral data depend on t_next and on the
    kind, p and sign of each axis face, never on the iterate.  The first
    march through a step assembles it with zero u_prev and zero face data,
    keeps that right-hand side and the Robin data factors, and factors the
    matrix; later marches add u_prev/dt and the face data and call ?gbtrs.
    Steps with equal coefficient values and face rules share one
    factorization.  Factors are kept while they fit in `cache_share` of
    FACTOR_CACHE_BYTES; a step whose factors do not fit is assembled and
    factored again, the same way, at every use.  One operator serves one
    thread at a time.
    """

    def __init__(self, problem: ParabolicProblem, grid: SpaceTimeGrid,
                 axis_lo: int = 0, axis_hi: Optional[int] = None,
                 cache_share: float = 0.0):
        if axis_hi is None:
            axis_hi = grid.nx_axis - 1
        n, J = problem.domain.n, grid.nx_cross
        self.problem, self.grid = problem, grid
        self.axis_lo, self.axis_hi = axis_lo, axis_hi
        self.budget = int(cache_share * FACTOR_CACHE_BYTES)
        self.factorizations = 0
        self.nbytes = 0  # factors kept
        self.axis = grid.axis_nodes()[axis_lo:axis_hi + 1]
        self.shape = (len(self.axis), J)
        m = self.shape[0]
        j0, j1 = (1, J - 1) if n == 2 else (0, 1)
        self._face_rows = (slice(j0, j1), slice((m - 1) * J + j0, (m - 1) * J + j1))
        self._lateral = np.r_[0:m * J:J, J - 1:m * J:J] if n == 2 else None
        self._steps = [None] * (grid.nt + 1)
        self._lus = {}

    def step(self, k: int, u_prev: np.ndarray, low: FaceClosure,
             high: FaceClosure) -> np.ndarray:
        """u at step k, shape (m, ncross), from u at step k-1 and the face closures."""
        rule = (low.kind, low.p, low.sign, high.kind, high.p, high.sign)
        step = self._steps[k]
        if step is None or step.rule != rule:
            step = self._prepare(k, low, high, rule)
        rhs = u_prev.reshape(-1) / self.grid.dt + step.static
        if self._lateral is not None:
            rhs[self._lateral] = step.static[self._lateral]
        n, J = self.problem.domain.n, self.shape[1]
        for face, rows, coefs in zip((low, high), self._face_rows, step.face_coefs):
            _face_rhs(rhs, rows, face, _face_values(face, J), n, coefs)
        return step.lu.solve(rhs).reshape(self.shape)

    def _prepare(self, k: int, low: FaceClosure, high: FaceClosure, rule: tuple) -> _Step:
        problem, grid = self.problem, self.grid
        n, t = problem.domain.n, grid.times()[k]
        cross = grid.cross_nodes()
        f_vals = eval_nodes(problem.f, n, t, self.axis, cross)
        lat_lo = lat_hi = None
        if n == 2:
            m = self.shape[0]
            lat_lo = np.broadcast_to(
                np.asarray(problem.g(t, cross[0], self.axis), dtype=float), (m,))
            lat_hi = np.broadcast_to(
                np.asarray(problem.g(t, cross[-1], self.axis), dtype=float), (m,))
        zero = np.zeros(self.shape[1])
        bc = BoundaryClosure(low=replace(low, values=zero), high=replace(high, values=zero),
                             lateral_low=lat_lo, lateral_high=lat_hi)
        system = assemble_step(problem.coeffs, grid, t, bc, np.zeros(self.shape), f_vals,
                               axis_lo=self.axis_lo, axis_hi=self.axis_hi)
        values = _coefficient_values(problem.coeffs, t)
        key = (rule, values)
        lu = self._lus.get(key)
        if lu is None:
            lu = system.factor()
            self.factorizations += 1
            if self.nbytes + lu.nbytes <= self.budget:
                self._lus[key] = lu
                self.nbytes += lu.nbytes
        face_coefs = tuple(
            _robin_data_coefficients(values, grid, face, side) if face.kind == "robin"
            else None for face, side in ((low, True), (high, False)))
        step = _Step(rule=rule, static=system.rhs, lu=lu, face_coefs=face_coefs)
        if key in self._lus:
            self._steps[k] = step
        return step


def march(problem: ParabolicProblem, grid: SpaceTimeGrid,
          closures: Callable[[int, float], Tuple[FaceClosure, FaceClosure]],
          axis_lo: int = 0, axis_hi: Optional[int] = None,
          operator: Optional[StripOperator] = None) -> np.ndarray:
    """Backward-Euler march on an axis node range; returns (nt+1, m, ncross).

    `closures(k, t_next)` supplies the low/high axis-face closures for step
    k; lateral faces (n=2) always carry Dirichlet data g.  `operator` keeps
    the range's prepared steps between marches; without one, each step is
    prepared for this march only.
    """
    if axis_hi is None:
        axis_hi = grid.nx_axis - 1
    if operator is None:
        operator = StripOperator(problem, grid, axis_lo, axis_hi)
    elif (operator.problem, operator.grid, operator.axis_lo, operator.axis_hi) != \
            (problem, grid, axis_lo, axis_hi):
        raise ValueError("operator was built for another problem, grid or axis range")
    times = grid.times()
    u = np.empty((grid.nt + 1,) + operator.shape)
    u[0] = eval_nodes(problem.g, problem.domain.n, 0.0, operator.axis, grid.cross_nodes())
    for k in range(1, grid.nt + 1):
        low, high = closures(k, times[k])
        u[k] = operator.step(k, u[k - 1], low, high)
    return u
