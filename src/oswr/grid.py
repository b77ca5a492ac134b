"""Uniform space-time grid, backward-Euler step matrices and the stack operator.

One implicit step solves  (I/dt + L_h(t_next)) u_next = u_prev/dt + f(t_next)
with L_h the centered second-order discretization of
-sum a_ij d2/dx_i dx_j + sum b_i d/dx_i + c.  The mixed derivative (n=2)
uses the four-corner centered cross stencil.  Robin faces along the
decomposed axis are closed by ghost-node elimination, which keeps the
boundary rows second-order accurate.

Unknowns are all nodes of the (local) box, ordered axis-major
(index = i_axis * ncross + j_cross); Dirichlet nodes carry identity rows so
the band structure is uniform.

A step's matrix depends on the coefficient values at t_next and the face
rules only, never on the iterate or the data.  A StackOperator places the
step matrices of several axis node ranges (the strips of one sweep, which
are independent within it) block-diagonally in one band.  It evaluates f
(and the lateral g) once on the whole space-time grid, assembles and
factors each distinct step matrix once, and applies the face data in one
right-hand-side build for all steps; every march then costs one LAPACK
solve per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, dgttrs

from .errors import BadResolution, SingularSystem
from .problem import CoefficientSet, DomainSpec, ParabolicProblem

# Bytes of LU factors one StackOperator keeps between marches.  A step's
# factors take about (3*bw + 1) * N * 8 bytes plus N pivots, for N unknowns
# over all ranges and bw = 1 in 1D, nx_cross + 1 in 2D.  Steps whose
# factors do not fit are assembled and factored again at every use.
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
    if domain.n == 2 and nx_cross is None:
        raise BadResolution("nx_cross is required for n=2")
    if nx_cross is not None and nx_cross < 3:
        raise BadResolution("nx_cross must be at least 3")
    if domain.n == 1:
        nx_cross = 1
    return SpaceTimeGrid(domain=domain, nx_axis=nx_axis, nt=nt, nx_cross=nx_cross)


def eval_nodes(fn, grid: SpaceTimeGrid, times: np.ndarray) -> np.ndarray:
    """Evaluate a space-time callable at every node and the given times in
    one call, returning (len(times), nx_axis, ncross)."""
    axis, shape = grid.axis_nodes(), (len(times), grid.nx_axis, grid.nx_cross)
    if grid.domain.n == 1:
        vals = np.broadcast_to(np.asarray(fn(times[:, None], axis), dtype=float), shape[:2])
    else:
        vals = np.broadcast_to(np.asarray(fn(times[:, None, None], grid.cross_nodes(),
                                             axis[:, None]), dtype=float), shape)
    return vals.reshape(shape).copy()


def eval_plane(fn, grid: SpaceTimeGrid, xn: float) -> np.ndarray:
    """Evaluate a space-time callable on the plane x_n = xn at every grid
    time, returning (nt+1, ncross)."""
    times = grid.times()[:, None]
    if grid.domain.n == 1:
        vals = np.asarray(fn(times, xn), dtype=float)
    else:
        vals = np.asarray(fn(times, grid.cross_nodes()[None, :], xn), dtype=float)
    return np.broadcast_to(vals, (grid.nt + 1, grid.nx_cross)).copy()


@dataclass(frozen=True)
class FaceRule:
    """How one axis face is closed: kind 'dirichlet' (prescribed values) or
    'robin' (data of sign * du/dx_n + p u)."""

    kind: str
    p: float = 0.0
    sign: float = 1.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise ValueError(f"unknown face closure kind '{self.kind}'")


class AxisRange(NamedTuple):
    """The axis nodes [lo, hi] of one strip and the rules of its two faces."""

    lo: int
    hi: int
    low: FaceRule
    high: FaceRule


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


@dataclass(frozen=True)
class TridiagonalLU:
    """LU factors of a tridiagonal matrix from ?gttrf, for repeated solves."""

    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray
    du2: np.ndarray
    ipiv: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.dl, self.d, self.du, self.du2, self.ipiv))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # ?gttrs reports only invalid arguments, which the factors rule out.
        x, _ = dgttrs(self.dl, self.d, self.du, self.du2, self.ipiv, rhs)
        return x


def _factor_band(work: np.ndarray, bw: int) -> Union[BandedLU, TridiagonalLU]:
    """LU factors of the band held in rows bw: of a (3*bw + 1, N) Fortran array.

    Bandwidth 1 uses the tridiagonal kernels ?gttrf/?gttrs, whose solve
    takes about half the time of ?gbtrs; wider bands are factored in place
    by ?gbtrf.  A zero pivot raises SingularSystem.
    """
    if bw == 1:
        dl, d, du, du2, ipiv, info = dgttrf(work[3, :-1], work[2], work[1, 1:])
        lu = TridiagonalLU(dl, d, du, du2, ipiv)
    else:
        ab, piv, info = dgbtrf(work, bw, bw, overwrite_ab=1)
        lu = BandedLU(bw, ab, piv)
    if info > 0:
        raise SingularSystem(f"singular matrix: zero pivot at unknown {info - 1}")
    return lu


@dataclass
class BandedSystem:
    """Banded matrix in scipy solve_banded layout plus right-hand side."""

    bandwidth: int
    ab: np.ndarray
    rhs: np.ndarray

    def factor(self) -> Union[BandedLU, TridiagonalLU]:
        bw = self.bandwidth
        work = np.zeros((3 * bw + 1, self.rhs.size), order="F")
        work[bw:] = self.ab
        return _factor_band(work, bw)

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
                             face: FaceRule, low: bool) -> Tuple[float, float]:
    """Factors of data[j] and of data[j+1] - data[j-1] in a Robin face row."""
    a_ax, b_ax, _, _, a_mx, _ = values
    s, h = face.sign, grid.hx_axis
    mixed = a_mx / (s * grid.hx_cross) if grid.domain.n == 2 else 0.0
    if low:
        return -(2.0 * a_ax / (s * h) + b_ax / s), mixed
    return 2.0 * a_ax / (s * h) - b_ax / s, mixed


def assemble_step(values: Tuple[float, ...], grid: SpaceTimeGrid,
                  ranges: Sequence[AxisRange], ab: Optional[np.ndarray] = None) -> np.ndarray:
    """The step matrix of the axis ranges, placed block-diagonally in one
    band in scipy solve_banded layout, (2*bw + 1, N).

    `values` are the coefficient values at t_next (see _coefficient_values).
    `ab`, if given, is a zeroed (2*bw + 1, N) array (or view) that receives
    the matrix in place of a new one.
    """
    n, J, h, dt = grid.domain.n, grid.nx_cross, grid.hx_axis, grid.dt
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

    if ab is None:
        ab = np.zeros((2 * bw + 1, sum(r.hi - r.lo + 1 for r in ranges) * J))
    j_interior = np.arange(1, J - 1) if n == 2 else np.arange(1)
    stop = 0
    for r in ranges:
        m = r.hi - r.lo + 1
        start, stop = stop, stop + m * J
        block = ab[:, start:stop]  # a view: the range's diagonal block

        # Constant diagonals (boundary rows are overwritten afterwards).
        block[bw, :] = diag
        block[bw - J, J:] = up_ax
        block[bw + J, :-J] = dn_ax
        if n == 2:
            block[bw - 1, 1:] = up_cr
            block[bw + 1, :-1] = dn_cr
            block[bw - (J + 1), J + 1:] = corner
            block[bw + (J + 1), :-(J + 1)] = corner
            block[bw - (J - 1), J - 1:] = -corner
            block[bw + (J - 1), :-(J - 1)] = -corner
            # Lateral faces: Dirichlet along the whole axis range, corners
            # included (lateral data wins at corners).
            lateral = np.arange(0, m * J, J)
            _identity_rows(block, bw, np.concatenate([lateral, lateral + J - 1]))

        for face, low in ((r.low, True), (r.high, False)):
            rows = (0 if low else m - 1) * J + j_interior
            if face.kind == "dirichlet":
                _identity_rows(block, bw, rows)
                continue
            p, s = face.p, face.sign
            # Ghost elimination: s*(u_inner - u_ghost)/(2h) + p*u_face = data
            # (low face; mirrored for the high face).
            drift = -2.0 * a_ax * p / (s * h) if low else 2.0 * a_ax * p / (s * h)
            inner = J if low else -J  # axis neighbor kept in the stencil
            _clear_rows(block, bw, rows)
            block[bw, rows] = diag + drift - b_ax * p / s
            block[bw - inner, rows + inner] = -2.0 * a_ax / h ** 2
            if n == 2:
                block[bw - 1, rows + 1] = up_cr + a_mx * p / (s * hc)
                block[bw + 1, rows - 1] = dn_cr - a_mx * p / (s * hc)
    return ab


class StackOperator:
    """The time steps of several axis node ranges, prepared once for many marches.

    Step k's matrix is the ranges' step-k matrices placed block-diagonally
    in one band, so one LAPACK solve advances every range by one step.  A
    step's matrix depends on the coefficient values at t_k and the face
    rules only, never on the iterate or the data.  The first march prepares
    every step at once:

    - node data, once: f on the whole (nt+1) x axis x cross grid in one
      call (and g on the two lateral planes in 2D), sliced into the static
      right-hand side (nt+1, N), whose Dirichlet face rows rhs() overwrites
      with the face data; u0 from g at t=0 the same way;
    - the Robin data factors of every step;
    - one assembly and factorization per distinct coefficient key (steps
      with equal values share one).

    Factors are kept while they fit in FACTOR_CACHE_BYTES, read when the
    steps are prepared; a step whose factors do not fit is assembled and
    factored again at every use, so results do not depend on the cap.
    """

    def __init__(self, problem: ParabolicProblem, grid: SpaceTimeGrid,
                 ranges: Sequence[AxisRange]):
        n, J = problem.domain.n, grid.nx_cross
        self.problem, self.grid, self.ranges = problem, grid, tuple(ranges)
        self.bandwidth = J + 1 if n == 2 else 1
        self.factorizations = 0
        self.nbytes = 0  # factors kept
        ends = np.cumsum([0] + [(r.hi - r.lo + 1) * J for r in self.ranges])
        self.slices = [slice(int(a), int(b)) for a, b in zip(ends[:-1], ends[1:])]
        self.size = int(ends[-1])
        # 1 on the rows whose right-hand side takes u_prev/dt, 0 on the
        # Dirichlet rows: lateral faces (n=2) and Dirichlet axis faces.
        self.takes_prev = np.ones(self.size)
        if n == 2:
            self.takes_prev[0::J] = self.takes_prev[J - 1::J] = 0.0
        j0, j1 = (1, J - 1) if n == 2 else (0, 1)
        self._faces = []  # (rows, rule, is low face) per face, range by range
        for r, rows in zip(self.ranges, self.slices):
            for face, low in ((r.low, True), (r.high, False)):
                first = rows.start if low else rows.stop - J
                face_rows = slice(first + j0, first + j1)
                if face.kind == "dirichlet":
                    self.takes_prev[face_rows] = 0.0
                self._faces.append((face_rows, face, low))
        self.u0 = None        # (N,), filled by the first march
        self._static = None   # (nt+1, N), filled by the first march
        self._coefs = None    # per face: Robin data factors, (2, nt+1)
        self._keys = None     # per step: the coefficient values at t_k
        self._lus = {}        # coefficient values -> factors kept

    def _stack(self, nodes: np.ndarray) -> np.ndarray:
        """Whole-grid node values (..., nx_axis, ncross) as the ranges'
        unknowns side by side, (..., N)."""
        lead = nodes.shape[:-2]
        return np.concatenate([nodes[..., r.lo:r.hi + 1, :].reshape(lead + (-1,))
                               for r in self.ranges], axis=-1)

    def _factor(self, values: Tuple[float, ...]) -> Union[BandedLU, TridiagonalLU]:
        """Assemble and factor the step matrix of these coefficient values."""
        bw = self.bandwidth
        work = np.zeros((3 * bw + 1, self.size), order="F")
        assemble_step(values, self.grid, self.ranges, work[bw:])
        lu = _factor_band(work, bw)
        self.factorizations += 1
        return lu

    def _prepare(self) -> None:
        problem, grid = self.problem, self.grid
        times = grid.times()
        nodes = eval_nodes(problem.f, grid, times)
        if problem.domain.n == 2:
            cross, axis = grid.cross_nodes(), grid.axis_nodes()
            for j in (0, -1):
                nodes[:, :, j] = problem.g(times[:, None], cross[j], axis)
        static = self._stack(nodes)
        self.u0 = self._stack(eval_nodes(problem.g, grid, times[:1])[0])

        keys: List[Optional[tuple]] = [None] + [
            _coefficient_values(problem.coeffs, t) for t in times[1:]]
        coefs = np.zeros((len(self._faces), 2, grid.nt + 1))
        for i, (_, face, low) in enumerate(self._faces):
            if face.kind == "robin":
                for k in range(1, grid.nt + 1):
                    coefs[i, :, k] = _robin_data_coefficients(keys[k], grid, face, low)
        # An upper bound on one step's factor bytes, known before factoring.
        step_bytes = (3 * self.bandwidth + 1) * self.size * 8 + self.size * 4
        for values in dict.fromkeys(keys[1:]):
            if self.nbytes + step_bytes > FACTOR_CACHE_BYTES:
                break
            lu = self._lus[values] = self._factor(values)
            self.nbytes += lu.nbytes
        self._static, self._coefs, self._keys = static, coefs, keys

    def rhs(self, faces: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Every step's right-hand side for zero u_prev, (nt+1, N); row 0 is
        not used.

        faces[i] holds the (nt+1, ncross) data of range i's low and high
        face: solution values on a Dirichlet face, Robin data on a Robin one.
        The first call prepares the steps.
        """
        if self._static is None:
            self._prepare()
        n = self.problem.domain.n
        out = self._static.copy()
        data = [vals for pair in faces for vals in pair]
        for (rows, face, _), vals, (dc, mc) in zip(self._faces, data, self._coefs):
            inner = vals[:, 1:-1] if n == 2 else vals
            if face.kind == "dirichlet":
                out[:, rows] = inner
                continue
            out[:, rows] += dc[:, None] * inner
            if n == 2:
                out[:, rows] += mc[:, None] * (vals[:, 2:] - vals[:, :-2])
        return out

    def factors(self, k: int) -> Union[BandedLU, TridiagonalLU]:
        """Step k's LU factors: the kept ones, or made afresh; after rhs()."""
        values = self._keys[k]
        lu = self._lus.get(values)
        if lu is None:
            lu = self._factor(values)
        return lu


def march(problem: ParabolicProblem, grid: SpaceTimeGrid, ranges: Sequence[AxisRange],
          faces: Sequence[Tuple[np.ndarray, np.ndarray]],
          operator: Optional[StackOperator] = None) -> List[np.ndarray]:
    """Backward-Euler march of axis node ranges side by side; returns one
    (nt+1, m, ncross) array per range.

    faces[i] holds the (nt+1, ncross) data of range i's low and high axis
    face; lateral faces (n=2) always carry Dirichlet data g.  `operator`
    keeps the ranges' prepared steps between marches; without one, the
    steps are prepared for this march only.
    """
    if operator is None:
        operator = StackOperator(problem, grid, ranges)
    elif (operator.problem, operator.grid, operator.ranges) != (problem, grid, tuple(ranges)):
        raise ValueError("operator was built for another problem, grid or axis range")
    b = operator.rhs(faces)
    u = np.empty_like(b)
    u[0] = operator.u0
    take, dt = operator.takes_prev, grid.dt
    for k in range(1, grid.nt + 1):
        rhs = u[k - 1] / dt
        rhs *= take
        rhs += b[k]
        u[k] = operator.factors(k).solve(rhs)
    return [u[:, rows].reshape(grid.nt + 1, -1, grid.nx_cross) for rows in operator.slices]
