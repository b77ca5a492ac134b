"""Uniform space-time grid, backward-Euler step assembly and the stack operator.

One implicit step solves  (I/dt + L_h(t_next)) u_next = u_prev/dt + f(t_next)
with L_h the centered second-order discretization of
-sum a_ij d2/dx_i dx_j + sum b_i d/dx_i + c.  The mixed derivative (n=2)
uses the four-corner centered cross stencil.  Robin faces along the
decomposed axis are closed by ghost-node elimination, which keeps the
boundary rows second-order accurate.

Unknowns are all nodes of the (local) box, ordered axis-major
(index = i_axis * ncross + j_cross); Dirichlet nodes carry identity rows so
the band structure is uniform.

The step matrices depend on t_next and the face rules only, never on the
iterate.  A StackOperator places the step matrices of several axis node
ranges (the strips of one sweep, which are independent within it)
block-diagonally in one band and factors each distinct one once; every
later march costs one right-hand-side build for all steps and one LAPACK
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


def eval_nodes(fn, n: int, t: float, axis: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Evaluate a space-time callable on a node box, returning (m, ncross)."""
    m, J = len(axis), len(cross)
    if n == 1:
        vals = np.asarray(fn(t, axis), dtype=float)
        return np.broadcast_to(vals, (m,)).reshape(m, 1).copy()
    vals = np.asarray(fn(t, cross[None, :], axis[:, None]), dtype=float)
    return np.broadcast_to(vals, (m, J)).copy()


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


class FaceRule(NamedTuple):
    """How one axis face is closed: kind 'dirichlet' (prescribed values) or
    'robin' (data of sign * du/dx_n + p u)."""

    kind: str
    p: float = 0.0
    sign: float = 1.0


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
                  axis_lo: int = 0, axis_hi: Optional[int] = None,
                  ab: Optional[np.ndarray] = None) -> BandedSystem:
    """Assemble one implicit step on axis nodes [axis_lo, axis_hi].

    u_prev and f_vals have shape (m, ncross) over the local box; the
    returned system's solution is u_next flattened axis-major.  `ab`, if
    given, is a zeroed (2*bw + 1, N) array (or view) that receives the
    matrix in place of a new one.
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

    if ab is None:
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


class StackOperator:
    """The time steps of several axis node ranges, prepared once for many marches.

    Step k's matrix is the ranges' step-k matrices placed block-diagonally
    in one band, so one LAPACK solve advances every range by one step.  A
    step's matrix, forcing and lateral data depend on t_k and the face rules
    only, never on the iterate.  The first march assembles every step with
    zero u_prev and zero face data, keeps that static right-hand side,
    (nt+1, N), and the Robin data factors, and factors each distinct matrix
    (steps with equal coefficient values share one).  Factors are kept while
    they fit in FACTOR_CACHE_BYTES, read when a step is prepared; a step
    whose factors do not fit is assembled and factored again at every use,
    so results do not depend on the cap.
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
                if face.kind not in ("dirichlet", "robin"):
                    raise ValueError(f"unknown face closure kind '{face.kind}'")
                first = rows.start if low else rows.stop - J
                face_rows = slice(first + j0, first + j1)
                if face.kind == "dirichlet":
                    self.takes_prev[face_rows] = 0.0
                self._faces.append((face_rows, face, low))
        self._static = None   # (nt+1, N), filled by the first march
        self._coefs = None    # per face: Robin data factors, (2, nt+1)
        self._keys = None     # per step: the coefficient values at t_k
        self._lus = {}        # coefficient values -> factors kept
        axis, cross = grid.axis_nodes(), grid.cross_nodes()
        self.u0 = np.concatenate([eval_nodes(problem.g, n, 0.0, axis[r.lo:r.hi + 1], cross)
                                  .reshape(-1) for r in self.ranges])

    def system(self, k: int) -> BandedSystem:
        """Step k's stacked matrix and static right-hand side, assembled afresh."""
        work, rhs = self._assemble(k)
        return BandedSystem(bandwidth=self.bandwidth, ab=work[self.bandwidth:], rhs=rhs)

    def _assemble(self, k: int, node_data: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Step k's matrix, in rows bw: of a fresh (3*bw + 1, N) Fortran
        array, and its static right-hand side (zero without node data)."""
        problem, grid, bw = self.problem, self.grid, self.bandwidth
        n, t, J = problem.domain.n, grid.times()[k], grid.nx_cross
        cross, axis = grid.cross_nodes(), grid.axis_nodes()
        work = np.zeros((3 * bw + 1, self.size), order="F")
        rhs = np.empty(self.size)
        zero_face = np.zeros(J)
        for r, rows in zip(self.ranges, self.slices):
            nodes = axis[r.lo:r.hi + 1]
            m = len(nodes)
            f_vals = (eval_nodes(problem.f, n, t, nodes, cross) if node_data
                      else np.zeros((m, J)))
            lateral = ()
            if n == 2:
                lateral = tuple(
                    np.broadcast_to(np.asarray(problem.g(t, x, nodes), dtype=float), (m,))
                    if node_data else np.zeros(m) for x in (cross[0], cross[-1]))
            bc = BoundaryClosure(FaceClosure(r.low.kind, zero_face, r.low.p, r.low.sign),
                                 FaceClosure(r.high.kind, zero_face, r.high.p, r.high.sign),
                                 *lateral)
            rhs[rows] = assemble_step(problem.coeffs, grid, t, bc, np.zeros((m, J)), f_vals,
                                      r.lo, r.hi, ab=work[bw:, rows]).rhs
        return work, rhs

    def _factor(self, work: np.ndarray) -> Union[BandedLU, TridiagonalLU]:
        lu = _factor_band(work, self.bandwidth)
        self.factorizations += 1
        return lu

    def _prepare(self) -> None:
        problem, grid, nt = self.problem, self.grid, self.grid.nt
        static = np.zeros((nt + 1, self.size))
        coefs = np.zeros((len(self._faces), 2, nt + 1))
        keys: List[Optional[tuple]] = [None] * (nt + 1)
        # An upper bound on one step's factor bytes, known before factoring.
        step_bytes = (3 * self.bandwidth + 1) * self.size * 8 + self.size * 4
        for k in range(1, nt + 1):
            work, static[k] = self._assemble(k)
            keys[k] = values = _coefficient_values(problem.coeffs, grid.times()[k])
            for i, (_, face, low) in enumerate(self._faces):
                if face.kind == "robin":
                    coefs[i, :, k] = _robin_data_coefficients(values, grid, face, low)
            if values not in self._lus and self.nbytes + step_bytes <= FACTOR_CACHE_BYTES:
                lu = self._lus[values] = self._factor(work)
                self.nbytes += lu.nbytes
        self._static, self._coefs, self._keys = static, coefs, keys

    def rhs(self, faces: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Every step's right-hand side for zero u_prev, (nt+1, N).

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
        lu = self._lus.get(self._keys[k])
        if lu is None:
            lu = self._factor(self._assemble(k, node_data=False)[0])
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
