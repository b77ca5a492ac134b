"""Uniform space-time grid, backward-Euler step matrices and the stack operator.

One implicit step solves  (I/dt + L_h(t_next)) u_next = u_prev/dt + f(t_next)
with L_h the centered second-order discretization of
-sum a_ij d2/dx_i dx_j + sum b_i d/dx_i + c.  The mixed derivative (n=2)
uses the four-corner centered cross stencil.  Robin faces along the
decomposed axis are closed by ghost-node elimination, which keeps the
boundary rows second-order accurate.

Unknowns are all nodes of the (local) box; Dirichlet nodes carry identity
rows so the band structure is uniform.  Each axis range orders its m x ncross
nodes by whichever way gives the narrower band: cross-major
(index = j_cross * m + i_axis) when the range is narrower than the cross
section, axis-major (index = i_axis * ncross + j_cross) otherwise.  A strip
of the decomposition is narrow along x_n, so its band is about as wide as
the strip, not the cross section.  In 1D (ncross = 1) the two are the same.

A step's matrix depends on the coefficient values at t_next and the face
rules only, never on the iterate or the data.  A StackOperator places the
step matrices of several axis node ranges (the strips of one sweep, which
are independent within it) block-diagonally in one band.  It evaluates f
(and the lateral g) once on the whole space-time grid, applies the face
data in one right-hand-side build for all steps, and factors a step when a
march first needs it; with its factors kept, every later march costs one
LAPACK solve per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, dgttrs

from .errors import BadResolution, SingularSystem
from .problem import CoefficientSet, DomainSpec, ParabolicProblem

# Bytes of LU factors one StackOperator keeps between marches.  A step's
# factors take about (3*bw + 1) * N * 8 bytes plus N pivots, for N unknowns
# over all ranges and bw = 1 in 1D, min(widest range, nx_cross) + 1 in 2D.
# Steps are kept in the order they are first factored, time order, while
# they fit; the others are factored again in every march.
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
    dt = domain.T / nt
    if dt == 0 or not math.isfinite(1.0 / dt):
        raise BadResolution(f"1/dt overflows for T = {domain.T:g} and nt = {nt}")
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


def _strides(r: AxisRange, ncross: int) -> Tuple[int, int]:
    """(axis stride, cross stride) of the range's unknowns: (1, m),
    cross-major, when its m axis nodes are fewer than the ncross cross
    nodes, else (ncross, 1), axis-major (a tie keeps axis-major)."""
    m = r.hi - r.lo + 1
    return (1, m) if m < ncross else (ncross, 1)


def _bandwidth(grid: SpaceTimeGrid, ranges: Sequence[AxisRange]) -> int:
    """Half-bandwidth of the ranges' stacked step matrix: the widest corner
    offset sa + sc in 2D, 1 in 1D."""
    if grid.domain.n == 1:
        return 1
    return max(sum(_strides(r, grid.nx_cross)) for r in ranges)


def _node_view(a: np.ndarray, m: int, ncross: int, sa: int, sc: int) -> np.ndarray:
    """A view of one range's unknowns, the last axis of `a`, by node,
    (..., m, ncross): node (i, j) is unknown i * sa + j * sc."""
    lead = a.shape[:-1]
    if sa < sc:  # cross-major
        return a.reshape(lead + (ncross, m), copy=False).swapaxes(-1, -2)
    return a.reshape(lead + (m, ncross), copy=False)


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
    Each range's unknowns are ordered by _strides: axis neighbours sit at
    +-sa, cross neighbours at +-sc and corners at +-(sa + sc), +-(sa - sc).
    `ab`, if given, is a zeroed (2*bw + 1, N) array (or view) that receives
    the matrix in place of a new one.
    """
    n, J, h, dt = grid.domain.n, grid.nx_cross, grid.hx_axis, grid.dt
    a_ax, b_ax, cc, a_cr, a_mx, b_cr = values
    bw = _bandwidth(grid, ranges)
    hc = grid.hx_cross if n == 2 else np.inf  # cross terms vanish in 1D

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
    cross = (1, J - 1) if n == 2 else (0, 1)  # cross nodes of the stencil rows
    stop = 0
    for r in ranges:
        m = r.hi - r.lo + 1
        sa, sc = _strides(r, J)
        start, stop = stop, stop + m * J
        block = ab[:, start:stop]  # a view: the range's diagonal block

        def put(di, dj, rows_i, rows_j, value):
            """Set the entry of neighbour (di, dj) in the rows of the nodes
            rows_i x rows_j, given as (start, stop) pairs."""
            entries = _node_view(block[bw - di * sa - dj * sc], m, J, sa, sc)
            entries[rows_i[0] + di:rows_i[1] + di, rows_j[0] + dj:rows_j[1] + dj] = value

        # Interior rows: the full stencil.  Every other row is a boundary
        # row and holds only the entries set for it below.
        inner = (1, m - 1)
        put(0, 0, inner, cross, diag)
        put(1, 0, inner, cross, up_ax)
        put(-1, 0, inner, cross, dn_ax)
        if n == 2:
            for (di, dj), value in (((0, 1), up_cr), ((0, -1), dn_cr), ((1, 1), corner),
                                    ((-1, -1), corner), ((1, -1), -corner),
                                    ((-1, 1), -corner)):
                put(di, dj, inner, cross, value)
            # Lateral faces: Dirichlet along the whole axis range, corners
            # included (lateral data wins at corners).
            put(0, 0, (0, m), (0, 1), 1.0)
            put(0, 0, (0, m), (J - 1, J), 1.0)

        for face, low in ((r.low, True), (r.high, False)):
            i = 0 if low else m - 1
            rows = (i, i + 1)
            if face.kind == "dirichlet":
                put(0, 0, rows, cross, 1.0)
                continue
            p, s = face.p, face.sign
            # Ghost elimination: s*(u_inner - u_ghost)/(2h) + p*u_face = data
            # (low face; mirrored for the high face).
            drift = -2.0 * a_ax * p / (s * h) if low else 2.0 * a_ax * p / (s * h)
            put(0, 0, rows, cross, diag + drift - b_ax * p / s)
            put(1 if low else -1, 0, rows, cross, -2.0 * a_ax / h ** 2)
            if n == 2:
                put(0, 1, rows, cross, up_cr + a_mx * p / (s * hc))
                put(0, -1, rows, cross, dn_cr - a_mx * p / (s * hc))
    return ab


class StackOperator:
    """The time steps of several axis node ranges, prepared once for many marches.

    Step k's matrix is the ranges' step-k matrices placed block-diagonally
    in one band, so one LAPACK solve advances every range by one step.  Each
    range orders its unknowns by _strides, and `bandwidth` is the widest
    range's; march() returns node arrays, whatever the order.  A
    step's matrix depends on the coefficient values at t_k and the face
    rules only, never on the iterate or the data.  The first march prepares
    the data of every step at once: f on the whole (nt+1) x axis x cross
    grid in one call (and g on the two lateral planes in 2D), sliced into
    the static right-hand side (nt+1, N), whose Dirichlet face rows rhs()
    overwrites with the face data; u0 from g at t=0 the same way; each
    step's coefficient values (its key) and Robin data factors.

    One rule gives every step its factors: a step reuses the previous
    step's while its key repeats, else takes its key's kept factors, else
    is assembled and factored then, and kept if the kept bytes stay within
    the cap read at preparation (FACTOR_CACHE_BYTES; 0 for march() without
    an operator, which thus holds one step's factors at a time).  Results do
    not depend on the cap.
    """

    def __init__(self, problem: ParabolicProblem, grid: SpaceTimeGrid,
                 ranges: Sequence[AxisRange]):
        n, J = problem.domain.n, grid.nx_cross
        self.problem, self.grid, self.ranges = problem, grid, tuple(ranges)
        self._strides = [_strides(r, J) for r in self.ranges]
        self.bandwidth = _bandwidth(grid, self.ranges)
        self.factorizations = 0
        self.nbytes = 0  # factors kept
        ends = np.cumsum([0] + [(r.hi - r.lo + 1) * J for r in self.ranges])
        self.slices = [slice(int(a), int(b)) for a, b in zip(ends[:-1], ends[1:])]
        self.size = int(ends[-1])
        # 1 on the rows whose right-hand side takes u_prev/dt, 0 on the
        # Dirichlet rows: lateral faces (n=2) and Dirichlet axis faces.
        self.takes_prev = np.ones(self.size)
        if n == 2:
            for take in self._unstack(self.takes_prev):
                take[:, [0, -1]] = 0.0
        j0, j1 = (1, J - 1) if n == 2 else (0, 1)
        self._faces = []  # (rows, rule, is low face) per face, range by range
        for r, rows, (sa, sc) in zip(self.ranges, self.slices, self._strides):
            for face, low in ((r.low, True), (r.high, False)):
                first = rows.start + (0 if low else (r.hi - r.lo) * sa)
                face_rows = slice(first + j0 * sc, first + j1 * sc, sc)
                if face.kind == "dirichlet":
                    self.takes_prev[face_rows] = 0.0
                self._faces.append((face_rows, face, low))
        self.u0 = None        # (N,), filled by the first march
        self._static = None   # (nt+1, N), filled by the first march
        self._coefs = None    # per face: Robin data factors, (2, nt+1)
        self._keys = None     # per step: the coefficient values at t_k
        self._lus = {}        # coefficient values -> factors kept
        self._keep_bytes = 0  # the cap on nbytes, set by the first march

    def _stack(self, nodes: np.ndarray) -> np.ndarray:
        """Whole-grid node values (..., nx_axis, ncross) as the ranges'
        unknowns side by side, (..., N)."""
        out = np.empty(nodes.shape[:-2] + (self.size,))
        for r, nodes_r in zip(self.ranges, self._unstack(out)):
            nodes_r[...] = nodes[..., r.lo:r.hi + 1, :]
        return out

    def _unstack(self, u: np.ndarray) -> List[np.ndarray]:
        """The ranges' unknowns (..., N) by node, (..., m, ncross) per range;
        views of u."""
        return [_node_view(u[..., rows], r.hi - r.lo + 1, self.grid.nx_cross, sa, sc)
                for r, rows, (sa, sc) in zip(self.ranges, self.slices, self._strides)]

    def _factor(self, values: Tuple[float, ...]) -> Union[BandedLU, TridiagonalLU]:
        """Assemble and factor the step matrix of these coefficient values."""
        bw = self.bandwidth
        work = np.zeros((3 * bw + 1, self.size), order="F")
        assemble_step(values, self.grid, self.ranges, work[bw:])
        lu = _factor_band(work, bw)
        self.factorizations += 1
        return lu

    def _prepare(self, keep_bytes: int) -> None:
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
        self._static, self._coefs, self._keys, self._keep_bytes = static, coefs, keys, keep_bytes

    def rhs(self, faces: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Every step's right-hand side for zero u_prev, (nt+1, N); row 0 is
        not used.

        faces[i] holds the (nt+1, ncross) data of range i's low and high
        face: solution values on a Dirichlet face, Robin data on a Robin one.
        The first call prepares the steps' data.
        """
        if self._static is None:
            self._prepare(FACTOR_CACHE_BYTES)
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

    def solve(self, faces: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """One march of every range from the face data (see rhs()): the
        stacked iterate (nt+1, N), one LAPACK solve per step; a step whose
        key repeats the previous step's reuses its factors.
        """
        b = self.rhs(faces)
        u = np.empty_like(b)
        u[0] = self.u0
        take, dt, keys, lu = self.takes_prev, self.grid.dt, self._keys, None
        for k in range(1, self.grid.nt + 1):
            rhs = u[k - 1] / dt
            rhs *= take
            rhs += b[k]
            if keys[k] != keys[k - 1]:
                lu = None  # let the previous step's factors go first
                lu = self.factors(k)
            u[k] = lu.solve(rhs)
        return u

    def factors(self, k: int) -> Union[BandedLU, TridiagonalLU]:
        """Step k's LU factors: the kept ones, or made afresh and kept if
        they fit; after rhs()."""
        values = self._keys[k]
        lu = self._lus.get(values)
        if lu is None:
            lu = self._factor(values)
            if self.nbytes + lu.nbytes <= self._keep_bytes:
                self._lus[values] = lu
                self.nbytes += lu.nbytes
        return lu


def march(problem: ParabolicProblem, grid: SpaceTimeGrid, ranges: Sequence[AxisRange],
          faces: Sequence[Tuple[np.ndarray, np.ndarray]],
          operator: Optional[StackOperator] = None) -> List[np.ndarray]:
    """Backward-Euler march of axis node ranges side by side; returns one
    (nt+1, m, ncross) array per range.

    faces[i] holds the (nt+1, ncross) data of range i's low and high axis
    face; lateral faces (n=2) always carry Dirichlet data g.  `operator`
    keeps the ranges' prepared steps between marches; without one, the
    steps are prepared for this march only and keep no factors.
    """
    if operator is None:
        operator = StackOperator(problem, grid, ranges)
        operator._prepare(keep_bytes=0)
    elif (operator.problem, operator.grid, operator.ranges) != (problem, grid, tuple(ranges)):
        raise ValueError("operator was built for another problem, grid or axis range")
    return operator._unstack(operator.solve(faces))
