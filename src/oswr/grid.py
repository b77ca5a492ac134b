"""Uniform space-time grid, backward-Euler step matrices and the stack operator.

One implicit step solves  (I/dt + L_h(t_next)) u_next = u_prev/dt + f(t_next)
with L_h the centered second-order discretization of
-sum a_ij d2/dx_i dx_j + sum b_i d/dx_i + c.  The mixed derivative (n=2)
uses the four-corner centered cross stencil.  Robin faces along the
decomposed axis are closed by ghost-node elimination, which keeps the
boundary rows second-order accurate.

Unknowns are all nodes of the (local) box.  A Dirichlet node's row is its
step's interior diagonal d_k (_stencil) times the prescribed value,
d_k u = d_k g, so the band structure is uniform and the row is as large as
its neighbours': partial pivoting then swaps no row, and the face values
keep their digits at any dt and h.  Each axis range orders its m x ncross
nodes by whichever way gives the narrower band: cross-major
(index = j_cross * m + i_axis) when the range is narrower than the cross
section, axis-major (index = i_axis * ncross + j_cross) otherwise.  A strip
of the decomposition is narrow along x_n, so its band is about as wide as
the strip, not the cross section.  In 1D (ncross = 1) the two are the same.

A step's matrix depends on the coefficient values at t_next and the face
rules only, never on the iterate or the data.  A StackOperator places the
step matrices of several axis node ranges (the strips of one sweep, which
are independent within it) block-diagonally in one band.  When built, it
evaluates f (and the lateral g) once on the whole space-time grid and the
coefficients once at every grid time; each march adds every face's data,
times its per-step factor, in one right-hand-side build for all steps and
factors a step when it first needs it.  With its factors kept, every later
march costs one LAPACK solve per step, in place in the iterate.  When the
factors of its distinct steps do not fit the cap, a block of marches can go
time-outer instead (solve_block): each step is factored once for the whole
block, and each march takes that step's Robin data from the one before it.
A one-off march (march(): the oracle, solve_subdomain, sweep_once) is a
block of one, which keeps no factors.

The four LAPACK routines come from scipy.linalg._flapack, loaded on its own:
scipy.linalg's package init would about double the start-up of a process.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
import scipy

from .errors import BadResolution, DataMismatch, SingularSystem
from .problem import CoefficientSet, DomainSpec, ParabolicProblem


def _flapack():
    """scipy.linalg._flapack, registered under its full name, so a later
    `import scipy.linalg` uses this module object and its routines."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        spec = importlib.machinery.PathFinder.find_spec(name, [where])
        if spec is None:
            raise ImportError(f"scipy's LAPACK wrappers _flapack not found in {where}")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(sys.modules[name])
        except BaseException:
            del sys.modules[name]
            raise
    return sys.modules[name]


_lapack = _flapack()
dgbtrf, dgbtrs, dgttrf, dgttrs = _lapack.dgbtrf, _lapack.dgbtrs, _lapack.dgttrf, _lapack.dgttrs

# Bytes of LU factors one StackOperator keeps, read each time it factors a
# step.  A kept step's factors take (2*bw + 1 + fill rows) * N * 8 bytes plus
# N pivots, for N unknowns over all ranges and bw = min(widest range,
# nx_cross) + 1 in 2D (in 1D, ?gttrf's four diagonals take (4N - 4) * 8);
# the up to bw fill rows of ?gbtrf hold entries only when it swaps rows,
# and there are none when no row was swapped.  Steps are kept in the order
# they are first factored, time order, while they fit; the others are
# factored again in every march.  When built, an operator also reads it as
# the bytes of (nt+1, N) iterates one block of marches may hold, which it
# uses when that factors fewer steps than re-factoring (StackOperator.block).
# 16 MiB, about a third of what an oswr process holds anyway, keeps every
# step of the 1D runs of a few hundred nodes and steps and lets tvar2d-wide
# (41 x 41 nodes, 20 steps) march its 20 sweeps as one block.
FACTOR_CACHE_BYTES = 16 * 2 ** 20


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
    grid = SpaceTimeGrid(domain=domain, nx_axis=nx_axis, nt=nt, nx_cross=nx_cross)
    # The step matrix divides by h**2, and the standard exact solution
    # squares pi / L for a length L >= 2h.
    for name, h in (("axis", grid.hx_axis), ("cross", grid.hx_cross))[:domain.n]:
        if not (0 < h * h < math.inf and (math.pi / h) * (math.pi / h) < math.inf):
            raise BadResolution(f"h**2 or (pi/h)**2 overflows for the {name} spacing h = {h:g}")
    return grid


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
    lu: np.ndarray   # (2 * bandwidth + 1 + fill rows, N), Fortran order
    piv: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.lu.nbytes + self.piv.nbytes

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution, in place of rhs if it is a contiguous float vector."""
        # U has bandwidth + fill rows superdiagonals.  ?gbtrs reports only
        # invalid arguments, which the factors rule out.
        ku = self.lu.shape[0] - 1 - 2 * self.bandwidth
        x, _ = dgbtrs(self.lu, self.bandwidth, ku, rhs, self.piv, overwrite_b=1)
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
        """The solution, in place of rhs if it is a contiguous float vector."""
        # ?gttrs reports only invalid arguments, which the factors rule out.
        x, _ = dgttrs(self.dl, self.d, self.du, self.du2, self.ipiv, rhs, overwrite_b=1)
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
        return self.factor().solve(self.rhs.copy())

    def to_dense(self) -> np.ndarray:
        n = self.rhs.size
        bw = self.bandwidth
        dense = np.zeros((n, n))
        for o in range(-bw, bw + 1):  # o = column - row
            rows = np.arange(max(0, -o), n - max(0, o))
            dense[rows, rows + o] = self.ab[bw - o, rows + o]
        return dense


def _coefficient_table(coeffs: CoefficientSet, times: np.ndarray) -> np.ndarray:
    """(a_nn, b_n, c, a_11, a_12, b_1) at each time, (len(times), 6), the
    last three 0 for n=1, from one CoefficientSet.sample.

    A row as a tuple of floats is its step's key: steps of one strip with
    equal values and face rules have equal matrices.
    """
    a, b, c = coeffs.sample(times)
    cross = (a[:, 0, 0], a[:, 0, 1], b[:, 0]) if coeffs.n == 2 else (np.zeros_like(c),) * 3
    return np.stack((a[:, -1, -1], b[:, -1], c) + cross, axis=1)


def _stencil(values, grid: SpaceTimeGrid) -> Tuple:
    """The entries of an interior row of the step matrix, for the six
    coefficient values of a _coefficient_table row (or its six columns, one
    entry per row): the diagonal d_k = 1/dt + c + 2 a_nn/h**2 (plus
    2 a_11/hc**2 in 2D), which Dirichlet rows take too, the axis neighbours
    up and down, the cross neighbours up and down and the corner entry of
    (i+1, j+1) and (i-1, j-1), the last three 0 in 1D."""
    a_ax, b_ax, cc, a_cr, a_mx, b_cr = values
    n, h = grid.domain.n, grid.hx_axis
    hc = grid.hx_cross if n == 2 else np.inf  # cross terms vanish in 1D
    diag = 1.0 / grid.dt + cc + 2.0 * a_ax / h ** 2 + (2.0 * a_cr / hc ** 2 if n == 2 else 0.0)
    return (diag, -a_ax / h ** 2 + b_ax / (2.0 * h), -a_ax / h ** 2 - b_ax / (2.0 * h),
            -a_cr / hc ** 2 + b_cr / (2.0 * hc), -a_cr / hc ** 2 - b_cr / (2.0 * hc),
            -a_mx / (2.0 * h * hc))


def _robin_row(values, stencil: Tuple, grid: SpaceTimeGrid, face: FaceRule,
               low: bool) -> Tuple:
    """The entries of a Robin face row, for coefficient values (or columns)
    as _stencil takes them and their _stencil: the diagonal, the inward
    axis neighbour and the cross neighbours up and down.  Ghost
    elimination: s*(u_inner - u_ghost)/(2h) + p*u_face = data on the low
    face, mirrored on the high face."""
    a_ax, b_ax, _, _, a_mx, _ = values
    p, s, h = face.p, face.sign, grid.hx_axis
    hc = grid.hx_cross if grid.domain.n == 2 else np.inf
    drift = -2.0 * a_ax * p / (s * h) if low else 2.0 * a_ax * p / (s * h)
    diag, _, _, up_cr, dn_cr, _ = stencil
    return (diag + drift - b_ax * p / s, -2.0 * a_ax / h ** 2,
            up_cr + a_mx * p / (s * hc), dn_cr - a_mx * p / (s * hc))


def _robin_data_coefficients(table: np.ndarray, grid: SpaceTimeGrid,
                             face: FaceRule, low: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Factors of data[j] and of data[j+1] - data[j-1] in a Robin face row,
    one per row of the coefficient table."""
    a_ax, b_ax, a_mx = table[:, 0], table[:, 1], table[:, 4]
    s, h = face.sign, grid.hx_axis
    mixed = a_mx / (s * grid.hx_cross) if grid.domain.n == 2 else a_mx  # 0 in 1D
    if low:
        return -(2.0 * a_ax / (s * h) + b_ax / s), mixed
    return 2.0 * a_ax / (s * h) - b_ax / s, mixed


def check_step_matrices(problem: ParabolicProblem, grid: SpaceTimeGrid,
                        p_values: Sequence[float]) -> None:
    """Raise ValueError, naming a coefficient and a step time t, if at t an
    entry of the step matrix (the interior stencil, whose diagonal the
    Dirichlet rows take too, or a Robin face row for any p in p_values,
    sign and face) or a Robin data factor is not finite.  The coefficient
    named is the one whose term in the stencil is largest at t."""
    times = grid.times()[1:]
    table = _coefficient_table(problem.coeffs, times)
    with np.errstate(over="ignore", invalid="ignore"):
        stencil = _stencil(table.T, grid)
        bad = ~np.isfinite(stencil).all(axis=0)
        for p, sign, low in itertools.product(p_values, (1.0, -1.0), (True, False)):
            face = FaceRule("robin", p, sign)
            for entry in (_robin_row(table.T, stencil, grid, face, low)
                          + _robin_data_coefficients(table, grid, face, low)):
                bad |= ~np.isfinite(entry)
        if not bad.any():
            return
        k = int(np.argmax(bad))
        h, hc = grid.hx_axis, grid.hx_cross if grid.domain.n == 2 else 1.0
        terms = np.abs(table[k]) * [1 / h ** 2, 1 / h, 1.0, 1 / hc ** 2, 1 / (h * hc), 1 / hc]
    i = int(np.argmax(terms))
    name = (("a11", "b1", "c") if grid.domain.n == 1
            else ("a22", "b2", "c", "a11", "a12", "b1"))[i]
    raise ValueError(f"{name} = {table[k, i]:g} at t={times[k]:g} "
                     "makes a step-matrix entry overflow")


def assemble_step(values: Tuple[float, ...], grid: SpaceTimeGrid,
                  ranges: Sequence[AxisRange], ab: Optional[np.ndarray] = None) -> np.ndarray:
    """The step matrix of the axis ranges, placed block-diagonally in one
    band in scipy solve_banded layout, (2*bw + 1, N).

    `values` are the coefficient values at t_next, a row of
    _coefficient_table.
    Each range's unknowns are ordered by _strides: axis neighbours sit at
    +-sa, cross neighbours at +-sc and corners at +-(sa + sc), +-(sa - sc).
    `ab`, if given, is a zeroed (2*bw + 1, N) array (or view) that receives
    the matrix in place of a new one.
    """
    n, J = grid.domain.n, grid.nx_cross
    bw = _bandwidth(grid, ranges)
    stencil = _stencil(values, grid)
    diag, up_ax, dn_ax, up_cr, dn_cr, corner = stencil

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
            put(0, 0, (0, m), (0, 1), diag)
            put(0, 0, (0, m), (J - 1, J), diag)

        for face, low in ((r.low, True), (r.high, False)):
            i = 0 if low else m - 1
            rows = (i, i + 1)
            if face.kind == "dirichlet":
                put(0, 0, rows, cross, diag)
                continue
            face_diag, inward, face_up, face_dn = _robin_row(values, stencil, grid, face, low)
            put(0, 0, rows, cross, face_diag)
            put(1 if low else -1, 0, rows, cross, inward)
            if n == 2:
                put(0, 1, rows, cross, face_up)
                put(0, -1, rows, cross, face_dn)
    return ab


class StackOperator:
    """The time steps of several axis node ranges, prepared once for many marches.

    Step k's matrix is the ranges' step-k matrices placed block-diagonally
    in one band, so one LAPACK solve advances every range by one step.  Each
    range orders its unknowns by _strides, and `bandwidth` is the widest
    range's; _unstack gives node arrays, whatever the order.  A step's
    matrix depends on the coefficient values at t_k and the face rules
    only, never on the iterate or the data.  Building the operator prepares
    the data of every step at once: f on the whole (nt+1) x axis x cross
    grid in one call (and g on the two lateral planes in 2D), sliced into
    the static right-hand side (nt+1, N); u0 from g at t=0 the same way;
    and from one coefficient table (_coefficient_table) each step's key
    and every face's data factors.  Every face's data enter its rows the
    same way, data times the face's factor at step k (plus, in 2D, the
    cross difference of the data times a second factor): a Robin face's
    factors come from the ghost elimination, a Dirichlet face's are the
    step diagonal d_k and 0, on rows whose static value and u_prev weight
    are zero (the lateral g in the static value is scaled by d_k too).

    One rule gives every step its factors: a step reuses the previous
    step's while its key repeats, else takes its key's kept factors, else
    is assembled and factored then, and kept by solve() if the kept bytes
    stay within FACTOR_CACHE_BYTES; solve_block keeps none.  Results do not
    depend on the cap.

    `block` is the number of marches solve_block may take at once, decided
    when the operator is built: as many (nt+1, N) iterates as fit
    FACTOR_CACHE_BYTES, if at least two do and a block of them factors
    fewer steps per march (distinct steps / block) than march by march
    re-factors (the distinct steps whose factors do not fit the cap); else
    1, march by march with kept factors.
    """

    def __init__(self, problem: ParabolicProblem, grid: SpaceTimeGrid,
                 ranges: Sequence[AxisRange]):
        n, J = problem.domain.n, grid.nx_cross
        self.problem, self.grid, self.ranges = problem, grid, tuple(ranges)
        self._strides = [_strides(r, J) for r in self.ranges]
        self.bandwidth = _bandwidth(grid, self.ranges)
        self.factorizations = 0
        self.nbytes = 0  # factors kept
        self._lus = {}   # coefficient values -> factors kept
        ends = np.cumsum([0] + [(r.hi - r.lo + 1) * J for r in self.ranges])
        self.slices = [slice(int(a), int(b)) for a, b in zip(ends[:-1], ends[1:])]
        self.size = int(ends[-1])
        # 1 on the rows whose right-hand side takes u_prev/dt, 0 on the
        # Dirichlet rows: lateral faces (n=2) and Dirichlet axis faces.
        self.takes_prev = np.ones(self.size)
        if n == 2:
            for take in self._unstack(self.takes_prev):
                take[:, [0, -1]] = 0.0
        times = grid.times()
        table = _coefficient_table(problem.coeffs, times)
        self._keys: List[Optional[tuple]] = [None] + [tuple(v) for v in table[1:].tolist()]
        diag = _stencil(table.T, grid)[0]  # each Dirichlet row's diagonal
        nodes = eval_nodes(problem.f, grid, times)
        if n == 2:
            cross, axis = grid.cross_nodes(), grid.axis_nodes()
            for j in (0, -1):
                nodes[:, :, j] = diag[:, None] * problem.g(times[:, None], cross[j], axis)
        self._static = self._stack(nodes)  # (nt+1, N)
        self.u0 = self._stack(eval_nodes(problem.g, grid, times[:1])[0])
        # Each face's rows (inner cross nodes in 2D) and its per-step factors,
        # faces in range order, low face first; the indices of the Robin faces.
        j0, j1 = (1, J - 1) if n == 2 else (0, 1)
        rows, factors, robin = [], [], []
        for r, stack_rows, (sa, sc) in zip(self.ranges, self.slices, self._strides):
            for face, low in ((r.low, True), (r.high, False)):
                first = stack_rows.start + (0 if low else (r.hi - r.lo) * sa)
                rows.append(np.arange(first + j0 * sc, first + j1 * sc, sc))
                if face.kind == "dirichlet":
                    self.takes_prev[rows[-1]] = 0.0
                    self._static[:, rows[-1]] = 0.0
                    factors.append((diag, np.zeros(grid.nt + 1)))
                else:
                    robin.append(len(rows) - 1)
                    factors.append(_robin_data_coefficients(table, grid, face, low))
        self._rows, self._robin = np.stack(rows), np.array(robin, dtype=int)
        self._data_factor, self._cross_factor = (  # (nt+1, faces, 1)
            np.stack(f, axis=1)[..., None] for f in zip(*factors))
        N, bw = self.size, self.bandwidth
        step_bytes = 8 * (4 * N - 4 if bw == 1 else (2 * bw + 1) * N) + 4 * N
        distinct = len(set(self._keys[1:]))
        refactored = distinct - FACTOR_CACHE_BYTES // step_bytes  # per march
        fit = FACTOR_CACHE_BYTES // ((grid.nt + 1) * N * 8)
        self.block = fit if fit >= 2 and distinct < refactored * fit else 1

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

    def _factor(self, values: Tuple[float, ...],
                keep: bool = True) -> Union[BandedLU, TridiagonalLU]:
        """Assemble and factor the step matrix of these coefficient values,
        and, if `keep`, keep the factors if they fit FACTOR_CACHE_BYTES."""
        bw = self.bandwidth
        work = np.zeros((3 * bw + 1, self.size), order="F")
        assemble_step(values, self.grid, self.ranges, work[bw:])
        lu = _factor_band(work, bw)
        self.factorizations += 1
        if not keep:
            return lu
        # The leading fill rows of a band LU that hold no entry (all bw when
        # ?gbtrf swapped no row) are left out of kept factors only: trimming
        # is a copy, which a factor used for one step does not repay.
        empty = 0
        if bw > 1:
            filled = np.flatnonzero(lu.lu[:bw].any(axis=1))
            empty = int(filled[0]) if filled.size else bw
        if self.nbytes + lu.nbytes - empty * self.size * 8 <= FACTOR_CACHE_BYTES:
            if empty:
                lu = BandedLU(bw, np.asfortranarray(lu.lu[empty:]), lu.piv)
            self._lus[values] = lu
            self.nbytes += lu.nbytes
        return lu

    def _face_values(self, base: np.ndarray, data: np.ndarray, k,
                     faces=slice(None)) -> np.ndarray:
        """base (..., faces, rows) plus the terms of the faces' data (...,
        faces, ncross) at steps k, added in one order: the data times the
        face's factor, then, in 2D, their cross difference times the second
        factor."""
        j0, w = (1 if self.problem.domain.n == 2 else 0), self._rows.shape[1]
        out = base + self._data_factor[k, faces] * data[..., j0:j0 + w]
        if self.problem.domain.n == 2:
            out += self._cross_factor[k, faces] * (data[..., 2:] - data[..., :-2])
        return out

    def rhs(self, faces: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Every step's right-hand side for zero u_prev, (nt+1, N), whose
        row 0 is not used.

        faces[i] holds the (nt+1, ncross) data of range i's low and high
        face: solution values on a Dirichlet face, Robin data on a Robin one.
        """
        out = self._static.copy()
        data = np.stack([vals for pair in faces for vals in pair], axis=-2)
        out[:, self._rows] = self._face_values(out[:, self._rows], data, slice(None))
        return out

    def solve(self, faces: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """One march of every range from the face data (see rhs()): the
        stacked iterate (nt+1, N), one LAPACK solve per step, in place; a
        step whose key repeats the previous step's reuses its factors.
        """
        b = self.rhs(faces)
        u = np.empty_like(b)
        u[0] = self.u0
        take, dt, keys, lu = self.takes_prev, self.grid.dt, self._keys, None
        for k in range(1, self.grid.nt + 1):
            step = np.divide(u[k - 1], dt, out=u[k])
            step *= take
            step += b[k]
            if keys[k] != keys[k - 1]:
                # The previous step's factors go before new ones are made.
                lu = self._lus.get(keys[k])
                if lu is None:
                    lu = self._factor(keys[k])
            lu.solve(step)
        return u

    def solve_block(self, faces: Sequence[Tuple[np.ndarray, np.ndarray]], count: int = 1,
                    traces: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                    ) -> List[np.ndarray]:
        """`count` marches, time-outer and keeping no factors: each step is
        factored once (or reuses the previous step's factors if its key
        repeats), then march j = 0, 1, ... advances by it.  March 0 takes
        the face data `faces` (see rhs()); march j + 1 takes the same data
        but on its Robin faces, whose data at step k are traces(u_j[k]), one
        (ncross,) row per Robin face, in range order, low face first.  Each
        iterate is bit for bit solve() of the face data it took.
        """
        b = self.rhs(faces)  # march 0's; each later march rewrites step k's Robin rows
        us = [np.empty_like(b) for _ in range(count)]
        robin = self._robin
        rows = self._rows[robin]
        static = self._static[:, rows]
        take, dt, keys, lu = self.takes_prev, self.grid.dt, self._keys, None
        for u in us:
            u[0] = self.u0
        for k in range(1, self.grid.nt + 1):
            if keys[k] != keys[k - 1]:
                lu = None  # the previous step's factors go before new ones are made
                lu = self._factor(keys[k], keep=False)
            for j, u in enumerate(us):
                if j:
                    b[k, rows] = self._face_values(static[k], traces(us[j - 1][k]), k, robin)
                step = np.divide(u[k - 1], dt, out=u[k])  # as in solve()
                step *= take
                step += b[k]
                lu.solve(step)
        return us


def check_faces(grid: SpaceTimeGrid, ranges: Sequence[AxisRange],
                faces: Sequence[Tuple[np.ndarray, np.ndarray]]) -> None:
    """Raise DataMismatch unless each range has one finite (nt+1, ncross) face pair."""
    if len(faces) != len(ranges):
        raise DataMismatch(f"{len(faces)} face pairs for {len(ranges)} axis ranges")
    shape = (grid.nt + 1, grid.nx_cross)
    for low, high in faces:
        for vals in (low, high):
            if vals.shape != shape:
                raise DataMismatch(f"trace shape {vals.shape} != {shape}")
            if not np.all(np.isfinite(vals)):
                raise DataMismatch("trace values contain non-finite entries")


def march(problem: ParabolicProblem, grid: SpaceTimeGrid, ranges: Sequence[AxisRange],
          faces: Sequence[Tuple[np.ndarray, np.ndarray]]) -> List[np.ndarray]:
    """Backward-Euler march of axis node ranges side by side, on a
    StackOperator built for this march; returns one (nt+1, m, ncross) array
    per range.

    faces[i] holds the (nt+1, ncross) data of range i's low and high axis
    face (see check_faces); lateral faces (n=2) always carry Dirichlet data g.
    """
    check_faces(grid, ranges, faces)
    operator = StackOperator(problem, grid, ranges)
    return operator._unstack(operator.solve_block(faces)[0])
