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
evaluates f once on the whole space-time grid, g once on every Dirichlet
face and the coefficients once at every grid time, and maps each entry of
the band to the stencil term it takes, so a step's band is one scatter of
its few terms.  Callers pass Robin data only.  Its one march loop,
sweeps(), adds every Robin face's data, times its per-step factor, in one
right-hand-side build for all steps, and marches
the sweeps of a run time-outer in blocks: each step is factored once per
block and then costs each of the block's marches one solve in place in the
iterate, and each march's Robin traces are gathered once (traces()), for
the next march and for the caller.  In 1D a step whose rows are strictly
diagonally dominant, with coupled entries of one sign (every step of the
benchmark's 1D cases), is made symmetric by a row scaling R, stated range
by range from its faces, once its Dirichlet face rows are folded into the
right-hand side (StackOperator._prepare_symmetric); the build makes
every such step's R at once, the right-hand-side build applies the folds
and R, and the step costs one ?pttrs (LDLᵀ), about half a ?gttrs.  Other
1D steps take ?gttrs; in 2D a step takes two triangular ?tbsv solves, or
?gbtrs when ?gbtrf swapped rows.  Blocks of one march, which keep their
factors under a cap, are the rule when the steps' factors fit it or a
block would factor more; a one-off march (march(): the oracle,
solve_subdomain, sweep_once) keeps no factors.

The six LAPACK routines come from scipy.linalg._flapack and dtbsv from
scipy.linalg._fblas, each loaded on its own from scipy's linalg directory,
_fblas at the first banded factorization (so 1D processes never load it).
Neither scipy's package init nor scipy.linalg's runs; the latter would
about double the start-up of a process.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BadResolution, DataMismatch, NodeOutOfRange, SingularSystem
from .problem import CoefficientSet, DomainSpec, ParabolicProblem


def _scipy_linalg(name: str, wraps: str):
    """scipy.linalg.<name>, scipy's f2py module of `wraps` routines,
    registered under its full name, so a later `import scipy.linalg` uses
    this module object and its routines."""
    full = "scipy.linalg." + name
    if full not in sys.modules:
        scipy = importlib.util.find_spec("scipy")  # found, not imported: no package init
        if scipy is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        where = os.path.join(scipy.submodule_search_locations[0], "linalg")
        spec = importlib.machinery.PathFinder.find_spec(full, [where])
        if spec is None:
            raise ImportError(f"scipy's {wraps} wrappers {name} not found in {where}")
        sys.modules[full] = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(sys.modules[full])
        except BaseException:
            del sys.modules[full]
            raise
    return sys.modules[full]


_lapack = _scipy_linalg("_flapack", "LAPACK")
dgbtrf, dgbtrs, dgttrf, dgttrs = _lapack.dgbtrf, _lapack.dgbtrs, _lapack.dgttrf, _lapack.dgttrs
dpttrf, dpttrs = _lapack.dpttrf, _lapack.dpttrs
dtbsv = None  # from _fblas, loaded by the first banded factorization (_factor_band)

# Bytes of factors one StackOperator keeps, read each time it factors a
# step.  A kept step's factors take (2*bw + 1) * N * 8 bytes plus N pivots,
# for N unknowns over all ranges and bw = min(widest range, nx_cross) + 1 in
# 2D (in 1D, ?gttrf's four diagonals take (4N - 4) * 8 and a symmetric
# step's two LDLᵀ diagonals (2N - 1) * 8, SymmetricLDL.nbytes; its row
# scales, like the operator's other per-step data, are not counted);
# ?gbtrf's bw fill rows are kept too, bw * N * 8 bytes more, when it
# swapped rows.  Steps are kept in the order they are first factored, time
# order, while they fit; the others are factored again in every march.
# When built, an operator also reads it as the bytes of (nt+1, N) iterates
# one block of sweeps() may hold (StackOperator.block), and marches in such
# blocks, keeping no factors, when that factors fewer steps than
# re-factoring march by march, counting a 2D step at its fill rows too
# (never for symmetric 1D steps,
# whose factors, about 2N doubles, take about 2 / (nt + 1) of an iterate).
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


def _fortran(buf: np.ndarray, at: int, rows: int, n: int) -> np.ndarray:
    """The (rows, n) Fortran-order view of the flat buf from entry `at` on."""
    return buf[at:at + rows * n].reshape((rows, n), order="F")


def _band_work(bw: int, n: int) -> np.ndarray:
    """Zeros for _factor_band: a (3*bw + 1, n) Fortran array, flat, and 2*bw
    spare entries after it, so that BandedLU can view the factors shifted."""
    return np.zeros((3 * bw + 1) * n + 2 * bw)


@dataclass(frozen=True)
class BandedLU:
    """LU factors of a banded matrix from ?gbtrf, for repeated solves.

    `lu` holds them in ?gbtrf's layout, (rows, N) in Fortran order with U's
    diagonal in row d = rows - bandwidth - 1: its 3*bw + 1 rows, or, kept
    when ?gbtrf swapped no row, the last 2*bw + 1 without the bw fill rows,
    which are then empty.  lu heads a flat buffer with d spare entries after
    it.  When no row was swapped, `lower` and `upper` are views of that
    buffer with lu's leading dimension, shifted to start at L's diagonal
    (row d) and at U's bw-th superdiagonal (row d - bw), and a solve is two
    ?tbsv calls, unit lower and upper with bw off-diagonals, which read no
    fill row.  A factor with a row swap has none and is solved by ?gbtrs.
    """

    bandwidth: int
    lu: np.ndarray
    piv: np.ndarray
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    @classmethod
    def of(cls, buf: np.ndarray, rows: int, bw: int, piv: np.ndarray) -> "BandedLU":
        """The factors of rows rows at the head of buf, as described above."""
        n, d = piv.size, rows - bw - 1
        if not np.array_equal(piv, np.arange(n)):
            return cls(bw, _fortran(buf, 0, rows, n), piv)
        return cls(bw, _fortran(buf, 0, rows, n), piv,
                   _fortran(buf, d, rows, n), _fortran(buf, d - bw, rows, n))

    @property
    def nbytes(self) -> int:
        return self.lu.nbytes + self.piv.nbytes

    def trimmed(self) -> "BandedLU":
        """A copy without the fill rows, of factors with no row swapped."""
        bw, n = self.bandwidth, self.piv.size
        buf = np.zeros((2 * bw + 1) * n + bw)
        _fortran(buf, 0, 2 * bw + 1, n)[...] = self.lu[bw:]
        return BandedLU.of(buf, 2 * bw + 1, bw, self.piv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution, in place of rhs if it is a contiguous float vector."""
        # ?gbtrs and ?tbsv report only invalid arguments, which the factors
        # rule out.
        bw = self.bandwidth
        if self.lower is None:
            x, _ = dgbtrs(self.lu, bw, bw, rhs, self.piv, overwrite_b=1)
            return x
        x = dtbsv(bw, self.lower, rhs, lower=1, diag=1, overwrite_x=1)
        return dtbsv(bw, self.upper, x, overwrite_x=1)


@dataclass(frozen=True)
class TridiagonalLU:
    """LU factors of a tridiagonal matrix from ?gttrf, for repeated solves:
    the 1D steps whose symmetric form does not qualify
    (StackOperator._prepare_symmetric)."""

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


@dataclass  # not frozen: a frozen one takes 0.7 µs more to make, once per factorization
class SymmetricLDL:
    """LDLᵀ factors from ?pttrf (_factor_band) of a symmetric positive
    definite tridiagonal S = R A, a 1D step matrix A made symmetric range
    by range, its Dirichlet face rows folded into their neighbours
    (StackOperator._prepare_symmetric), for repeated solves of right-hand
    sides folded and scaled as S needs (StackOperator._scale).  ?pttrs's
    back substitution, unlike ?gttrs's, divides by no pivot on its
    recurrence: about half the time."""

    d: np.ndarray
    e: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.d.nbytes + self.e.nbytes

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution of S x = rhs, in place of rhs if it is a contiguous
        float vector."""
        # ?pttrs reports only invalid arguments, which the factors rule out.
        x, _ = dpttrs(self.d, self.e, rhs, overwrite_b=1)
        return x


def _factor_band(work: Optional[np.ndarray], bw: int, n: int,
                 symmetric: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                 ) -> Union[BandedLU, TridiagonalLU, SymmetricLDL]:
    """Factors of the band held in rows bw: of the (3*bw + 1, n) Fortran
    array that heads the flat buffer `work` (_band_work(bw, n)); or, given
    `symmetric`, the diagonal and off-diagonal of a 1D step's symmetric
    form S, R times the step's rows with its Dirichlet face rows folded
    (StackOperator._prepare_symmetric), which ?pttrf factors in place into
    a SymmetricLDL (work is not read).

    Other bands of bandwidth 1 use the tridiagonal kernels ?gttrf/?gttrs,
    whose solve takes about half the time of ?gbtrs; wider bands are
    factored in place by ?gbtrf (into work; copied back should f2py ever
    hand back a copy) and solved as BandedLU says.  The first wider band
    loads scipy's BLAS wrappers for ?tbsv.  A zero pivot, or a nonpositive
    one of ?pttrf (which the diagonal dominance of a symmetric form rules
    out), raises SingularSystem.
    """
    if symmetric is not None:
        d, e, info = dpttrf(*symmetric, overwrite_d=1, overwrite_e=1)
        if info > 0:
            raise SingularSystem(f"symmetric step matrix not positive definite at unknown "
                                 f"{info - 1}")
        return SymmetricLDL(d, e)
    rows = 3 * bw + 1
    band = _fortran(work, 0, rows, n)
    if bw == 1:
        dl, d, du, du2, ipiv, info = dgttrf(band[3, :-1], band[2], band[1, 1:])
        lu = TridiagonalLU(dl, d, du, du2, ipiv)
    else:
        global dtbsv
        if dtbsv is None:
            dtbsv = _scipy_linalg("_fblas", "BLAS").dtbsv
        factors, piv, info = dgbtrf(band, bw, bw, overwrite_ab=1)
        if not np.shares_memory(factors, band):
            band[...] = factors
        lu = BandedLU.of(work, rows, bw, piv)
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
        bw, n = self.bandwidth, self.rhs.size
        work = _band_work(bw, n)
        _fortran(work, 0, 3 * bw + 1, n)[bw:] = self.ab
        return _factor_band(work, bw, n)

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


def _face_terms(ranges: Sequence[AxisRange]) -> List[Tuple[int, int]]:
    """Per range, where its low and its high face row's entries sit among
    _step_terms: the index of the row's diagonal.  A Dirichlet face row
    holds the stencil diagonal alone, term 0.  The f-th Robin face (range
    order, low face first) has its four _robin_row entries at 7 + 4 f on,
    after _stencil's six and the negated corner: the diagonal, then the
    inward axis neighbour at + 1 and the cross neighbours up and down at
    + 2 and + 3."""
    at = itertools.count(7, 4)
    return [(next(at) if r.low.kind == "robin" else 0, next(at) if r.high.kind == "robin" else 0)
            for r in ranges]


def _step_terms(values: Tuple[float, ...], grid: SpaceTimeGrid,
                ranges: Sequence[AxisRange]) -> np.ndarray:
    """The entries of the ranges' step matrix for coefficient values (a
    _coefficient_table row), as _face_terms places them."""
    stencil = _stencil(values, grid)
    terms = [*stencil, -stencil[5]]
    for r, faces in zip(ranges, _face_terms(ranges)):
        for face, low, at in zip((r.low, r.high), (True, False), faces):
            if at:
                terms[at:at + 4] = _robin_row(values, stencil, grid, face, low)
    return np.array(terms)


def _put_terms(ab: np.ndarray, terms: np.ndarray, grid: SpaceTimeGrid,
               ranges: Sequence[AxisRange]) -> None:
    """Write the ranges' step matrix into the zeroed (2*bw + 1, N) band ab,
    entry by entry as _step_terms orders them: terms[i] is entry i, its
    value or, for StackOperator's band map, its index.

    Each range's unknowns are ordered by _strides: axis neighbours sit at
    +-sa, cross neighbours at +-sc and corners at +-(sa + sc), +-(sa - sc).
    A later put overwrites an earlier one.
    """
    n, J = grid.domain.n, grid.nx_cross
    bw = _bandwidth(grid, ranges)
    cross = (1, J - 1) if n == 2 else (0, 1)  # cross nodes of the stencil rows
    stop = 0
    for r, faces in zip(ranges, _face_terms(ranges)):
        m = r.hi - r.lo + 1
        sa, sc = _strides(r, J)
        start, stop = stop, stop + m * J
        block = ab[:, start:stop]  # a view: the range's diagonal block

        def put(di, dj, rows_i, rows_j, term):
            """Set the entry of neighbour (di, dj) in the rows of the nodes
            rows_i x rows_j, given as (start, stop) pairs, to terms[term]."""
            entries = _node_view(block[bw - di * sa - dj * sc], m, J, sa, sc)
            entries[rows_i[0] + di:rows_i[1] + di, rows_j[0] + dj:rows_j[1] + dj] = terms[term]

        # Interior rows: the full stencil.  Every other row is a boundary
        # row and holds only the entries set for it below.
        inner = (1, m - 1)
        put(0, 0, inner, cross, 0)
        put(1, 0, inner, cross, 1)
        put(-1, 0, inner, cross, 2)
        if n == 2:
            for (di, dj), term in (((0, 1), 3), ((0, -1), 4), ((1, 1), 5), ((-1, -1), 5),
                                   ((1, -1), 6), ((-1, 1), 6)):
                put(di, dj, inner, cross, term)
            # Lateral faces: Dirichlet along the whole axis range, corners
            # included (lateral data wins at corners).
            put(0, 0, (0, m), (0, 1), 0)
            put(0, 0, (0, m), (J - 1, J), 0)

        for low, at in zip((True, False), faces):
            rows = (0, 1) if low else (m - 1, m)
            put(0, 0, rows, cross, at)
            if at:  # a Robin face
                put(1 if low else -1, 0, rows, cross, at + 1)
                if n == 2:
                    put(0, 1, rows, cross, at + 2)
                    put(0, -1, rows, cross, at + 3)


def assemble_step(values: Tuple[float, ...], grid: SpaceTimeGrid,
                  ranges: Sequence[AxisRange]) -> np.ndarray:
    """The step matrix of the axis ranges, placed block-diagonally in one
    band in scipy solve_banded layout, (2*bw + 1, N).

    `values` are the coefficient values at t_next, a row of
    _coefficient_table.  StackOperator builds the same band by its band map.
    """
    ab = np.zeros((2 * _bandwidth(grid, ranges) + 1,
                   sum(r.hi - r.lo + 1 for r in ranges) * grid.nx_cross))
    _put_terms(ab, _step_terms(values, grid, ranges), grid, ranges)
    return ab


class StackOperator:
    """The time steps of several axis node ranges, prepared once for many marches.

    Step k's matrix is the ranges' step-k matrices placed block-diagonally
    in one band, so one banded solve advances every range by one step.  Each
    range orders its unknowns by _strides, and `bandwidth` is the widest
    range's; _unstack gives node arrays, whatever the order.  A step's
    matrix depends on the coefficient values at t_k and the face rules
    only, never on the iterate or the data.  Building the operator prepares
    the data of every step at once: f on the whole (nt+1) x axis x cross
    grid in one call, sliced into the static right-hand side (nt+1, N),
    whose Dirichlet rows (the lateral faces in 2D and the Dirichlet axis
    faces) hold d_k g instead and take no u_prev; u0 from g at t=0 the same
    way; from one coefficient table (_coefficient_table) each step's key
    and every Robin face's data factors; and the band map, where each of a
    step's terms (_step_terms) lands in the band.  In 1D it also makes, from
    the distinct steps' terms at once and range by range, the row scales R
    and folds of the steps whose symmetric form qualifies
    (_prepare_symmetric).  A Robin face's data enter its rows as the data
    times the face's factor at step k from the ghost elimination (plus, in
    2D, the cross difference of the data times a second factor); traces()
    gathers every Robin face's data from an iterate, from the neighbouring
    range.  A 1D operator of fewer than 3 unknowns raises BadResolution.

    sweeps() is the one march loop.  One rule gives every step its
    factors: a step reuses the previous step's while its key repeats, else
    takes its key's kept factors, else is factored then (a symmetric step
    by ?pttrf from its form, any other assembled by one scatter through
    the band map), and kept if the kept bytes stay within
    FACTOR_CACHE_BYTES and sweeps() marches more than once in blocks of
    one.  Results do not depend on the cap.

    `block` is the most marches sweeps() takes time-outer at once, decided
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
        check_domain(problem, grid)
        if not self.ranges:
            raise DataMismatch("no axis ranges to march")
        for r in self.ranges:
            if not 0 <= r.lo <= r.hi < grid.nx_axis:
                raise NodeOutOfRange(f"axis range [{r.lo}, {r.hi}] is not within the "
                                     f"grid's axis nodes 0..{grid.nx_axis - 1}")
        self._strides = [_strides(r, J) for r in self.ranges]
        self.bandwidth = _bandwidth(grid, self.ranges)
        self.factorizations = 0
        self.nbytes = 0  # factors kept
        self._lus = {}   # coefficient values -> factors kept
        ends = np.cumsum([0] + [(r.hi - r.lo + 1) * J for r in self.ranges])
        self.slices = [slice(int(a), int(b)) for a, b in zip(ends[:-1], ends[1:])]
        self.size = int(ends[-1])
        if n == 1 and self.size < 3:  # scipy's ?gttrf rejects fewer, its ?pttrf fewer than 2
            raise BadResolution(f"a 1D march needs at least 3 unknowns, not {self.size}")
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
        axis = grid.axis_nodes()
        if n == 2:
            cross = grid.cross_nodes()
            for j in (0, -1):
                nodes[:, :, j] = diag[:, None] * problem.g(times[:, None], cross[j], axis)
        self._static = self._stack(nodes)  # (nt+1, N)
        self.u0 = self._stack(eval_nodes(problem.g, grid, times[:1])[0])
        # A Dirichlet axis face's rows (inner cross nodes in 2D) take d_k g,
        # as the lateral ones do; the Robin faces, in range order, low face
        # first, take data times their per-step factors.
        j0, j1 = (1, J - 1) if n == 2 else (0, 1)
        rows, factors, self._faces = [], [], []  # _faces: (range, low) per Robin face
        for l, (r, stack_rows, (sa, sc)) in enumerate(zip(self.ranges, self.slices,
                                                         self._strides)):
            for face, low in ((r.low, True), (r.high, False)):
                first = stack_rows.start + (0 if low else (r.hi - r.lo) * sa)
                at = np.arange(first + j0 * sc, first + j1 * sc, sc)
                if face.kind == "robin":
                    rows.append(at)
                    factors.append(_robin_data_coefficients(table, grid, face, low))
                    self._faces.append((l, low))
                    continue
                g = eval_plane(problem.g, grid, axis[r.lo if low else r.hi])
                if not np.isfinite(g).all():  # the whole plane, corners too
                    raise DataMismatch("trace values contain non-finite entries")
                self.takes_prev[at] = 0.0
                self._static[:, at] = diag[:, None] * g[:, j0:j1]
        self._rows = np.array(rows, dtype=np.intp).reshape(len(rows), j1 - j0)
        self._inner = slice(j0, j1)  # the rows' cross nodes
        self._data_factor, self._cross_factor = (  # (nt+1, faces, 1)
            np.reshape(factors, (len(rows), 2, grid.nt + 1, 1)).transpose(1, 2, 0, 3))
        N, bw = self.size, self.bandwidth
        # The band map: where each entry of _step_terms lands in _factor's
        # work array, by replaying _put_terms with the entries' indices (the
        # last put wins), in memory order.
        # (Built in int32, which halves the pass over the band; kept in intp,
        # which numpy indexes with no conversion.)
        terms = np.full((2 * bw + 1, N), -1, dtype=np.int32, order="F")
        _put_terms(terms, np.arange(7 + 4 * len(self._faces)), grid, self.ranges)
        terms = terms.ravel(order="F")
        at = np.flatnonzero(terms >= 0)  # = column * (2*bw + 1) + row
        self._band_at = at + (at // (2 * bw + 1) + 1) * bw
        self._band_term = terms[at].astype(np.intp)
        keys = list(dict.fromkeys(self._keys[1:]))  # the distinct steps
        self._ldl = {}  # key -> its row of _forms, for the steps solved by LDLᵀ
        # A banded step is counted at all of ?gbtrf's 3*bw + 1 rows, what
        # _factor keeps of a step that swapped rows; which steps swap is
        # known only once they are factored.
        step_bytes = 8 * (4 * N - 4 if bw == 1 else (3 * bw + 1) * N) + 4 * N
        if bw == 1:
            self._prepare_symmetric(keys)
            if len(self._ldl) == len(keys):
                step_bytes = 8 * (2 * N - 1)  # SymmetricLDL.nbytes
        distinct = len(keys)
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

    def _prepare_symmetric(self, keys: List[tuple]) -> None:
        """The symmetric forms S = R A of the distinct 1D steps `keys`, made
        at once from their terms, range by range, and kept for the steps
        that qualify, one row each (_ldl): _forms holds their terms (which
        _factor places in S by _maps), R and fold factors (which _scale
        applies by _folds).  The operator holds them whatever
        FACTOR_CACHE_BYTES, as it holds its other per-step data.

        A range's rows couple only to their neighbours in it.  A Dirichlet
        face row is bare, d_k u_j = rhs_j, and its neighbour's entry into it
        becomes a fold, rhs_i -= A[i, j] / d_k * rhs_j: the high faces'
        folds first, then the low faces', in range order.  The other rows of
        a range are one coupled run: R is 1 on its first row and
        R[i+1] = R[i] A[i, i+1] / A[i+1, i] along it (after a Robin low
        face, its inward entry over the stencil's down entry; inside, up
        over down; before a Robin high face, up over its inward entry), and
        1 on bare rows, so S is symmetric: diagonal R A[i, i], off-diagonal
        R[i] A[i, i+1] on the runs.  A step qualifies if every row is
        strictly diagonally dominant with a positive diagonal, which makes S
        positive definite and LDLᵀ without pivoting stable (Higham, Accuracy
        and Stability of Numerical Algorithms, ch. 9), R is normal and
        positive (the two entries of every coupled pair have one sign) and
        max R * max |A| is finite, so S is.

        No step qualifies if a range of two nodes has one Dirichlet face and
        one Robin face: its fold would reach the Robin face row, whose
        right-hand side sweeps() rewrites without it.
        """
        terms = _step_terms(np.array(keys).T, self.grid, self.ranges)
        terms = np.vstack((terms, np.zeros(len(keys)))).T  # (keys, terms + 1): -1 reads 0
        diag = np.zeros(self.size, dtype=np.intp)  # the terms of S's diagonal
        off = np.full(self.size - 1, -1, dtype=np.intp)  # of A[i, i+1] on the runs
        R = np.ones((len(keys), self.size))
        rows = set()  # (A[i, i], A[i, i+1], A[i, i-1]) of each kind of row
        folds = ([], [])  # (to, from, A[to, from]) of the high faces, of the low faces
        for (low, high), span in zip(_face_terms(self.ranges), self.slices):
            first, last = span.start, span.stop - 1
            if last - first == 1 and (low == 0) != (high == 0):
                return
            diag[first], diag[last] = low, high
            rows |= {(low, low + 1, -1) if low else (0, -1, -1),
                     (high, -1, high + 1) if high else (0, -1, -1)}
            if last - first > 1:
                rows.add((0, 1, 2))
                if not high:
                    folds[0].append((last - 1, last, 1))
                if not low:
                    folds[1].append((first + 1, first, 2))
            start, stop = first + (not low), last - (not high)  # the run
            if stop > start:  # its pairs' A[i, i+1] and A[i+1, i]: the stencil's up
                # and down, a Robin face's inward entry at either end
                up, down = np.ones(stop - start, dtype=np.intp), np.full(stop - start, 2)
                if low:
                    up[0] = low + 1
                if high:
                    down[-1] = high + 1
                off[start:stop] = up
                run = R[:, start:stop + 1]
                with np.errstate(all="ignore"):
                    run[:, 1:] = terms[:, up] / terms[:, down]
                    np.cumprod(run, axis=1, out=run)
        fold_to, fold_from, fold_at = np.array(folds[0] + folds[1], dtype=np.intp).reshape(-1, 3).T
        d, right, left = terms.T[np.array(list(rows)).T]  # (3, kinds, keys)
        with np.errstate(all="ignore"):
            ok = ((d > np.abs(right) + np.abs(left)).all(axis=0)
                  & (R.min(axis=1) >= np.finfo(float).tiny)
                  & np.isfinite(R.max(axis=1) * np.abs(terms).max(axis=1)))
            fold_by = terms[:, fold_at] / terms[:, :1]
        if not ok.any():
            return
        self._forms = [a if ok.all() else a[ok] for a in (terms, R, fold_by)]
        self._maps, self._folds = (diag, off), (fold_to, fold_from)
        self._ldl = {key: i for i, key in enumerate(itertools.compress(keys, ok))}
        self._form_at = np.array([-1] + [self._ldl.get(key, -1) for key in self._keys[1:]])

    def _factor(self, values: Tuple[float, ...],
                keep: bool) -> Union[BandedLU, TridiagonalLU, SymmetricLDL]:
        """Factor the step matrix of these coefficient values, its symmetric
        form S = R A if it has one, else assembled by the band map, and, if
        `keep`, keep the factors if they fit FACTOR_CACHE_BYTES."""
        i = self._ldl.get(values)
        if i is None:
            work = _band_work(self.bandwidth, self.size)
            work[self._band_at] = _step_terms(values, self.grid, self.ranges)[self._band_term]
            lu = _factor_band(work, self.bandwidth, self.size)
        else:
            (terms, scale, _), (diag, off) = self._forms, self._maps
            lu = _factor_band(None, 1, self.size, (scale[i] * terms[i].take(diag),
                                                   scale[i, :-1] * terms[i].take(off)))
        self.factorizations += 1
        if not keep:
            return lu
        # Kept band factors leave out ?gbtrf's fill rows when it swapped no
        # row, which the triangular solves never read: that saves the cap's
        # bytes, and kept factors, read again by every march, solve faster
        # in the narrower array.  Factors used for one step do not repay
        # the copy.
        trim = isinstance(lu, BandedLU) and lu.lower is not None
        if self.nbytes + lu.nbytes - trim * self.bandwidth * self.size * 8 <= FACTOR_CACHE_BYTES:
            lu = self._lus[values] = lu.trimmed() if trim else lu
            self.nbytes += lu.nbytes
        return lu

    def _face_values(self, data: np.ndarray, base: np.ndarray, data_factor: np.ndarray,
                     cross_factor: np.ndarray) -> np.ndarray:
        """base (..., faces, rows) plus the terms of the faces' data (...,
        faces, ncross), added in one order: the data times the face's
        factor, then, in 2D, their cross difference times the second factor
        (factors as in _data_factor and _cross_factor, sliced alike)."""
        out = base + data_factor * data[..., self._inner]
        if self.problem.domain.n == 2:
            out += cross_factor * (data[..., 2:] - data[..., :-2])
        return out

    def rhs(self, robin: np.ndarray) -> np.ndarray:
        """Every step's right-hand side for zero u_prev, (nt+1, N), whose
        row 0 is not used, for the Robin data `robin` (see sweeps())."""
        out = self._static.copy()
        out[:, self._rows] = self._face_values(robin, out[:, self._rows], self._data_factor,
                                               self._cross_factor)
        return out

    @functools.cached_property
    def _trace_map(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """What traces() reads: the columns of each Robin face's source node,
        node + 1 and node - 1, (faces, ncross, 3); each face's sign and p,
        (faces, 1); and 2h.  Range l's low (high) Robin face takes the data
        of range l - 1 (l + 1) at node lo (hi), which must be strictly
        inside it."""
        cols = self._unstack(np.arange(self.size))
        sources = np.zeros((len(self._faces), self.grid.nx_cross, 3), dtype=np.intp)
        sign, p = np.zeros((2, len(self._faces), 1))
        for q, (l, low) in enumerate(self._faces):
            r, src = self.ranges[l], l - 1 if low else l + 1
            node, rule = (r.lo, r.low) if low else (r.hi, r.high)
            if not (0 <= src < len(self.ranges)
                    and self.ranges[src].lo < node < self.ranges[src].hi):
                raise NodeOutOfRange(f"node {node} is not strictly interior to subdomain {src}")
            li = node - self.ranges[src].lo
            sources[q] = cols[src][[li, li + 1, li - 1]].T
            sign[q], p[q] = rule.sign, rule.p
        return sources, sign, p, 2.0 * self.grid.hx_axis

    def traces(self, u: np.ndarray) -> np.ndarray:
        """The Robin data a stacked iterate (..., N), of all steps or of
        one, gives the Robin faces, (..., faces, ncross), as sweeps() takes
        them: sign * D_h u + p u at each face's source node (_trace_map), as
        extract_robin_trace computes it."""
        cols, sign, p, two_h = self._trace_map
        g = u[..., cols]
        return sign * ((g[..., 1] - g[..., 2]) / two_h) + p * g[..., 0]

    def _scale(self, b: np.ndarray) -> np.ndarray:
        """Fold and scale in place the right-hand sides b (nt+1, N) of the
        steps solved by LDLᵀ, as their symmetric forms S = R A need
        (_prepare_symmetric); returns each step's R, 1 on the other steps."""
        at = self._form_at
        steps = np.flatnonzero(at >= 0)
        _, scale, fold_by = self._forms
        for f, (i, j) in enumerate(zip(*self._folds)):
            b[steps, i] -= fold_by[at[steps], f] * b[steps, j]
        R = np.ones_like(b)
        R[steps] = scale[at[steps]]
        b *= R
        return R

    def sweeps(self, robin: np.ndarray, count: int = 1,
               traces: Optional[Callable[[np.ndarray], Optional[np.ndarray]]] = None,
               ) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
        """The stacked iterates u_j (nt+1, N) of `count` marches, in order,
        each with its Robin traces traces(u_j); `traces` defaults to
        self.traces.

        Callers pass Robin data only: every Dirichlet face carries g, which
        the operator evaluated when built.  March 0 takes `robin`, the
        Robin faces' data (nt+1, faces, ncross), in range order, low face
        first, checked here; march j + 1 takes traces(u_j), in the same
        layout (traces() gathers them from an iterate).  The marches go
        time-outer in the fewest blocks of at most `block`, as even as they
        can be, each block's iterates made when its first is asked for:
        each step takes its factors, then march j = 0, 1, ... of the block
        advances by one solve in place in its iterate: u_prev / dt times
        the step's u_prev weight, plus its right-hand side, solved.  For the
        symmetric 1D steps the weights, the right-hand sides and the terms
        of later Robin rows are folded and scaled once (_scale), and a solve
        is one ?pttrs.  Each march's traces are gathered once: step by
        step, right after the solve, for the next march of its block; at
        once, after the block, for its last.  A step's factors are kept
        (under the cap) only in blocks of one, when count > 1.  A block's
        iterates are views of one array, whose memory lives while any of
        them does; the generator holds no iterate it has yielded.
        """
        shape = (self.grid.nt + 1, len(self._faces), self.grid.nx_cross)
        if robin.shape != shape:
            raise DataMismatch(f"trace shape {robin.shape} != {shape}")
        if not np.isfinite(robin).all():
            raise DataMismatch("trace values contain non-finite entries")
        return self._marches(robin, count, traces or self.traces)

    def _marches(self, robin: np.ndarray, count: int,
                 traces: Callable[[np.ndarray], Optional[np.ndarray]],
                 ) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
        """sweeps()'s generator, on checked data."""
        b = self.rhs(robin)  # march 0's; a later march rewrites the Robin rows
        rows = self._rows
        robin_terms = (self._static[:, rows], self._data_factor, self._cross_factor)
        take = np.broadcast_to(self.takes_prev, b.shape)  # each step's u_prev weight
        if self._ldl:
            take = self._scale(b)
            base, data_factor, cross_factor = robin_terms
            robin_terms = (base * take[:, rows], data_factor * take[:, rows], cross_factor)
            take *= self.takes_prev
        dt, keys, lu = self.grid.dt, self._keys, None
        keep = self.block == 1 and count > 1
        blocks = -(-count // self.block)
        for i in range(blocks):
            # One allocation for the block, not one per iterate: about 5 ms
            # of a ~64 ms tvar2d-wide run().
            us = list(np.empty((count // blocks + (i < count % blocks),) + b.shape))
            for u in us:
                u[0] = self.u0
            # The traces of the block's marches but its last.
            last = len(us) - 1
            ts = np.empty((last, len(b), len(rows), self.grid.nx_cross))
            if last:
                ts[:, 0] = traces(self.u0)
            for k in range(1, self.grid.nt + 1):
                if keys[k] != keys[k - 1]:
                    lu = None  # the previous step's factors go before new ones are made
                    lu = self._lus.get(keys[k]) or self._factor(keys[k], keep)
                if last:
                    step_terms = [terms[k] for terms in robin_terms]
                for j, u in enumerate(us):
                    if j:
                        b[k, rows] = self._face_values(ts[j - 1, k], *step_terms)
                    step = np.divide(u[k - 1], dt, out=u[k])
                    step *= take[k]
                    step += b[k]
                    lu.solve(step)
                    if j < last:
                        ts[j, k] = traces(step)
            ts = [*ts, traces(us[-1])]
            if i + 1 < blocks:  # the Robin data of the next block's first march
                b[:, rows] = self._face_values(ts[-1], *robin_terms)
            del u, step  # views of the last iterate: yielded, it is the caller's
            while us:
                yield us.pop(0), ts.pop(0)


def check_domain(problem: ParabolicProblem, grid: SpaceTimeGrid) -> None:
    """Raise DataMismatch unless the grid was built on the problem's domain."""
    if problem.domain != grid.domain:
        raise DataMismatch(f"the problem's domain {problem.domain} is not "
                           f"the grid's {grid.domain}")


def march(problem: ParabolicProblem, grid: SpaceTimeGrid, ranges: Sequence[AxisRange],
          robin: np.ndarray) -> List[np.ndarray]:
    """Backward-Euler march of axis node ranges side by side, on a
    StackOperator built for this march; returns one (nt+1, m, ncross) array
    per range.

    robin holds the Robin faces' data, as StackOperator.sweeps() takes
    them; Dirichlet faces, lateral ones (n=2) included, carry g.
    """
    operator = StackOperator(problem, grid, ranges)
    # It gathers no traces: the ranges need not chain.
    return operator._unstack(next(operator.sweeps(robin, 1, lambda u: None))[0])
