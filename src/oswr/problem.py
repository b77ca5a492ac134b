"""Continuous parabolic problem: coefficients, data, manufactured solutions.

The equation solved throughout the package is

    du/dt - sum_ij a_ij(t) d2u/dx_i dx_j + sum_i b_i(t) du/dx_i + c(t) u = f(t, x)

on a box Omega = D x (alpha, beta) with Dirichlet data g on the lateral
boundary and g(., 0) as initial value.  Coefficients depend on t only; the
decomposed coordinate is always the last one (x for n=1, the second
coordinate for n=2).

Space-time callables use the convention
    n=1:  fn(t, x)
    n=2:  fn(t, X, xn)   with X the cross coordinate
and must broadcast over numpy arrays.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import AsymmetricCoefficients, MissingDerivative, NonElliptic

TimeFn = Callable[..., np.ndarray]
SpaceTimeFn = Callable[..., np.ndarray]

SYMMETRY_TOL = 1e-12


def constant_fn(value: float) -> TimeFn:
    v = float(value)

    def fn(t):
        return v * np.ones_like(np.asarray(t, dtype=float))

    return fn


def _as_time_fn(value) -> TimeFn:
    return value if callable(value) else constant_fn(value)


@dataclass(frozen=True)
class DomainSpec:
    """Box domain D x (alpha, beta) and time horizon T.

    For n=1 the domain is just the interval (alpha, beta); for n=2 the
    cross section D is the interval `cross`.
    """

    n: int
    alpha: float
    beta: float
    T: float
    cross: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("spatial dimension must be 1 or 2")
        if not self.alpha < self.beta:
            raise ValueError("alpha < beta required")
        if not math.isfinite(self.beta - self.alpha):  # and so alpha and beta
            raise ValueError("alpha, beta and beta - alpha must be finite")
        if not 0 < self.T < math.inf:
            raise ValueError("T must be positive and finite")
        if self.n == 2:
            if self.cross is None or not self.cross[0] < self.cross[1]:
                raise ValueError("n=2 requires cross-section lower < upper")
            if not math.isfinite(self.cross[1] - self.cross[0]):
                raise ValueError("cross-section bounds and length must be finite")
        elif self.cross is not None:
            raise ValueError("cross section only meaningful for n=2")

    @property
    def axis_length(self) -> float:
        return self.beta - self.alpha


@dataclass(frozen=True)
class CoefficientSet:
    """Time-dependent coefficients a_ij(t), b_i(t), c(t).

    `a` is an n x n tuple-of-tuples of callables of t, `b` a tuple of n.
    Every callable takes an array of times and returns an array of that
    shape or a scalar; :meth:`sample` evaluates them all at once.  Symmetry
    and uniform ellipticity are checked by :func:`check_assumptions`, not
    at construction.
    """

    n: int
    a: Tuple[Tuple[TimeFn, ...], ...]
    b: Tuple[TimeFn, ...]
    c: TimeFn

    @classmethod
    def build(cls, a, b, c) -> "CoefficientSet":
        """Assemble from scalars/callables.

        For n=1 pass scalars or callables directly; for n=2 pass `a` as a
        2x2 nested sequence and `b` as a length-2 sequence.
        """
        if np.ndim(a) == 2 or (isinstance(a, (list, tuple)) and isinstance(a[0], (list, tuple))):
            amat = tuple(tuple(_as_time_fn(v) for v in row) for row in a)
            n = len(amat)
            bvec = tuple(_as_time_fn(v) for v in b)
        else:
            n = 1
            amat = ((_as_time_fn(a),),)
            bvec = (_as_time_fn(b),)
        if len(bvec) != n or any(len(row) != n for row in amat):
            raise ValueError("coefficient shapes inconsistent with dimension")
        return cls(n=n, a=amat, b=bvec, c=_as_time_fn(c))

    @classmethod
    def from_table(cls, source) -> "CoefficientSet":
        """Load tabulated coefficients from CSV with header t,a11,...,b1,...,c.

        Samples are linearly interpolated in t (constant extrapolation at
        the ends, matching numpy.interp), so t must be finite and strictly
        increasing.  An empty file, a table without rows, rows of unequal
        length and a coefficient cell that is not a finite number (text,
        empty, nan or inf) raise a one-line ValueError.
        """
        with warnings.catch_warnings():
            # numpy warns on an empty file, then fails on its missing header.
            warnings.filterwarnings("error", "genfromtxt: Empty input file", UserWarning)
            try:
                data = np.genfromtxt(source, delimiter=",", names=True)
            except UserWarning:
                raise ValueError("coefficient table is empty") from None
            except ValueError as exc:  # one "Line #i (got m columns ...)" per bad row
                detail = "; ".join(s.strip() for s in str(exc).splitlines()[1:])
                raise ValueError(f"malformed coefficient table: {detail or exc}") from None
        cols = list(data.dtype.names)
        if cols[0] != "t" or cols[-1] != "c":
            raise ValueError("coefficient table header must start with t and end with c")
        t = np.atleast_1d(data["t"])
        if t.size == 0:
            raise ValueError("coefficient table has no rows")
        if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
            raise ValueError("coefficient table t column must be finite and strictly increasing")
        if cols[1:4] == ["a11", "a12", "a22"]:
            n = 2
        elif cols[1] == "a11":
            n = 1
        else:
            raise ValueError("coefficient table missing a11 column")

        def interp_fn(colname):
            y = np.atleast_1d(data[colname])

            def fn(tt, _t=t, _y=y):
                return np.interp(np.asarray(tt, dtype=float), _t, _y)

            return fn

        if n == 1:
            expected = ["t", "a11", "b1", "c"]
            if cols != expected:
                raise ValueError(f"1D coefficient table header must be {','.join(expected)}")
            amat = ((interp_fn("a11"),),)
            bvec = (interp_fn("b1"),)
        else:
            expected = ["t", "a11", "a12", "a22", "b1", "b2", "c"]
            if cols != expected:
                raise ValueError(f"2D coefficient table header must be {','.join(expected)}")
            a12 = interp_fn("a12")
            amat = ((interp_fn("a11"), a12), (a12, interp_fn("a22")))
            bvec = (interp_fn("b1"), interp_fn("b2"))
        cells = np.stack([np.atleast_1d(data[name]) for name in cols[1:]], axis=1)
        if not np.isfinite(cells).all():
            row, col = np.argwhere(~np.isfinite(cells))[0]
            raise ValueError(f"coefficient table data row {row + 1}, column {cols[col + 1]}: "
                             "not a finite number")
        return cls(n=n, a=amat, b=bvec, c=interp_fn("c"))

    def sample(self, times) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coefficient values at these times: a (T, n, n), b (T, n) and
        c (T,), one call per callable on the whole time array (a scalar
        result is broadcast)."""
        t = np.asarray(times, dtype=float)

        def at(fn):
            return np.broadcast_to(np.asarray(fn(t), dtype=float), t.shape)

        a = np.stack([np.stack([at(fn) for fn in row], axis=-1) for row in self.a], axis=-2)
        return a, np.stack([at(fn) for fn in self.b], axis=-1), at(self.c)


@dataclass(frozen=True)
class EllipticityReport:
    nu0: float
    symmetric: bool
    max_asymmetry: float


def check_assumptions(coeffs: CoefficientSet, times: Sequence[float]) -> EllipticityReport:
    """Sample the coefficients and estimate ellipticity/symmetry.

    nu0 is the minimum over sampled t of the smallest eigenvalue of the
    diffusion matrix.  A non-finite sample raises ValueError naming the
    first such t in the order given; violations raise NonElliptic /
    AsymmetricCoefficients.
    """
    times = list(times)
    if not times:
        raise ValueError("times must be nonempty")
    A, b, c = coeffs.sample(times)
    bad_a = ~np.isfinite(A).all(axis=(1, 2))
    bad = bad_a | ~(np.isfinite(b).all(axis=1) & np.isfinite(c))
    if bad.any():
        i = int(np.argmax(bad))
        which = "diffusion sample" if bad_a[i] else "lower-order coefficient"
        raise ValueError(f"non-finite {which} at t={times[i]}")
    AT = A.transpose(0, 2, 1)
    max_asym = float(np.max(np.abs(A - AT)))
    # The symmetric part, halved first so that A + A.T cannot overflow.
    nu0 = float(np.min(np.linalg.eigvalsh(0.5 * A + 0.5 * AT)[:, 0]))
    symmetric = max_asym <= SYMMETRY_TOL
    if not symmetric:
        raise AsymmetricCoefficients(
            f"max |a(i,j)-a(j,i)| = {max_asym:g} exceeds {SYMMETRY_TOL:g}")
    if not nu0 > 0:
        raise NonElliptic(f"smallest diffusion eigenvalue estimate {nu0:g} <= 0")
    return EllipticityReport(nu0=nu0, symmetric=symmetric, max_asymmetry=max_asym)


@dataclass(frozen=True)
class ManufacturedSolution:
    """A chosen exact solution with hand-supplied derivatives.

    u_x has one callable per spatial coordinate; u_xx maps (i, j) with
    i <= j (0-based) to the mixed second derivative.
    """

    n: int
    u: SpaceTimeFn
    u_t: SpaceTimeFn
    u_x: Tuple[SpaceTimeFn, ...]
    u_xx: Mapping[Tuple[int, int], SpaceTimeFn]

    def required_keys(self):
        return [(i, j) for i in range(self.n) for j in range(i, self.n)]


def manufactured_forcing(exact: ManufacturedSolution, coeffs: CoefficientSet) -> SpaceTimeFn:
    """Forcing that makes `exact.u` solve the equation with these coefficients."""
    n = exact.n
    if coeffs.n != n:
        raise ValueError("dimension mismatch between solution and coefficients")
    if exact.u_t is None:
        raise MissingDerivative("time derivative callable is absent")
    if len(exact.u_x) != n or any(d is None for d in exact.u_x):
        raise MissingDerivative("first space derivative callable is absent")
    for key in exact.required_keys():
        if exact.u_xx.get(key) is None:
            raise MissingDerivative(f"second derivative callable {key} is absent")

    def f(t, *x):
        val = np.asarray(exact.u_t(t, *x), dtype=float).copy()
        for i in range(n):
            for j in range(n):
                key = (min(i, j), max(i, j))
                val = val - coeffs.a[i][j](t) * exact.u_xx[key](t, *x)
            val = val + coeffs.b[i](t) * exact.u_x[i](t, *x)
        return val + coeffs.c(t) * exact.u(t, *x)

    return f


@dataclass(frozen=True)
class ParabolicProblem:
    """Full continuous problem: domain, coefficients, forcing and data."""

    domain: DomainSpec
    coeffs: CoefficientSet
    f: SpaceTimeFn
    g: SpaceTimeFn
    exact: Optional[ManufacturedSolution] = None

    def __post_init__(self):
        if self.domain.n != self.coeffs.n:
            raise ValueError("domain and coefficient dimensions differ")


def standard_exact(domain: DomainSpec) -> ManufacturedSolution:
    """exp(-t) sin(pi xhat) (times sin(pi Xhat) for n=2), scaled to the box."""
    al, w = domain.alpha, np.pi / domain.axis_length
    if domain.n == 1:
        u = lambda t, x: np.exp(-t) * np.sin(w * (x - al))
        return ManufacturedSolution(
            n=1,
            u=u,
            u_t=lambda t, x: -np.exp(-t) * np.sin(w * (x - al)),
            u_x=(lambda t, x: w * np.exp(-t) * np.cos(w * (x - al)),),
            u_xx={(0, 0): lambda t, x: -(w ** 2) * np.exp(-t) * np.sin(w * (x - al))},
        )
    c_lo, c_hi = domain.cross
    wc = np.pi / (c_hi - c_lo)
    sx = lambda X: np.sin(wc * (X - c_lo))
    cx = lambda X: np.cos(wc * (X - c_lo))
    sn = lambda xn: np.sin(w * (xn - al))
    cn = lambda xn: np.cos(w * (xn - al))
    u = lambda t, X, xn: np.exp(-t) * sx(X) * sn(xn)
    return ManufacturedSolution(
        n=2,
        u=u,
        u_t=lambda t, X, xn: -np.exp(-t) * sx(X) * sn(xn),
        u_x=(
            lambda t, X, xn: wc * np.exp(-t) * cx(X) * sn(xn),
            lambda t, X, xn: w * np.exp(-t) * sx(X) * cn(xn),
        ),
        u_xx={
            (0, 0): lambda t, X, xn: -(wc ** 2) * np.exp(-t) * sx(X) * sn(xn),
            (0, 1): lambda t, X, xn: wc * w * np.exp(-t) * cx(X) * cn(xn),
            (1, 1): lambda t, X, xn: -(w ** 2) * np.exp(-t) * sx(X) * sn(xn),
        },
    )


def _preset_coeffs(name: str) -> CoefficientSet:
    if name == "heat1d":
        return CoefficientSet.build(1.0, 0.0, 0.0)
    if name == "affine1d":
        return CoefficientSet.build(lambda t: 1.0 + t, 0.0, 0.0)
    if name == "sin1d":
        return CoefficientSet.build(lambda t: 2.0 + np.sin(t), lambda t: np.cos(t), 0.5)
    if name == "tvar1d":
        return CoefficientSet.build(lambda t: 1.0 + 0.5 * t, lambda t: np.sin(t), 1.0)
    if name == "heat2d":
        return CoefficientSet.build([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0)
    if name == "tvar2d":
        return CoefficientSet.build(
            [[lambda t: 1.0 + 0.5 * t, 0.25], [0.25, 1.0]],
            [lambda t: np.sin(t), lambda t: np.cos(t)],
            1.0,
        )
    raise KeyError(f"unknown coefficient preset '{name}'")


PRESET_NAMES = ("heat1d", "affine1d", "sin1d", "tvar1d", "heat2d", "tvar2d")


def problem_preset(name: str, alpha: float = 0.0, beta: float = 1.0, T: float = 1.0,
                   cross: Optional[Tuple[float, float]] = None) -> ParabolicProblem:
    """Named problem: preset coefficients plus a standard exact solution.

    The forcing is derived so the exact solution solves the equation; g is
    the exact solution itself (hence automatically compatible at corners).
    """
    coeffs = _preset_coeffs(name)
    if coeffs.n == 2 and cross is None:
        cross = (0.0, 1.0)
    domain = DomainSpec(n=coeffs.n, alpha=alpha, beta=beta, T=T, cross=cross)
    exact = standard_exact(domain)
    f = manufactured_forcing(exact, coeffs)
    return ParabolicProblem(domain=domain, coeffs=coeffs, f=f, g=exact.u, exact=exact)


def problem_from_table(source, domain: DomainSpec) -> ParabolicProblem:
    """Problem with tabulated coefficients and the standard manufactured data."""
    coeffs = CoefficientSet.from_table(source)
    if coeffs.n != domain.n:
        raise ValueError("table dimension does not match domain")
    exact = standard_exact(domain)
    f = manufactured_forcing(exact, coeffs)
    return ParabolicProblem(domain=domain, coeffs=coeffs, f=f, g=exact.u, exact=exact)
