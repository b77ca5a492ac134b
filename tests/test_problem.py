"""Coefficient sets, well-posedness checks and manufactured solutions."""

import numpy as np
import pytest

from oswr import (CoefficientSet, DomainSpec, ManufacturedSolution,
                  check_assumptions, manufactured_forcing, problem_from_table,
                  problem_preset, standard_exact)
from oswr.errors import (AsymmetricCoefficients, MissingDerivative,
                         NonElliptic)
from oswr.problem import PRESET_NAMES

TIMES = [0.0, 0.25, 0.5, 0.75, 1.0]


class TestCheckAssumptions:
    def test_constant_identity_diffusion(self):
        coeffs = CoefficientSet.build(1.0, 0.0, 0.0)
        rep = check_assumptions(coeffs, TIMES)
        assert rep.nu0 == pytest.approx(1.0)
        assert rep.symmetric

    def test_diagonal_2d(self):
        coeffs = CoefficientSet.build([[2.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0)
        rep = check_assumptions(coeffs, TIMES)
        assert rep.nu0 == pytest.approx(1.0)

    def test_symmetric_offdiagonal_2d(self):
        # Eigenvalues of [[1+t, 0.5], [0.5, 1+t]] are (1+t) +/- 0.5; the
        # smallest over t in {0, 0.5, 1} is 0.5 at t=0.
        coeffs = CoefficientSet.build(
            [[lambda t: 1.0 + t, 0.5], [0.5, lambda t: 1.0 + t]],
            [0.0, 0.0], 0.0)
        rep = check_assumptions(coeffs, [0.0, 0.5, 1.0])
        assert rep.nu0 == pytest.approx(0.5)

    def test_non_elliptic_raises(self):
        coeffs = CoefficientSet.build(-1.0, 0.0, 0.0)
        with pytest.raises(NonElliptic):
            check_assumptions(coeffs, TIMES)

    def test_asymmetric_raises(self):
        coeffs = CoefficientSet.build([[1.0, 0.3], [0.2, 1.0]], [0.0, 0.0], 0.0)
        with pytest.raises(AsymmetricCoefficients):
            check_assumptions(coeffs, TIMES)

    def test_permutation_invariance(self):
        coeffs = CoefficientSet.build(lambda t: 1.0 + t, 0.0, 0.0)
        fwd = check_assumptions(coeffs, TIMES)
        rev = check_assumptions(coeffs, TIMES[::-1])
        assert fwd == rev


class TestManufacturedForcing:
    def test_zero_solution(self):
        zero = lambda t, x: np.zeros(np.broadcast(t, x).shape)
        exact = ManufacturedSolution(n=1, u=zero, u_t=zero, u_x=(zero,),
                                     u_xx={(0, 0): zero})
        coeffs = CoefficientSet.build(1.0, 1.0, 1.0)
        f = manufactured_forcing(exact, coeffs)
        assert np.allclose(f(0.3, np.linspace(0, 1, 7)), 0.0)

    def test_heat_kernel_mode(self):
        # u = e^{-t} sin x satisfies u_t - u_xx = 0 exactly.
        exact = ManufacturedSolution(
            n=1,
            u=lambda t, x: np.exp(-t) * np.sin(x),
            u_t=lambda t, x: -np.exp(-t) * np.sin(x),
            u_x=(lambda t, x: np.exp(-t) * np.cos(x),),
            u_xx={(0, 0): lambda t, x: -np.exp(-t) * np.sin(x)})
        f = manufactured_forcing(exact, CoefficientSet.build(1.0, 0.0, 0.0))
        x = np.linspace(0, np.pi, 11)
        assert np.max(np.abs(f(0.7, x))) < 1e-14

    def test_polynomial_by_hand(self):
        # u = t*x with a=1, b=1, c=1 gives f = x + t + t*x term by term.
        exact = ManufacturedSolution(
            n=1,
            u=lambda t, x: t * x,
            u_t=lambda t, x: x * np.ones_like(t * x),
            u_x=(lambda t, x: t * np.ones_like(t * x),),
            u_xx={(0, 0): lambda t, x: np.zeros(np.broadcast(t, x).shape)})
        f = manufactured_forcing(exact, CoefficientSet.build(1.0, 1.0, 1.0))
        t, x = 0.4, np.array([0.0, 0.5, 1.0])
        assert np.allclose(f(t, x), x + t + t * x)

    def test_missing_derivative(self):
        exact = ManufacturedSolution(
            n=1, u=lambda t, x: t * x, u_t=lambda t, x: x,
            u_x=(lambda t, x: t,), u_xx={})
        with pytest.raises(MissingDerivative):
            manufactured_forcing(exact, CoefficientSet.build(1.0, 0.0, 0.0))


def _numeric_check_derivatives(exact, domain, rng, npts=100, tol=2e-5):
    """Hand-coded derivative callables must match central differences."""
    d = 1e-5
    t = rng.uniform(0.1, domain.T - 0.1, npts)
    xn = rng.uniform(domain.alpha + 0.1, domain.beta - 0.1, npts)
    if domain.n == 1:
        args = (t, xn)
        du_dt = (exact.u(t + d, xn) - exact.u(t - d, xn)) / (2 * d)
        du_dx = (exact.u(t, xn + d) - exact.u(t, xn - d)) / (2 * d)
        d2u = (exact.u(t, xn + d) - 2 * exact.u(t, xn) + exact.u(t, xn - d)) / d ** 2
        assert np.max(np.abs(exact.u_t(*args) - du_dt)) < tol
        assert np.max(np.abs(exact.u_x[0](*args) - du_dx)) < tol
        assert np.max(np.abs(exact.u_xx[(0, 0)](*args) - d2u)) < 1e-3
    else:
        lo, hi = domain.cross
        X = rng.uniform(lo + 0.1, hi - 0.1, npts)
        args = (t, X, xn)
        du_dt = (exact.u(t + d, X, xn) - exact.u(t - d, X, xn)) / (2 * d)
        du_dX = (exact.u(t, X + d, xn) - exact.u(t, X - d, xn)) / (2 * d)
        du_dn = (exact.u(t, X, xn + d) - exact.u(t, X, xn - d)) / (2 * d)
        mixed = (exact.u(t, X + d, xn + d) - exact.u(t, X + d, xn - d)
                 - exact.u(t, X - d, xn + d) + exact.u(t, X - d, xn - d)) / (4 * d * d)
        assert np.max(np.abs(exact.u_t(*args) - du_dt)) < tol
        assert np.max(np.abs(exact.u_x[0](*args) - du_dX)) < tol
        assert np.max(np.abs(exact.u_x[1](*args) - du_dn)) < tol
        assert np.max(np.abs(exact.u_xx[(0, 1)](*args) - mixed)) < 1e-3


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_residual_at_random_points(name):
    """The derivative callables behind every preset match the solution."""
    prob = problem_preset(name)
    rng = np.random.default_rng(0)
    _numeric_check_derivatives(prob.exact, prob.domain, rng)


def test_standard_exact_vanishes_on_axis_ends():
    domain = DomainSpec(n=1, alpha=-1.0, beta=3.0, T=2.0)
    exact = standard_exact(domain)
    t = np.linspace(0, 2, 5)
    assert np.allclose(exact.u(t, -1.0), 0.0, atol=1e-14)
    assert np.allclose(exact.u(t, 3.0), 0.0, atol=1e-15 * 10)


class TestCoefficientTable:
    def test_roundtrip_1d(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("t,a11,b1,c\n0.0,1.0,0.0,0.5\n1.0,2.0,1.0,0.5\n")
        coeffs = CoefficientSet.from_table(str(path))
        assert coeffs.n == 1
        assert coeffs.a[0][0](0.5) == pytest.approx(1.5)  # linear interpolation
        assert coeffs.b[0](1.0) == pytest.approx(1.0)
        assert coeffs.c(0.25) == pytest.approx(0.5)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("t,a11,c\n0.0,1.0,0.5\n")
        with pytest.raises(ValueError):
            CoefficientSet.from_table(str(path))

    @pytest.mark.parametrize("cell", ["abc", "", "nan", "inf", "np.float64(0.0)"])
    @pytest.mark.parametrize("preset,table,row,col", [
        ("heat1d", "t,a11,b1,c\n0,1,0.5,1\n0.5,1,{},1\n1,2,0.5,1\n", 2, "b1"),
        ("heat2d", "t,a11,a12,a22,b1,b2,c\n0,1,{},1,0,0.5,1\n1,2,0.2,1,0,0.5,1\n", 1, "a12")])
    def test_cell_not_a_number(self, tmp_path, cell, preset, table, row, col):
        # Such a cell used to be read as nan (or inf) and sampled as such.
        path = tmp_path / "coeffs.csv"
        path.write_text(table.format(cell))
        message = f"^coefficient table data row {row}, column {col}: not a finite number$"
        with pytest.raises(ValueError, match=message):
            CoefficientSet.from_table(str(path))
        with pytest.raises(ValueError, match=message):
            problem_from_table(str(path), problem_preset(preset).domain)


class TestDomainSpec:
    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            DomainSpec(n=1, alpha=1.0, beta=0.0, T=1.0)

    def test_rejects_cross_for_1d(self):
        with pytest.raises(ValueError):
            DomainSpec(n=1, alpha=0.0, beta=1.0, T=1.0, cross=(0.0, 1.0))

    def test_requires_cross_for_2d(self):
        with pytest.raises(ValueError):
            DomainSpec(n=2, alpha=0.0, beta=1.0, T=1.0)
