"""Error functionals, contraction analysis and history serialization."""

import io
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oswr import (DecompositionSpec, GlobalSolution, RobinParameter, SWRConfig,
                  SubdomainSolution, WeightSpec, build_grid, compute_E,
                  compute_error_fields, contraction_report, default_gamma,
                  phi_boundary_check, pointwise_error_trend, problem_preset, run,
                  snap, solve_global)
from oswr.diagnostics import (HISTORY_HEADER, ErrorFields, IterationHistory,
                              IterationRecord, axis_derivative)
from oswr.errors import ShapeMismatch, TooShort


@pytest.fixture
def grid():
    return build_grid(problem_preset("heat1d").domain, 21, 5)


def _sol(values, i_left=0, index=0):
    return SubdomainSolution(index=index, i_left=i_left,
                             values=np.asarray(values, dtype=float))


class TestAxisDerivative:
    def test_exact_on_quadratics(self):
        # Centered and one-sided second-order stencils are exact on x^2.
        x = np.linspace(0.0, 1.0, 11)
        arr = (x ** 2)[None, :, None] * np.ones((3, 1, 1))
        d = axis_derivative(arr, x[1] - x[0])
        assert np.allclose(d[:, :, 0], 2.0 * x[None, :], atol=1e-13)


class TestComputeErrorFields:
    def test_zero_when_sol_equals_oracle(self, grid):
        prob = problem_preset("heat1d")
        from oswr import solve_global
        oracle = solve_global(prob, grid)
        sol = _sol(oracle.values[:, 3:15, :], i_left=3)
        f = compute_error_fields(sol, oracle, RobinParameter(1.0),
                                 WeightSpec(gamma=5.0), grid)
        for arr in (f.e, f.eps, f.nu, f.phi):
            assert np.max(np.abs(arr)) == 0.0

    def test_exponential_error_flattens(self, grid):
        # e = exp(-p x_n) makes eps identically one, so nu vanishes to
        # truncation level.
        p = RobinParameter(2.0)
        axis = grid.axis_nodes()
        vals = np.exp(-p.p * axis)[None, :, None] * np.ones((grid.nt + 1, 1, 1))
        oracle = GlobalSolution(values=np.zeros_like(vals))
        f = compute_error_fields(_sol(vals), oracle, p, WeightSpec(gamma=1.0),
                                 grid)
        assert np.allclose(f.eps, 1.0, atol=1e-12)
        assert np.max(np.abs(f.nu)) <= grid.hx_axis ** 2

    def test_linear_error_unit_derivative(self, grid):
        # e = x_n with p=0: nu == 1 exactly and Phi = exp(-x_n) varphi(t).
        axis = grid.axis_nodes()
        vals = axis[None, :, None] * np.ones((grid.nt + 1, 1, 1))
        oracle = GlobalSolution(values=np.zeros_like(vals))
        p0 = types.SimpleNamespace(p=0.0)  # p > 0 invariant bypassed on purpose
        f = compute_error_fields(_sol(vals), oracle, p0, WeightSpec(gamma=1.0),
                                 grid)
        assert np.allclose(f.nu, 1.0, atol=1e-12)
        assert np.allclose(f.phi[:, :, 0], np.exp(-axis)[None, :], atol=1e-12)

    def test_shape_mismatch(self, grid):
        oracle = GlobalSolution(values=np.zeros((grid.nt + 1, 21, 1)))
        sol = _sol(np.zeros((grid.nt + 1, 10, 1)), i_left=15)
        with pytest.raises(ShapeMismatch):
            compute_error_fields(sol, oracle, RobinParameter(1.0),
                                 WeightSpec(gamma=1.0), grid)


class TestComputeE:
    def _fields(self, nu, grid):
        z = np.zeros_like(nu)
        return ErrorFields(subdomain=0, e=z, eps=z, nu=nu, phi=z)

    def test_zero_fields(self, grid):
        shape = (grid.nt + 1, 8, 1)
        assert compute_E([self._fields(np.zeros(shape), grid)], grid) == 0.0

    def test_constant_nu_squares(self, grid):
        shape = (grid.nt + 1, 8, 1)
        f = self._fields(np.full(shape, 2.0), grid)
        assert compute_E([f], grid) == pytest.approx(4.0)

    def test_max_over_subdomains(self, grid):
        shape = (grid.nt + 1, 8, 1)
        fs = [self._fields(np.full(shape, 1.0), grid),
              self._fields(np.full(shape, 3.0), grid)]
        assert compute_E(fs, grid) == pytest.approx(9.0)

    def test_time_weight_applies(self, grid):
        shape = (grid.nt + 1, 8, 1)
        nu = np.zeros(shape)
        nu[-1] = 2.0
        varphi = np.exp(-np.linspace(0, 3, grid.nt + 1))
        f = self._fields(nu, grid)
        E = compute_E([f], grid, WeightSpec(gamma=1.0, varphi=varphi))
        assert E == pytest.approx(4.0 * varphi[-1])


class TestPhiBoundaryCheck:
    def _fields_from_phi(self, phi):
        z = np.zeros_like(phi)
        return ErrorFields(subdomain=0, e=z, eps=z, nu=z, phi=phi)

    def test_boundary_dominated(self):
        phi = np.zeros((4, 9, 1))
        phi[2, 0, 0] = 3.0   # interface plane
        phi[3, 4, 0] = 2.9   # interior, below the boundary maximum
        res = phi_boundary_check(self._fields_from_phi(phi))
        assert res.ok
        assert res.boundary_argmax == (2, 0, 0)

    def test_interior_bump_fails(self):
        phi = np.zeros((4, 9, 1))
        phi[0, 3, 0] = 1.0   # t=0 slice is parabolic boundary
        phi[2, 4, 0] = 1.5   # interior maximum above it
        res = phi_boundary_check(self._fields_from_phi(phi))
        assert not res.ok
        assert res.interior_argmax == (2, 4, 0)

    def test_tolerance_band(self):
        phi = np.ones((3, 5, 1))
        phi[1, 2, 0] = 1.0 + 5e-9  # within the 1e-8 relative tolerance
        assert phi_boundary_check(self._fields_from_phi(phi)).ok

    def test_lateral_faces_count_for_2d(self):
        phi = np.zeros((3, 5, 4))
        phi[1, 2, 0] = 7.0  # lateral face of D
        assert phi_boundary_check(self._fields_from_phi(phi)).ok


class TestContractionReport:
    def test_single_window_geometric(self):
        E = [2.0 ** -k for k in range(8)]
        rep = contraction_report(E, window=1)
        assert rep.verdict == "pass"
        assert all(r == pytest.approx(0.5) for r in rep.ratios)
        assert rep.geometric_mean == pytest.approx(0.5)

    def test_stairs_window_two(self):
        E = [1.0, 1.0, 0.5, 0.5, 0.25, 0.25]
        rep = contraction_report(E, window=2)
        assert rep.ratios == pytest.approx((0.5, 0.5, 0.5, 0.5))
        assert rep.verdict == "pass"

    def test_all_zero_converged(self):
        rep = contraction_report([0.0] * 6, window=2)
        assert rep.verdict == "converged"
        assert rep.geometric_mean is None
        assert all(r is None for r in rep.ratios)

    def test_stagnation_fails(self):
        rep = contraction_report([1.0] * 8, window=2)
        assert rep.verdict == "fail"

    def test_too_short(self):
        with pytest.raises(TooShort):
            contraction_report([1.0, 0.5, 0.25], window=2)

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(1e-6, 1e6),
           seed=st.integers(0, 10 ** 6))
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        E = list(rng.uniform(0.1, 2.0, 9))
        base = contraction_report(E, window=2)
        scaled = contraction_report([scale * v for v in E], window=2)
        assert scaled.verdict == base.verdict
        for r1, r2 in zip(base.ratios, scaled.ratios):
            assert r2 == pytest.approx(r1, rel=1e-12)


class TestPointwiseTrend:
    def test_halving_passes(self):
        sup_e = [2.0 ** -k for k in range(10)]
        rep = pointwise_error_trend(sup_e, window=2, stop_tol=1e-30)
        assert rep.ok  # decayed 512x >= 100x

    def test_stagnation_fails(self):
        rep = pointwise_error_trend([1.0] * 10, window=2, stop_tol=1e-30)
        assert not rep.ok


class TestIterationHistory:
    def _history(self):
        hist = IterationHistory(window=2)
        for k, E in enumerate([1.0, 0.5, 0.2, 0.1], start=1):
            hist.rows.append(IterationRecord(
                k=k, E=E, sup_e_max=E / 2, sup_e_per_sub=(E / 2,),
                phi_boundary_ok=True, trace_increment=E / 4, wall_ms=0.0))
        hist.termination = "max_iters"
        return hist

    def test_csv_layout(self):
        buf = io.StringIO()
        self._history().write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(HISTORY_HEADER)
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[3] == ""  # no full window yet
        assert float(first[1]) == 1.0
        third = lines[3].split(",")
        assert float(third[3]) == pytest.approx(0.2 / 1.0)

    def test_default_gamma(self):
        prob = problem_preset("heat1d")
        assert default_gamma(prob.domain) == pytest.approx(5.0)


class TestWeightSpec:
    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            WeightSpec(gamma=0.0)

    def test_rejects_nonpositive_time_weight(self):
        with pytest.raises(ValueError):
            WeightSpec(gamma=1.0, varphi=np.array([1.0, 0.0]))

    def test_time_weight_shape_checked(self):
        w = WeightSpec(gamma=1.0, varphi=np.ones(4))
        with pytest.raises(ShapeMismatch):
            w.time_weight(10)


def _shifted_run(alpha):
    # heat1d on (alpha, alpha + 1): the data are translates of the unit case.
    prob = problem_preset("heat1d", alpha=alpha, beta=alpha + 1.0)
    grid = build_grid(prob.domain, 41, 10)
    layout = snap(DecompositionSpec.uniform(prob.domain, 2, 0.2), grid)
    config = SWRConfig(p=RobinParameter(10.0), max_iters=12, stop_tol=1e-30)
    return run(prob, grid, layout, config, solve_global(prob, grid))


def test_error_diagnostics_finite_on_shifted_domain():
    # exp(p x_n) with x_n near 100 overflows; measured from alpha it does not.
    shifted, unit = _shifted_run(100.0), _shifted_run(0.0)
    assert len(shifted.rows) == len(unit.rows) == 12
    E_shift, E_unit = np.array(shifted.E_sequence()), np.array(unit.E_sequence())
    assert np.all(np.isfinite(E_shift))
    assert np.allclose(E_shift, E_unit, rtol=1e-8, atol=0.0)
    assert ([r.phi_boundary_ok for r in shifted.rows]
            == [r.phi_boundary_ok for r in unit.rows])
