"""Error functionals, contraction analysis and history serialization."""

import io
import math
import re
import types
from pathlib import Path

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
        for arr in (f.e, f.nu, f.phi):
            assert np.max(np.abs(arr)) == 0.0

    def test_exponential_error_flattens(self, grid):
        # e = exp(-p x_n) makes eps = e exp(p x_n) identically one, so nu
        # vanishes to truncation level.
        p = RobinParameter(2.0)
        axis = grid.axis_nodes()
        vals = np.exp(-p.p * axis)[None, :, None] * np.ones((grid.nt + 1, 1, 1))
        oracle = GlobalSolution(values=np.zeros_like(vals))
        f = compute_error_fields(_sol(vals), oracle, p, WeightSpec(gamma=1.0),
                                 grid)
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


def _fields(nu=None, phi=None):
    arr = nu if nu is not None else phi
    z = np.zeros_like(arr)
    return ErrorFields(e=z, nu=arr if nu is not None else z,
                       phi=arr if phi is not None else z)


class TestComputeE:
    def test_zero_fields(self, grid):
        shape = (grid.nt + 1, 8, 1)
        assert compute_E([_fields(nu=np.zeros(shape))]) == 0.0

    def test_constant_nu_squares(self, grid):
        shape = (grid.nt + 1, 8, 1)
        assert compute_E([_fields(nu=np.full(shape, -2.0))]) == 4.0

    def test_max_over_subdomains(self, grid):
        shape = (grid.nt + 1, 8, 1)
        fs = [_fields(nu=np.full(shape, 1.0)), _fields(nu=np.full(shape, 3.0))]
        assert compute_E(fs) == pytest.approx(9.0)

    def test_time_weight_enters_phi_only(self, grid):
        # theta weights Phi, never E_k.
        vals = grid.axis_nodes()[None, :, None] * np.ones((grid.nt + 1, 1, 1))
        oracle = GlobalSolution(values=np.zeros_like(vals))
        plain, weighted = (
            compute_error_fields(_sol(vals), oracle, RobinParameter(1.0),
                                 WeightSpec(gamma=1.0, theta=theta), grid)
            for theta in (0.0, 3.0))
        assert compute_E([weighted]) == compute_E([plain])
        assert not np.array_equal(weighted.phi, plain.phi)

    def test_nan_in_any_strip_is_not_hidden(self, grid):
        shape = (grid.nt + 1, 8, 1)
        nu = np.ones(shape)
        nu[1, 2, 0] = np.nan
        fs = [_fields(nu=np.full(shape, 2.0)), _fields(nu=nu)]
        assert np.isnan(compute_E(fs))


class TestPhiBoundaryCheck:
    def test_boundary_dominated(self):
        phi = np.zeros((4, 9, 1))
        phi[2, 0, 0] = 3.0   # interface plane
        phi[3, 4, 0] = 2.9   # interior, below the boundary maximum
        res = phi_boundary_check(_fields(phi=phi))
        assert res.ok
        assert res.boundary_max == 3.0
        assert res.interior_max == 2.9

    def test_interior_bump_fails(self):
        phi = np.zeros((4, 9, 1))
        phi[0, 3, 0] = 1.0   # t=0 slice is parabolic boundary
        phi[2, 4, 0] = 1.5   # interior maximum above it
        res = phi_boundary_check(_fields(phi=phi))
        assert not res.ok
        assert res.interior_max == 1.5
        assert res.boundary_max == 1.0

    def test_tolerance_band(self):
        phi = np.ones((3, 5, 1))
        phi[1, 2, 0] = 1.0 + 5e-9  # within the 1e-8 relative tolerance
        assert phi_boundary_check(_fields(phi=phi)).ok

    def test_lateral_faces_count_for_2d(self):
        phi = np.zeros((3, 5, 4))
        phi[1, 2, 0] = 7.0  # lateral face of D
        assert phi_boundary_check(_fields(phi=phi)).ok

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_interior_fails(self, bad):
        phi = np.ones((3, 5, 1))
        phi[1, 2, 0] = bad
        res = phi_boundary_check(_fields(phi=phi))
        assert not res.ok
        assert res.interior_max != 0.0


def _mask_phi_check(phi, rel_tol=1e-8, abs_tol=1e-13):
    """Reference: the boolean-mask form of the parabolic boundary check."""
    mask = np.zeros(phi.shape, dtype=bool)
    mask[0, :, :] = True
    mask[:, 0, :] = True
    mask[:, -1, :] = True
    if phi.shape[2] > 1:
        mask[:, :, 0] = True
        mask[:, :, -1] = True
    boundary_max = float(np.max(phi[mask]))
    interior_max = float(np.max(np.where(mask, -np.inf, phi)))
    ok = interior_max <= boundary_max * (1.0 + rel_tol) + abs_tol
    return ok, interior_max, boundary_max


def _square_E(fields):
    """Reference: E_k as the maximum of nu**2 over all strips."""
    return max(float(np.max(f.nu ** 2)) for f in fields)


@st.composite
def _diagnostic_arrays(draw):
    # 1D (J = 1) or 2D (J >= 3) boxes with nt >= 1 and m >= 3; values from a
    # small set so that ties are common, optionally with a boundary-only peak.
    J = draw(st.sampled_from([1, 3, 4]))
    shape = (draw(st.integers(2, 5)), draw(st.integers(3, 6)), J)
    levels = st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-9, 2.0, 3.0])
    flat = draw(st.lists(levels, min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    phi = np.array(flat).reshape(shape)
    if draw(st.booleans()):
        # One peak on the parabolic boundary: t = 0, an interface plane or,
        # in 2D, a lateral face.
        point = [draw(st.integers(0, n - 1)) for n in shape]
        axis, end = draw(st.sampled_from([(0, 0), (1, 0), (1, -1)]
                                         + ([(2, 0), (2, -1)] if J > 1 else [])))
        point[axis] = end
        phi[tuple(point)] = 5.0
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                   min_size=phi.size, max_size=phi.size)))
    return phi, signs.reshape(shape) * phi


class TestReductionsAgainstReference:
    @pytest.mark.parametrize("point", [(0, 2, 2), (2, 0, 2), (2, -1, 2),
                                       (2, 2, 0), (2, 2, -1)])
    def test_peak_on_each_face(self, point):
        phi = np.ones((4, 5, 5))
        phi[point] = 5.0
        res = phi_boundary_check(_fields(phi=phi))
        assert (res.ok, res.interior_max, res.boundary_max) == (True, 1.0, 5.0)
        assert _mask_phi_check(phi) == (True, 1.0, 5.0)

    @settings(max_examples=200, deadline=None)
    @given(arrays=st.lists(_diagnostic_arrays(), min_size=1, max_size=3))
    def test_bitwise_equal(self, arrays):
        fields = [_fields(phi=phi) for phi, _ in arrays]
        for f in fields:
            res = phi_boundary_check(f)
            assert (res.ok, res.interior_max, res.boundary_max) == _mask_phi_check(f.phi)
        nu_fields = [_fields(nu=nu) for _, nu in arrays]
        assert compute_E(nu_fields) == _square_E(nu_fields)


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
                phi_boundary_ok=True, trace_increment=E / 4))
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

    def test_ratio_over_zero_window_is_inf(self):
        # E = 0, 0, 1: the window (0, 0) gives 1/0 = inf, as in the report.
        hist = IterationHistory(window=2)
        for k, E in enumerate([0.0, 0.0, 1.0, 1.0], start=1):
            hist.rows.append(IterationRecord(
                k=k, E=E, sup_e_max=E, sup_e_per_sub=(E,), phi_boundary_ok=True,
                trace_increment=0.0))
        buf = io.StringIO()
        hist.write_csv(buf)
        gammas = [line.split(",")[3] for line in buf.getvalue().splitlines()[1:]]
        assert gammas == ["", "", "inf", "1.0"]
        assert hist.contraction().ratios == (math.inf, 1.0)

    def test_readme_lists_the_columns(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        m = re.search(r"`history.csv` has one row per sweep and (\d+) columns: (.*?)\.\s",
                      readme, re.S)
        assert m is not None
        assert int(m.group(1)) == len(HISTORY_HEADER)
        assert tuple(re.findall(r"`(\w+)`", m.group(2))) == HISTORY_HEADER

    def test_default_gamma(self):
        prob = problem_preset("heat1d")
        assert default_gamma(prob.domain) == pytest.approx(5.0)


class TestWeightSpec:
    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            WeightSpec(gamma=0.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_nonfinite_gamma(self, bad):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            WeightSpec(gamma=bad)

    def test_rejects_negative_theta(self):
        with pytest.raises(ValueError, match="theta must be nonnegative and finite"):
            WeightSpec(gamma=1.0, theta=-1e-300)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_nonfinite_time_weight(self, bad):
        # theta = inf would give exp(-inf * 0) = nan at t = 0.
        with pytest.raises(ValueError, match="theta must be nonnegative and finite"):
            WeightSpec(gamma=1.0, theta=bad)

    def test_accepts_underflowed_time_weight(self):
        # exp(-theta t) underflows to 0 for large theta t.
        times = np.linspace(0.0, 1.0, 3)
        varphi = WeightSpec(gamma=1.0, theta=800.0).time_weight(times)
        assert varphi[0] == 1.0 and varphi[-1] == 0.0

    @pytest.mark.parametrize("theta", [0.0, 2.0, 10.0])
    def test_time_weight_is_exp_minus_theta_t(self, grid, theta):
        times = grid.times()
        varphi = WeightSpec(gamma=1.0, theta=theta).time_weight(times)
        assert varphi.shape == times.shape
        assert np.array_equal(varphi, np.exp(-theta * times))
        if theta == 0.0:
            assert np.array_equal(varphi, np.ones(grid.nt + 1))


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
