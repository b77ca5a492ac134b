"""Grid construction, implicit-step assembly and discretization accuracy."""

import numpy as np
import pytest

from oswr import (AxisRange, BandedSystem, DomainSpec, FaceRule, assemble_step,
                  build_grid, march, problem_preset, solve_global)
from oswr.errors import BadResolution
from tests.conftest import make_zero_problem

UNIT = DomainSpec(n=1, alpha=0.0, beta=1.0, T=1.0)


class TestBuildGrid:
    def test_uniform_spacing(self):
        grid = build_grid(UNIT, 11, 10)
        assert grid.hx_axis == pytest.approx(0.1)
        assert grid.axis_nodes()[5] == pytest.approx(0.5)
        assert grid.dt == pytest.approx(0.1)

    def test_shifted_interval(self):
        grid = build_grid(DomainSpec(n=1, alpha=-1.0, beta=3.0, T=1.0), 5, 1)
        assert np.allclose(grid.axis_nodes(), [-1.0, 0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("nx,nt", [(2, 10), (11, 0)])
    def test_bad_resolution(self, nx, nt):
        with pytest.raises(BadResolution):
            build_grid(UNIT, nx, nt)

    @pytest.mark.parametrize("n", [1, 2])
    def test_small_cross_count_rejected(self, n):
        dom = DomainSpec(n=n, alpha=0.0, beta=1.0, T=1.0,
                         cross=(0.0, 1.0) if n == 2 else None)
        with pytest.raises(BadResolution, match="nx_cross must be at least 3"):
            build_grid(dom, 11, 10, nx_cross=2)

    def test_2d_requires_cross_count(self):
        dom = DomainSpec(n=2, alpha=0.0, beta=1.0, T=1.0, cross=(0.0, 1.0))
        with pytest.raises(BadResolution):
            build_grid(dom, 11, 10)


class TestAssembleStep:
    # Coefficient values are (a_nn, b_n, c, a_11, a_12, b_1), the last three 0 for n=1.
    DIRICHLET = FaceRule("dirichlet")

    def test_interior_row_heat(self):
        # a=1, b=0, c=0, h=0.1, dt=0.1: interior row is
        # [-a/h^2, 1/dt + 2a/h^2, -a/h^2] = [-100, 210, -100].
        grid = build_grid(UNIT, 11, 10)
        whole = AxisRange(0, 10, self.DIRICHLET, self.DIRICHLET)
        ab = assemble_step((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), grid, [whole])
        dense = BandedSystem(bandwidth=1, ab=ab, rhs=np.zeros(11)).to_dense()
        assert np.allclose(dense[5, 4:7], [-100.0, 210.0, -100.0])

    def test_scalar_backward_euler(self):
        # With a=b=0 and c=1 the single interior unknown decouples and one
        # step is u_next = u_prev / (1 + dt).
        grid = build_grid(DomainSpec(n=1, alpha=0.0, beta=1.0, T=1.0), 3, 10)
        whole = AxisRange(0, 2, self.DIRICHLET, self.DIRICHLET)
        ab = assemble_step((0.0, 0.0, 1.0, 0.0, 0.0, 0.0), grid, [whole])
        rhs = np.array([0.0, 1.0, 0.0]) / grid.dt  # u_prev/dt, zero Dirichlet data
        u_next = BandedSystem(bandwidth=1, ab=ab, rhs=rhs).solve()
        assert u_next[1] == pytest.approx(1.0 / (1.0 + grid.dt))

    def test_unknown_face_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown face closure kind 'neumann'"):
            FaceRule("neumann")

    def test_zero_data_propagates_zero(self):
        prob = make_zero_problem(problem_preset("heat1d"))
        grid = build_grid(prob.domain, 21, 10)
        whole = AxisRange(0, 20, FaceRule("dirichlet"), FaceRule("dirichlet"))
        zero = np.zeros((grid.nt + 1, 1))
        u, = march(prob, grid, [whole], [(zero, zero)])
        assert np.max(np.abs(u)) <= 1e-14


def _final_time_error(prob, nx, nt, nx_cross=None):
    grid = build_grid(prob.domain, nx, nt, nx_cross)
    sol = solve_global(prob, grid)
    axis = grid.axis_nodes()
    if prob.domain.n == 1:
        exact = prob.exact.u(prob.domain.T, axis)[:, None]
    else:
        exact = prob.exact.u(prob.domain.T, grid.cross_nodes()[None, :],
                             axis[:, None])
    return float(np.max(np.abs(sol.values[-1] - exact)))


class TestDiscretizationOrders:
    def test_spatial_second_order(self):
        # Halving h with dt subdominant: error factor in [3.4, 4.6].
        prob = problem_preset("heat1d")
        coarse = _final_time_error(prob, 21, 800)
        fine = _final_time_error(prob, 41, 800)
        assert 3.4 <= coarse / fine <= 4.6

    def test_temporal_first_order(self):
        # Halving dt with h subdominant: error factor in [1.7, 2.3].
        prob = problem_preset("heat1d")
        coarse = _final_time_error(prob, 201, 8)
        fine = _final_time_error(prob, 201, 16)
        assert 1.7 <= coarse / fine <= 2.3

    def test_spatial_second_order_2d(self):
        prob = problem_preset("heat2d")
        coarse = _final_time_error(prob, 11, 400, nx_cross=11)
        fine = _final_time_error(prob, 21, 400, nx_cross=21)
        assert 3.4 <= coarse / fine <= 4.6
