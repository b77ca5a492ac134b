"""Monolithic reference solves."""

import numpy as np
import pytest

from oswr import (CoefficientSet, ParabolicProblem, RobinParameter, build_grid,
                  problem_preset, solve_global)
from oswr.decomposition import SubdomainEntry
from oswr.errors import NonFiniteSolution
from oswr.subdomain import solve_subdomain
from tests.conftest import data_finite, make_huge_data_problem, make_zero_problem


def test_zero_data_zero_solution():
    prob = make_zero_problem(problem_preset("heat1d"))
    grid = build_grid(prob.domain, 21, 8)
    sol = solve_global(prob, grid)
    assert np.max(np.abs(sol.values)) <= 1e-14


def test_constant_solution_preserved():
    # c = 0, f = 0, g = 1: constants lie in the kernel of the
    # diffusion-advection operator, so the march keeps u == 1 to round-off.
    base = problem_preset("heat1d")
    coeffs = CoefficientSet.build(1.0, 0.7, 0.0)
    one = lambda t, x: np.ones(np.broadcast(t, x).shape)
    zero = lambda t, x: np.zeros(np.broadcast(t, x).shape)
    prob = ParabolicProblem(domain=base.domain, coeffs=coeffs, f=zero, g=one)
    grid = build_grid(prob.domain, 31, 12)
    sol = solve_global(prob, grid)
    assert np.max(np.abs(sol.values - 1.0)) <= 1e-12


def test_boundary_and_initial_slices_match_g():
    prob = problem_preset("tvar1d")
    grid = build_grid(prob.domain, 31, 12)
    sol = solve_global(prob, grid)
    axis, times = grid.axis_nodes(), grid.times()
    assert np.allclose(sol.values[0, :, 0], prob.g(0.0, axis), atol=1e-14)
    # Dirichlet rows pass through the banded LU, so allow round-off.
    assert np.allclose(sol.values[:, 0, 0], prob.g(times, 0.0), atol=1e-12)
    assert np.allclose(sol.values[:, -1, 0], prob.g(times, 1.0), atol=1e-12)


def test_error_decreases_under_refinement():
    prob = problem_preset("heat1d")
    errs = []
    for nx, nt in ((11, 20), (21, 80), (41, 320)):
        grid = build_grid(prob.domain, nx, nt)
        sol = solve_global(prob, grid)
        exact = prob.exact.u(grid.times()[:, None], grid.axis_nodes()[None, :])
        errs.append(np.max(np.abs(sol.values[:, :, 0] - exact)))
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("preset", ["heat1d", "tvar1d"])
def test_degenerate_single_subdomain_matches_global(preset):
    # A single strip spanning the whole axis with Dirichlet g faces must
    # reproduce the monolithic path exactly (shared assembly).
    prob = problem_preset(preset)
    grid = build_grid(prob.domain, 31, 12)
    oracle = solve_global(prob, grid)
    entry = SubdomainEntry(index=0, i_left=0, i_right=grid.nx_axis - 1,
                           left_kind="dirichlet", right_kind="dirichlet")
    times = grid.times()
    left = np.asarray(prob.g(times[:, None], 0.0), dtype=float)
    right = np.asarray(prob.g(times[:, None], 1.0), dtype=float)
    sol = solve_subdomain(prob, grid, entry, left, right, RobinParameter(1.0))
    assert np.max(np.abs(sol.values - oracle.values)) <= 1e-12


def test_2d_oracle_accuracy():
    prob = problem_preset("tvar2d")
    grid = build_grid(prob.domain, 21, 40, nx_cross=21)
    sol = solve_global(prob, grid)
    exact = prob.exact.u(grid.times()[:, None, None],
                         grid.cross_nodes()[None, None, :],
                         grid.axis_nodes()[None, :, None])
    assert np.max(np.abs(sol.values - exact)) < 2e-2


def test_overflowing_march_raises():
    # f and g up to 8.9e306 are finite, but the first step's u_prev / dt,
    # with dt = 2.5e-3, is not; numpy's warnings, errors in tier-1, stay
    # silent.
    prob = make_huge_data_problem(problem_preset("heat1d"))
    grid = build_grid(prob.domain, 21, 400)
    assert data_finite(prob, grid)
    with pytest.raises(NonFiniteSolution,
                       match=r"^the reference solution is not finite \(dt = 0\.0025\)$"):
        solve_global(prob, grid)


@pytest.mark.parametrize("T", [1e-12, 1e-20, 1e-200])
def test_small_T_oracle_is_exact(T):
    # With 1/dt up to 1e201, the Dirichlet rows are as large as the
    # interior ones, so no row is swapped and the face values keep their
    # digits: the march stays within 1e-13 of g (the solution hardly moves).
    prob = problem_preset("heat1d", T=T)
    grid = build_grid(prob.domain, 21, 10)
    exact = prob.g(grid.times()[:, None], grid.axis_nodes())
    assert np.max(np.abs(solve_global(prob, grid).values[:, :, 0] - exact)) <= 1e-13


def test_fine_h_faces_equal_g():
    # 2/h**2 = 8e8 beside 1/dt = 10: the Dirichlet face values equal g to
    # rounding of g's own scale.
    prob = problem_preset("heat1d")
    grid = build_grid(prob.domain, 20001, 10)
    values = solve_global(prob, grid).values[:, :, 0]
    times = grid.times()
    for node, x in ((0, prob.domain.alpha), (-1, prob.domain.beta)):
        assert np.max(np.abs(values[:, node] - prob.g(times, x))) <= 1e-14
