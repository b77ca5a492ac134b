"""Monolithic reference solves."""

import numpy as np
import pytest

from oswr import (CoefficientSet, ParabolicProblem, RobinParameter, TraceData,
                  build_grid, problem_preset, solve_global, solve_subdomain)
from oswr.decomposition import SubdomainEntry
from tests.conftest import make_zero_problem


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
    left = TraceData(side="left", kind="dirichlet",
                     values=np.asarray(prob.g(times[:, None], 0.0), dtype=float))
    right = TraceData(side="right", kind="dirichlet",
                      values=np.asarray(prob.g(times[:, None], 1.0), dtype=float))
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
