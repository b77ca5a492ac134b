"""Single-strip Robin solves and trace extraction."""

import numpy as np
import pytest

from oswr import (DecompositionSpec, RobinParameter, SubdomainSolution,
                  build_grid, problem_preset, snap, solve_global)
from oswr.decomposition import SubdomainEntry
from oswr.errors import DataMismatch, NodeOutOfRange
from oswr.subdomain import extract_robin_trace, solve_subdomain
from tests.conftest import make_zero_problem


class TestRobinParameter:
    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            RobinParameter(0.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_rejects_nonfinite_p(self, bad):
        with pytest.raises(ValueError, match="p must be positive and finite"):
            RobinParameter(bad)

    def test_signs(self):
        outward = RobinParameter(1.0, orientation="outward")
        paper = RobinParameter(1.0, orientation="paper")
        assert outward.sign("left") == -1.0
        assert outward.sign("right") == 1.0
        assert paper.sign("left") == 1.0
        assert paper.sign("right") == 1.0


class TestExtractRobinTrace:
    def test_zero_solution(self, heat1d_grid):
        m = 10
        sol = SubdomainSolution(index=0, i_left=0,
                                values=np.zeros((heat1d_grid.nt + 1, m, 1)))
        trace = extract_robin_trace(sol, heat1d_grid, 5, RobinParameter(1.0),
                                    "right")
        assert np.all(trace == 0.0)

    def test_linear_solution_exact(self):
        # values = x_n, p=2 at x=0.5: centered difference is exact on
        # linears, so the trace is 1 + 2*0.5 = 2 on the +d/dx_n side.
        prob = problem_preset("heat1d")
        grid = build_grid(prob.domain, 11, 2)
        axis = grid.axis_nodes()
        vals = np.broadcast_to(axis[None, :, None], (3, 11, 1)).copy()
        sol = SubdomainSolution(index=0, i_left=0, values=vals)
        p = RobinParameter(2.0, orientation="paper")
        trace = extract_robin_trace(sol, grid, 5, p, "right")
        assert np.allclose(trace, 2.0)
        # Outward orientation flips only the derivative term on left faces.
        left = extract_robin_trace(sol, grid, 5, RobinParameter(2.0), "left")
        assert np.allclose(left, -1.0 + 2.0 * 0.5)

    def test_smooth_solution_second_order(self):
        # values = e^{-t} sin x at x=0.6: trace within O(h^2) of
        # e^{-t}(cos 0.6 + sin 0.6).
        prob = problem_preset("heat1d")
        errs = []
        for nx in (11, 21):
            grid = build_grid(prob.domain, nx, 2)
            axis, times = grid.axis_nodes(), grid.times()
            vals = np.exp(-times)[:, None, None] * np.sin(axis)[None, :, None]
            sol = SubdomainSolution(index=0, i_left=0, values=vals)
            node = int(round(0.6 / grid.hx_axis))
            trace = extract_robin_trace(sol, grid, node, RobinParameter(1.0),
                                        "right")
            expected = np.exp(-times) * (np.cos(0.6) + np.sin(0.6))
            errs.append(np.max(np.abs(trace[:, 0] - expected)))
        assert errs[0] < 2e-3
        assert errs[0] / errs[1] > 3.0  # second-order decrease

    def test_node_out_of_range(self, heat1d_grid):
        sol = SubdomainSolution(index=0, i_left=0,
                                values=np.zeros((heat1d_grid.nt + 1, 10, 1)))
        with pytest.raises(NodeOutOfRange):
            extract_robin_trace(sol, heat1d_grid, 9, RobinParameter(1.0), "left")


class TestSolveSubdomain:
    def test_zero_fixed_point(self, zero_problem):
        grid = build_grid(zero_problem.domain, 21, 8)
        entry = SubdomainEntry(index=0, i_left=0, i_right=12,
                               left_kind="dirichlet", right_kind="robin")
        zeros = np.zeros((grid.nt + 1, 1, 1))
        sol = solve_subdomain(zero_problem, grid, entry, zeros, RobinParameter(1.0))
        assert np.max(np.abs(sol.values)) <= 1e-14

    def test_manufactured_robin_data(self):
        # Feed exact Robin data of u = e^{-t} sin(pi x) at x=0.6; the strip
        # solve reproduces the exact solution to discretization accuracy.
        prob = problem_preset("heat1d")
        grid = build_grid(prob.domain, 41, 160)
        entry = SubdomainEntry(index=0, i_left=0, i_right=24,
                               left_kind="dirichlet", right_kind="robin")
        times = grid.times()
        p = RobinParameter(1.0)
        robin = (np.pi * np.exp(-times) * np.cos(np.pi * 0.6)
                 + p.p * np.exp(-times) * np.sin(np.pi * 0.6))
        sol = solve_subdomain(prob, grid, entry, robin[:, None, None], p)
        axis = grid.axis_nodes()[:25]
        exact = np.exp(-times)[:, None] * np.sin(np.pi * axis)[None, :]
        assert np.max(np.abs(sol.values[:, :, 0] - exact)) < 5e-3

    def test_shape_mismatch_rejected(self, zero_problem):
        grid = build_grid(zero_problem.domain, 21, 4)
        entry = SubdomainEntry(index=0, i_left=0, i_right=12,
                               left_kind="dirichlet", right_kind="robin")
        with pytest.raises(DataMismatch):
            solve_subdomain(zero_problem, grid, entry, np.zeros((2, 1, 1)), RobinParameter(1.0))

    def test_boundedness_by_data(self):
        # f == 0, |g| <= 1, c >= 0: discrete maximum principle keeps the
        # solution within the data bounds.
        from oswr import CoefficientSet, ParabolicProblem
        prob0 = problem_preset("heat1d")
        coeffs = CoefficientSet.build(1.0, 0.5, 4.0)
        g = lambda t, x: np.cos(3.0 * x) * np.exp(-0.0 * t)
        prob = ParabolicProblem(domain=prob0.domain, coeffs=coeffs,
                                f=lambda t, x: np.zeros(np.broadcast(t, x).shape),
                                g=g)
        grid = build_grid(prob.domain, 41, 10)
        sol = solve_global(prob, grid)
        assert np.max(np.abs(sol.values)) <= 1.0 + 1e-12


@pytest.mark.parametrize("orientation", ["paper", "outward"])
def test_transmission_exactness(orientation):
    """Traces taken from the oracle reproduce its restriction exactly.

    The global solution is a fixed point of the discrete iteration: the
    ghost-eliminated Robin rows and the centered-trace extraction implement
    the same discrete functional.
    """
    prob = problem_preset("tvar1d")
    grid = build_grid(prob.domain, 41, 20)
    oracle = solve_global(prob, grid)
    layout = snap(DecompositionSpec.uniform(prob.domain, 2, 0.2), grid)
    p = RobinParameter(1.3, orientation=orientation)
    full = SubdomainSolution(index=-1, i_left=0, values=oracle.values)
    for entry in layout.entries:
        robin = [extract_robin_trace(full, grid, node, p, side)
                 for node, kind, side in ((entry.i_left, entry.left_kind, "left"),
                                          (entry.i_right, entry.right_kind, "right"))
                 if kind == "robin"]
        sol = solve_subdomain(prob, grid, entry, np.stack(robin, axis=1), p)
        ref = oracle.values[:, entry.i_left:entry.i_right + 1, :]
        assert np.max(np.abs(sol.values - ref)) <= 1e-10


def test_linearity_in_trace_data(zero_problem):
    """With f == 0, g == 0 the strip solve is linear in the Robin data."""
    grid = build_grid(zero_problem.domain, 21, 6)
    entry = SubdomainEntry(index=1, i_left=4, i_right=20,
                           left_kind="robin", right_kind="dirichlet")
    rng = np.random.default_rng(3)
    d1 = rng.standard_normal((grid.nt + 1, 1))
    d2 = rng.standard_normal((grid.nt + 1, 1))
    p = RobinParameter(1.0)

    def solve(data):
        return solve_subdomain(zero_problem, grid, entry, data[:, None], p).values

    combo = solve(2.0 * d1 - 0.5 * d2)
    direct = 2.0 * solve(d1) - 0.5 * solve(d2)
    assert np.max(np.abs(combo - direct)) <= 1e-12
