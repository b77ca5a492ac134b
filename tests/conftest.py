"""Shared fixtures: small problems, grids, and reusable solver runs."""

import os
from pathlib import Path

import numpy as np
import pytest

from oswr import (DecompositionSpec, ParabolicProblem, build_grid,
                  problem_preset, snap, solve_global)
from oswr.grid import eval_nodes

SRC = Path(__file__).resolve().parents[1] / "src"


def source_env():
    """The environment for a fresh interpreter that imports this checkout's
    sources: os.environ with src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def pytest_collection_modifyitems(items):
    """Every warning fails its test, so an unsuppressed overflow shows; a
    test's own filterwarnings marks take precedence.  The one exception:
    hypothesis imports libcst to report a failing example, and libcst's
    DeprecationWarning, raised there, would end the session.  Prepended in
    this order, the marks apply as "error", the ignore, then the test's own,
    each later one taking precedence."""
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(
            "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning:libcst"),
            append=False)
        item.add_marker(pytest.mark.filterwarnings("error"), append=False)


@pytest.fixture(scope="session")
def heat1d_problem():
    return problem_preset("heat1d")


@pytest.fixture(scope="session")
def heat1d_grid(heat1d_problem):
    return build_grid(heat1d_problem.domain, 41, 20)


@pytest.fixture(scope="session")
def heat1d_oracle(heat1d_problem, heat1d_grid):
    return solve_global(heat1d_problem, heat1d_grid)


@pytest.fixture(scope="session")
def heat1d_layout(heat1d_problem, heat1d_grid):
    spec = DecompositionSpec.uniform(heat1d_problem.domain, 2, 0.2)
    return snap(spec, heat1d_grid)


def make_zero_problem(base: ParabolicProblem) -> ParabolicProblem:
    """Same domain/coefficients, but homogeneous data (zero fixed point)."""
    zero = lambda t, *x: np.zeros(np.broadcast(t, *x).shape)
    return ParabolicProblem(domain=base.domain, coeffs=base.coeffs,
                            f=zero, g=zero)


def make_huge_data_problem(base: ParabolicProblem, scale: float = 1e306) -> ParabolicProblem:
    """Same domain/coefficients, with f and g times `scale`: on a preset
    whose |f|, |g| stay below 179 the data are finite (data_finite), as is
    every coefficient and step-matrix entry, but the first step's
    u_prev / dt overflows wherever |g| > 1.79e308 dt / scale."""
    return ParabolicProblem(domain=base.domain, coeffs=base.coeffs,
                            f=lambda *args: scale * base.f(*args),
                            g=lambda *args: scale * base.g(*args))


def data_finite(problem: ParabolicProblem, grid) -> bool:
    """Whether f and g are finite at every node and time of the grid."""
    return all(np.isfinite(eval_nodes(fn, grid, grid.times())).all()
               for fn in (problem.f, problem.g))


@pytest.fixture(scope="session")
def zero_problem(heat1d_problem):
    return make_zero_problem(heat1d_problem)
