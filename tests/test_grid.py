"""Grid construction, implicit-step assembly, discretization accuracy and
how grid.py loads its LAPACK routines."""

import subprocess
import sys

import numpy as np
import pytest

from oswr import (AxisRange, BandedSystem, DomainSpec, FaceRule, assemble_step,
                  build_grid, march, problem_preset, solve_global)
from oswr.errors import BadResolution
from tests.conftest import make_zero_problem, source_env

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


def fresh(code):
    """Run `code` in a fresh interpreter on this checkout's sources."""
    return subprocess.run([sys.executable, "-c", code], env=source_env(),
                          capture_output=True, text=True)


# A banded factorization: the first loads scipy.linalg._fblas for dtbsv.
BANDED = ("import numpy\nfrom oswr import BandedSystem\n"
          "BandedSystem(2, numpy.eye(5, 4, 2) + 4, numpy.ones(4)).solve()\n")


class TestLapackLoading:
    """grid.py takes dgttrf, dgttrs, dgbtrf and dgbtrs from scipy.linalg._flapack
    and, at the first banded factorization, dtbsv from scipy.linalg._fblas,
    without importing scipy.linalg, and they are the objects
    scipy.linalg.lapack and scipy.linalg.blas export whichever is imported
    first."""

    ROUTINES = ("dgttrf", "dgttrs", "dgbtrf", "dgbtrs")

    def test_cli_import_leaves_out_scipy_linalg(self):
        proc = fresh("import sys, oswr.cli; print('scipy.linalg' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("imports", ["import oswr.grid, scipy.linalg.lapack",
                                         "import scipy.linalg.lapack, oswr.grid"])
    def test_routines_are_scipys(self, imports):
        proc = fresh(f"{imports}\nfrom oswr import grid\nfrom scipy.linalg import lapack\n"
                     f"print([getattr(grid, n) is getattr(lapack, n) for n in {self.ROUTINES}])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[True, True, True, True]\n"

    @pytest.mark.parametrize("body", [None, "raise RuntimeError('broken')"])
    def test_failed_load_leaves_no_module(self, tmp_path, body):
        """A scipy without _flapack in its linalg directory, or whose _flapack
        fails to execute: the error names the directory or is the module's
        own, and sys.modules keeps no half-loaded entry."""
        where = tmp_path / "scipy" / "linalg"
        if body is not None:
            where.mkdir(parents=True)
            (where / "_flapack.py").write_text(body)
        proc = fresh(f"import sys, scipy\nscipy.__file__ = {str(where.parent / 'x.py')!r}\n"
                     "try:\n    import oswr.grid\nexcept Exception as exc:\n"
                     "    print(type(exc).__name__, exc)\n"
                     "print('scipy.linalg._flapack' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        error = (f"ImportError scipy's LAPACK wrappers _flapack not found in {where}"
                 if body is None else "RuntimeError broken")
        assert proc.stdout == f"{error}\nFalse\n"

    @pytest.mark.parametrize("imports", ["import oswr.grid, scipy.linalg.blas",
                                         "import scipy.linalg.blas, oswr.grid"])
    def test_dtbsv_is_scipys(self, imports):
        proc = fresh(f"{imports}\nfrom oswr import grid\nfrom scipy.linalg import blas\n"
                     f"print(grid.dtbsv)\n{BANDED}print(grid.dtbsv is blas.dtbsv)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "None\nTrue\n"

    @pytest.mark.parametrize("body", [None, "raise RuntimeError('broken')"])
    def test_failed_blas_load_leaves_no_module(self, tmp_path, body):
        """_flapack loaded, a banded factorization where _fblas is missing or
        fails to execute: the error names the directory or is the module's
        own, and sys.modules keeps no half-loaded entry."""
        where = tmp_path / "scipy" / "linalg"
        if body is not None:
            where.mkdir(parents=True)
            (where / "_fblas.py").write_text(body)
        proc = fresh("import sys, scipy, oswr.grid\n"
                     f"scipy.__file__ = {str(where.parent / 'x.py')!r}\ntry:\n"
                     f"    exec({BANDED!r})\nexcept Exception as exc:\n"
                     "    print(type(exc).__name__, exc)\n"
                     "print('scipy.linalg._fblas' in sys.modules, oswr.grid.dtbsv)")
        assert proc.returncode == 0, proc.stderr
        error = (f"ImportError scipy's BLAS wrappers _fblas not found in {where}"
                 if body is None else "RuntimeError broken")
        assert proc.stdout == f"{error}\nFalse None\n"

    def test_1d_run_leaves_out_blas(self):
        proc = fresh("import sys, warnings, oswr.cli\n"
                     "from oswr import (DecompositionSpec, SWRConfig, build_grid, problem_preset,\n"
                     "                  run, snap, solve_global)\n"
                     "warnings.simplefilter('ignore')\n"
                     "prob = problem_preset('tvar1d')\ngrid = build_grid(prob.domain, 41, 10)\n"
                     "layout = snap(DecompositionSpec.uniform(prob.domain, 3, 0.2), grid)\n"
                     "oracle = solve_global(prob, grid)\n"
                     "run(prob, grid, layout, SWRConfig(p=1.0, max_iters=3), oracle)\n"
                     "print('scipy.linalg._fblas' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
