"""Step assembly against a loop reference, and strip operators against
per-step assembly: results, shared factorizations, the factor cache cap and
singular steps."""

import warnings

import numpy as np
import pytest

import oswr.grid
from oswr import (BoundaryClosure, CoefficientSet, DecompositionSpec,
                  FaceClosure, GlobalSolution, InitialGuess, ParabolicProblem,
                  RobinParameter, StripOperator, SWRConfig, assemble_step,
                  build_grid, initial_traces, march, problem_preset, run, snap,
                  solve_global, sweep_once)
from oswr.engine import strip_operators
from oswr.errors import SingularSystem
from oswr.grid import eval_nodes


def _loop_assemble(coeffs, grid, t, bc, u_prev, f_vals, lo, hi):
    """Row-by-row assembly: the reference for the vectorized row patches."""
    n, m, J = coeffs.n, hi - lo + 1, grid.nx_cross
    N, h, dt = m * J, grid.hx_axis, grid.dt
    a_ax, b_ax, cc = (float(coeffs.a[n - 1][n - 1](t)), float(coeffs.b[n - 1](t)),
                      float(coeffs.c(t)))
    if n == 2:
        hc, bw = grid.hx_cross, J + 1
        a_cr, a_mx, b_cr = (float(coeffs.a[0][0](t)), float(coeffs.a[0][1](t)),
                            float(coeffs.b[0](t)))
    else:
        hc, bw, a_cr, a_mx, b_cr = np.inf, 1, 0.0, 0.0, 0.0
    diag = 1.0 / dt + cc + 2.0 * a_ax / h ** 2 + (2.0 * a_cr / hc ** 2 if n == 2 else 0.0)
    up_ax, dn_ax = -a_ax / h ** 2 + b_ax / (2.0 * h), -a_ax / h ** 2 - b_ax / (2.0 * h)
    if n == 2:
        up_cr, dn_cr = -a_cr / hc ** 2 + b_cr / (2.0 * hc), -a_cr / hc ** 2 - b_cr / (2.0 * hc)
        corner = -a_mx / (2.0 * h * hc)
    else:
        up_cr = dn_cr = corner = 0.0
    ab = np.zeros((2 * bw + 1, N))
    rhs = (u_prev / dt + f_vals).reshape(N).astype(float)
    ab[bw, :] = diag
    ab[bw - J, J:] = up_ax
    ab[bw + J, :-J] = dn_ax
    if n == 2:
        ab[bw - 1, 1:] = up_cr
        ab[bw + 1, :-1] = dn_cr
        ab[bw - (J + 1), J + 1:] = corner
        ab[bw + (J + 1), :-(J + 1)] = corner
        ab[bw - (J - 1), J - 1:] = -corner
        ab[bw + (J - 1), :-(J - 1)] = -corner

    def put(r, c, v):
        ab[bw + r - c, c] = v

    def clear(r):
        for c in range(max(0, r - bw), min(N, r + bw + 1)):
            put(r, c, 0.0)

    def dirichlet(r, value):
        clear(r)
        put(r, r, 1.0)
        rhs[r] = value

    if n == 2:
        for i in range(m):
            dirichlet(i * J, bc.lateral_low[i])
            dirichlet(i * J + J - 1, bc.lateral_high[i])
    for face, low in ((bc.low, True), (bc.high, False)):
        i0, inner = (0, 1) if low else (m - 1, m - 2)
        vals = np.atleast_1d(face.values)
        for j in (range(1, J - 1) if n == 2 else range(J)):
            r = i0 * J + j
            if face.kind == "dirichlet":
                dirichlet(r, vals[j])
                continue
            p, s = face.p, face.sign
            drift = -2.0 * a_ax * p / (s * h) if low else 2.0 * a_ax * p / (s * h)
            clear(r)
            put(r, r, diag + drift - b_ax * p / s)
            put(r, inner * J + j, -2.0 * a_ax / h ** 2)
            if n == 2:
                put(r, r + 1, up_cr + a_mx * p / (s * hc))
                put(r, r - 1, dn_cr - a_mx * p / (s * hc))
            coef = (2.0 * a_ax / (s * h) + b_ax / s) if low else (2.0 * a_ax / (s * h) - b_ax / s)
            rhs[r] = (u_prev[i0, j] / dt + f_vals[i0, j]
                      + (-coef if low else coef) * vals[j])
            if n == 2:
                rhs[r] += (a_mx / (s * hc)) * (vals[j + 1] - vals[j - 1])
    return ab, rhs


GRIDS = [("tvar1d", 13, None), ("heat1d", 13, None), ("tvar2d", 9, 7), ("heat2d", 8, 5)]
FACES = [("dirichlet", "dirichlet"), ("dirichlet", "robin"), ("robin", "dirichlet"),
         ("robin", "robin")]


@pytest.mark.parametrize("preset,nx,nx_cross", GRIDS)
@pytest.mark.parametrize("kinds", FACES)
@pytest.mark.parametrize("low_sign", [-1.0, 1.0])
def test_assembly_matches_loop_reference(preset, nx, nx_cross, kinds, low_sign):
    prob = problem_preset(preset)
    grid = build_grid(prob.domain, nx, 6, nx_cross)
    rng = np.random.default_rng(5)
    J = grid.nx_cross
    for lo, hi in ((0, nx - 1), (2, nx - 3)):
        m = hi - lo + 1
        bc = BoundaryClosure(
            FaceClosure(kinds[0], rng.standard_normal(J), p=1.7, sign=low_sign),
            FaceClosure(kinds[1], rng.standard_normal(J), p=0.9),
            *((rng.standard_normal(m), rng.standard_normal(m)) if J > 1 else ()))
        u_prev, f_vals = rng.standard_normal((m, J)), rng.standard_normal((m, J))
        system = assemble_step(prob.coeffs, grid, 0.37, bc, u_prev, f_vals, lo, hi)
        ab, rhs = _loop_assemble(prob.coeffs, grid, 0.37, bc, u_prev, f_vals, lo, hi)
        assert np.array_equal(system.ab, ab)
        assert np.array_equal(system.rhs, rhs)
        # to_dense() reads the solve_banded layout: the dense system is solved.
        assert np.allclose(system.to_dense() @ system.solve(), system.rhs,
                           rtol=0.0, atol=1e-9 * np.max(np.abs(rhs)))


def _face(kind, data, p, side):
    return FaceClosure(kind=kind, values=data, p=p.p, sign=p.sign(side))


def _per_step_reference(prob, grid, lo, hi, closures):
    """The march written out with assemble_step(...).solve() at every step."""
    n, axis, cross = prob.domain.n, grid.axis_nodes()[lo:hi + 1], grid.cross_nodes()
    m, J = len(axis), len(cross)
    u = np.empty((grid.nt + 1, m, J))
    u[0] = eval_nodes(prob.g, n, 0.0, axis, cross)
    for k, t in enumerate(grid.times()[1:], start=1):
        low, high = closures(k, t)
        lateral = ((np.broadcast_to(prob.g(t, cross[0], axis), (m,)),
                    np.broadcast_to(prob.g(t, cross[-1], axis), (m,))) if n == 2 else ())
        system = assemble_step(prob.coeffs, grid, t, BoundaryClosure(low, high, *lateral),
                               u[k - 1], eval_nodes(prob.f, n, t, axis, cross), lo, hi)
        u[k] = system.solve().reshape(m, J)
    return u


OPERATOR_GRIDS = [("tvar1d", 15, None, 6), ("heat1d", 15, None, 6), ("tvar2d", 11, 7, 4)]


@pytest.mark.parametrize("preset,nx,nx_cross,nt", OPERATOR_GRIDS)
@pytest.mark.parametrize("orientation", ["outward", "paper"])
@pytest.mark.parametrize("kinds", FACES[1:])
@pytest.mark.parametrize("capped", [True, False], ids=["cap0", "uncapped"])
def test_operator_matches_per_step_assembly(monkeypatch, preset, nx, nx_cross, nt,
                                            orientation, kinds, capped):
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", 0 if capped else 2 ** 40)
    prob = problem_preset(preset)
    grid = build_grid(prob.domain, nx, nt, nx_cross)
    lo, hi = 2, nx - 4
    p = RobinParameter(1.3, orientation=orientation)
    operator = StripOperator(prob, grid, lo, hi, cache_share=1.0)
    rng = np.random.default_rng(9)
    for _ in range(3):  # the first march prepares the steps, later ones reuse them
        data = rng.standard_normal((2, grid.nt + 1, grid.nx_cross))
        closures = lambda k, t: (_face(kinds[0], data[0, k], p, "left"),
                                 _face(kinds[1], data[1, k], p, "right"))
        got = march(prob, grid, closures, lo, hi, operator=operator)
        ref = _per_step_reference(prob, grid, lo, hi, closures)
        assert np.max(np.abs(got - ref)) <= 1e-12
    assert (operator.nbytes == 0) == capped


def _tiny_run(preset, nt=6):
    prob = problem_preset(preset)
    grid = build_grid(prob.domain, 31, nt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        layout = snap(DecompositionSpec.uniform(prob.domain, 3, 0.2), grid)
    return prob, grid, layout


@pytest.mark.parametrize("preset,per_strip", [("heat1d", 1), ("tvar1d", 6)])
def test_factorizations_per_strip(preset, per_strip):
    prob, grid, layout = _tiny_run(preset)
    p = RobinParameter(1.0)
    operators = strip_operators(prob, grid, layout)
    traces = initial_traces(InitialGuess("random-smooth", seed=1), layout, grid, prob)
    for _ in range(3):
        sweep_once(prob, grid, layout, traces, p, operators=operators)
    assert [op.factorizations for op in operators] == [per_strip] * layout.count
    assert all(op.nbytes > 0 for op in operators)


def test_cap_zero_refactors_every_step(monkeypatch):
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", 0)
    prob, grid, layout = _tiny_run("heat1d")
    operators = strip_operators(prob, grid, layout)
    traces = initial_traces(InitialGuess(), layout, grid, prob)
    for _ in range(3):
        sweep_once(prob, grid, layout, traces, RobinParameter(1.0), operators=operators)
    assert [op.factorizations for op in operators] == [3 * grid.nt] * layout.count
    assert all(op.nbytes == 0 for op in operators)


def test_run_history_independent_of_cap(monkeypatch):
    prob, grid, layout = _tiny_run("tvar1d", nt=8)
    oracle = solve_global(prob, grid)
    config = SWRConfig(p=1.0, max_iters=6, guess=InitialGuess("random-smooth", seed=4))
    rows = {}
    for cap in (0, 2 ** 40):
        monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
        rows[cap] = [(r.E, r.sup_e_max, r.trace_increment)
                     for r in run(prob, grid, layout, config, oracle).rows]
    assert rows[0] == rows[2 ** 40]


@pytest.mark.parametrize("cap", [0, 2 ** 40], ids=["per-step", "cached"])
def test_singular_step_raises(monkeypatch, cap):
    # a = b = 0 and c = -1/dt zero the interior diagonal; ?gbtrf reports the
    # zero pivot instead of the solve returning inf/nan.
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
    base, grid, layout = _tiny_run("heat1d")
    coeffs = CoefficientSet.build(0.0, 0.0, -1.0 / grid.dt)
    prob = ParabolicProblem(domain=base.domain, coeffs=coeffs, f=base.f, g=base.g)
    oracle = GlobalSolution(values=np.zeros((grid.nt + 1, grid.nx_axis, 1)))
    with pytest.raises(SingularSystem, match=r"^sweep 1: singular matrix"):
        run(prob, grid, layout, SWRConfig(p=1.0, max_iters=2), oracle)


def test_march_rejects_operator_of_another_strip():
    prob, grid, _ = _tiny_run("heat1d")
    operator = StripOperator(prob, grid, 0, 10)
    closures = lambda k, t: (FaceClosure("dirichlet", np.zeros(1)),
                             FaceClosure("dirichlet", np.zeros(1)))
    with pytest.raises(ValueError, match="another problem, grid or axis range"):
        march(prob, grid, closures, 0, 12, operator=operator)
