"""Step assembly against a loop reference in either unknown order, the
operator's band map against assemble_step, and the stack operator's marches
(StackOperator.sweeps) against per-step assembly and per-strip solves:
results, the block-diagonal stacked matrix and static right-hand side, the
bandwidth of the chosen order, shared factorizations, the factor cache cap
and the steps it keeps (without fill rows when no row was swapped), the
banded solves against ?gbtrs, the factors a one-off march holds, and
singular steps."""

import dataclasses
import io
import math
import warnings
import weakref

import numpy as np
import pytest
from scipy.linalg import block_diag, solve_banded

import oswr.grid
from oswr import (AxisRange, CoefficientSet, DecompositionSpec, FaceRule,
                  GlobalSolution, InitialGuess, ParabolicProblem, RobinParameter,
                  StackOperator, SWRConfig, build_grid, initial_traces,
                  problem_from_table, problem_preset, run, snap, solve_global)
from oswr.engine import StackExchange, exchange, sweep_once
from oswr.errors import SingularSystem
from oswr.grid import (BandedLU, BandedSystem, SymmetricLDL, TridiagonalLU, _band_work,
                       _coefficient_table, _fortran, _step_terms, assemble_step, eval_plane)
from oswr.problem import PRESET_NAMES
from oswr.subdomain import axis_range, solve_subdomain


def _values(coeffs, t):
    """The coefficient values at t as assemble_step takes them."""
    return tuple(_coefficient_table(coeffs, np.array([t]))[0].tolist())


def _nodes(fn, grid, t, r):
    """fn at time t on the nodes of range r, (m, ncross), one call per step."""
    axis, cross = grid.axis_nodes()[r.lo:r.hi + 1], grid.cross_nodes()
    m, J = len(axis), len(cross)
    if grid.domain.n == 1:
        return np.broadcast_to(np.asarray(fn(t, axis), dtype=float), (m,)).reshape(m, 1)
    return np.broadcast_to(np.asarray(fn(t, cross[None, :], axis[:, None]), dtype=float),
                           (m, J))


def _lateral(prob, grid, t, r):
    """g at time t on the two lateral planes of range r (n=2), or ()."""
    if prob.domain.n == 1:
        return ()
    axis, cross = grid.axis_nodes()[r.lo:r.hi + 1], grid.cross_nodes()
    return tuple(np.broadcast_to(prob.g(t, x, axis), axis.shape) for x in (cross[0], cross[-1]))


def _loop_assemble(coeffs, grid, t, r, face_vals, lateral, u_prev, f_vals):
    """Row-by-row assembly of one range's step: the reference for the
    vectorized row patches.  face_vals holds the low and high face data at
    t, lateral the (m,) g values at j=0 and j=J-1 (n=2).  A Dirichlet row
    reads diag * u = diag * value, with diag the interior diagonal."""
    n, m, J = coeffs.n, r.hi - r.lo + 1, grid.nx_cross
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
        put(r, r, diag)
        rhs[r] = diag * value

    if n == 2:
        for i in range(m):
            dirichlet(i * J, lateral[0][i])
            dirichlet(i * J + J - 1, lateral[1][i])
    for face, vals, low in ((r.low, face_vals[0], True), (r.high, face_vals[1], False)):
        i0, inner = (0, 1) if low else (m - 1, m - 2)
        vals = np.atleast_1d(vals)
        for j in (range(1, J - 1) if n == 2 else range(J)):
            row = i0 * J + j
            if face.kind == "dirichlet":
                dirichlet(row, vals[j])
                continue
            p, s = face.p, face.sign
            drift = -2.0 * a_ax * p / (s * h) if low else 2.0 * a_ax * p / (s * h)
            clear(row)
            put(row, row, diag + drift - b_ax * p / s)
            put(row, inner * J + j, -2.0 * a_ax / h ** 2)
            if n == 2:
                put(row, row + 1, up_cr + a_mx * p / (s * hc))
                put(row, row - 1, dn_cr - a_mx * p / (s * hc))
            coef = (2.0 * a_ax / (s * h) + b_ax / s) if low else (2.0 * a_ax / (s * h) - b_ax / s)
            rhs[row] = (u_prev[i0, j] / dt + f_vals[i0, j]
                        + (-coef if low else coef) * vals[j])
            if n == 2:
                rhs[row] += (a_mx / (s * hc)) * (vals[j + 1] - vals[j - 1])
    return ab, rhs


def _order(m, J):
    """Where a range's unknowns hold the axis-major unknown i * J + j:
    cross-major (j * m + i) when the range is narrower than the cross
    section, axis-major otherwise."""
    i, j = np.divmod(np.arange(m * J), J)
    return j * m + i if m < J else i * J + j


def _band(dense, bw):
    """The dense matrix in solve_banded layout; every nonzero must fit."""
    n = dense.shape[0]
    ab = np.zeros((2 * bw + 1, n))
    for o in range(-bw, bw + 1):  # o = column - row
        rows = np.arange(max(0, -o), n - max(0, o))
        ab[bw - o, rows + o] = dense[rows, rows + o]
    assert np.count_nonzero(ab) == np.count_nonzero(dense)
    return ab


def _reordered_band(ab, bw, order, new_bw):
    """A (2*bw + 1, N) band with its unknowns moved to positions `order`,
    in a band of half-width new_bw."""
    dense = BandedSystem(bandwidth=bw, ab=ab, rhs=np.zeros(ab.shape[1])).to_dense()
    moved = np.zeros_like(dense)
    moved[np.ix_(order, order)] = dense
    return _band(moved, new_bw)


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
    J, ref_bw = grid.nx_cross, (grid.nx_cross + 1 if nx_cross else 1)
    # The whole axis (m >= J, axis-major) and, in 2D, a range narrower than
    # the cross section (m < J, cross-major); the loop reference is
    # axis-major and is compared after moving its unknowns.
    for lo, hi in ((0, nx - 1), (2, nx - 3)):
        m = hi - lo + 1
        order, bw = _order(m, J), (min(m, J) + 1 if nx_cross else 1)
        r = AxisRange(lo, hi, FaceRule(kinds[0], 1.7, low_sign), FaceRule(kinds[1], 0.9))
        zero = np.zeros((m, J))
        # The band at a time between grid times.
        ab = assemble_step(_values(prob.coeffs, 0.37), grid, [r])
        ref, _ = _loop_assemble(prob.coeffs, grid, 0.37, r, np.zeros((2, J)),
                                np.zeros((2, m)), zero, zero)
        assert np.array_equal(ab, _reordered_band(ref, ref_bw, order, bw))
        # Every step: the band, and the right-hand side for zero u_prev with
        # random face data.
        faces = rng.standard_normal((2, grid.nt + 1, J))
        rhs = StackOperator(prob, grid, [r]).rhs([faces])
        for k, t in enumerate(grid.times()[1:], start=1):
            ab = assemble_step(_values(prob.coeffs, t), grid, [r])
            ref, ref_rhs = _loop_assemble(prob.coeffs, grid, t, r, faces[:, k],
                                          _lateral(prob, grid, t, r), zero,
                                          _nodes(prob.f, grid, t, r))
            assert np.array_equal(ab, _reordered_band(ref, ref_bw, order, bw))
            assert np.array_equal(rhs[k][order], ref_rhs)
            # to_dense() reads the solve_banded layout: the dense system is solved.
            system = BandedSystem(bandwidth=bw, ab=ab, rhs=rhs[k])
            assert np.allclose(system.to_dense() @ system.solve(), system.rhs,
                               rtol=0.0, atol=1e-9 * np.max(np.abs(ref_rhs)))


def _same_bits(a, b):
    """Equal shapes and equal bits, signed zeros and nan payloads included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("preset", PRESET_NAMES)
@pytest.mark.parametrize("p", [0.5, 1.0, 7.0])
def test_band_map_matches_assemble_step(preset, p):
    # The operator's band map scatters each step's terms where
    # assemble_step's puts leave them, bit for bit, and nowhere else: the
    # oracle's single range, ranges narrower (cross-major in 2D) and wider
    # (axis-major) than the cross section, Dirichlet and Robin faces of
    # either sign.
    prob = problem_preset(preset)
    grid = build_grid(prob.domain, 17, 3, 9 if prob.domain.n == 2 else None)
    dirichlet = FaceRule("dirichlet")
    low, high = FaceRule("robin", p, -1.0), FaceRule("robin", p, 1.0)
    for ranges in ([AxisRange(0, 16, dirichlet, dirichlet)],
                   [AxisRange(0, 6, dirichlet, high), AxisRange(4, 14, low, high),
                    AxisRange(12, 16, low, dirichlet)],
                   [AxisRange(2, 14, high, low)]):
        operator = StackOperator(prob, grid, ranges)
        bw, N = operator.bandwidth, operator.size
        for values in operator._keys[1:]:
            work = _band_work(bw, N)
            work[operator._band_at] = _step_terms(values, grid, ranges)[operator._band_term]
            band = _fortran(work, 0, 3 * bw + 1, N)
            assert _same_bits(band[bw:], assemble_step(values, grid, ranges))
            assert not band[:bw].any() and not work[band.size:].any()


def _per_step_reference(prob, grid, r, data):
    """One range's march written out with _loop_assemble and a banded solve
    at every step."""
    m, J = r.hi - r.lo + 1, grid.nx_cross
    bw = J + 1 if prob.domain.n == 2 else 1
    u = np.empty((grid.nt + 1, m, J))
    u[0] = _nodes(prob.g, grid, 0.0, r)
    for k, t in enumerate(grid.times()[1:], start=1):
        ab, rhs = _loop_assemble(prob.coeffs, grid, t, r, data[:, k], _lateral(prob, grid, t, r),
                                 u[k - 1], _nodes(prob.f, grid, t, r))
        u[k] = solve_banded((bw, bw), ab, rhs).reshape(m, J)
    return u


def _picks(operator, seed):
    """Stand-in Robin traces for ranges that need not be a layout's: fixed
    unknowns of an iterate (of all steps or of one), one (ncross,) row per
    Robin face, as StackOperator.sweeps() takes traces."""
    cols = np.random.default_rng(seed).integers(
        0, operator.size, (len(operator._robin), operator.grid.nx_cross))
    return lambda u: u[..., cols]


def _with_robin(operator, faces, data):
    """The face pairs `faces`, (ranges, 2, nt+1, ncross), with the Robin
    faces' data replaced by data[:, q], q counting the Robin faces in range
    order, low face first."""
    flat = [vals for pair in faces for vals in pair]
    for q, i in enumerate(operator._robin):
        flat[i] = data[:, q]
    return np.reshape(flat, (-1, 2) + flat[0].shape)


OPERATOR_GRIDS = [("tvar1d", 15, None, 6), ("heat1d", 15, None, 6), ("tvar2d", 11, 7, 4)]


@pytest.mark.parametrize("preset,nx,nx_cross,nt", OPERATOR_GRIDS)
@pytest.mark.parametrize("orientation", ["outward", "paper"])
@pytest.mark.parametrize("kinds", FACES[1:])
@pytest.mark.parametrize("capped", [True, False], ids=["cap0", "uncapped"])
def test_operator_matches_per_step_assembly(monkeypatch, preset, nx, nx_cross, nt,
                                            orientation, kinds, capped):
    # Two overlapping ranges side by side, the second with the face kinds
    # swapped, each against its own per-step reference.
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", 0 if capped else 2 ** 40)
    prob = problem_preset(preset)
    grid = build_grid(prob.domain, nx, nt, nx_cross)
    p = RobinParameter(1.3, orientation=orientation)
    rules = [FaceRule(kind, p.p, p.sign(side)) for kind, side in zip(kinds, ("left", "right"))]
    ranges = [AxisRange(2, nx - 4, *rules), AxisRange(1, nx - 2, *rules[::-1])]
    operator = StackOperator(prob, grid, ranges)
    data = np.random.default_rng(9).standard_normal((len(ranges), 2, grid.nt + 1,
                                                     grid.nx_cross))
    traces = _picks(operator, 9)
    # The first march factors the steps, later ones reuse the kept ones and
    # take their Robin data from the iterate before.
    for u, _ in operator.sweeps(data, 3, traces):
        for r, faces, values in zip(ranges, data, operator._unstack(u)):
            ref = _per_step_reference(prob, grid, r, faces)
            assert np.max(np.abs(values - ref)) <= 1e-12
        data = _with_robin(operator, data, traces(u))
    assert (operator.nbytes == 0) == capped


# The 1D step kinds of test_1d_steps_match_per_step_assembly: the preset
# whose domain and data they take, their coefficients for a given dt (None:
# the preset's), the Robin orientation, and how many of the six steps, the
# first, take LDL^T.
STEP_KINDS = {
    # Advection b = 12 t beside a = 0.1 on h = 1/30 crosses a cell Peclet
    # number of 1 at t = 1/2: steps 1 and 2 take LDL^T, steps 3 to 6 ?gttrs
    # (at t = 1/2 an entry is 0).
    "mixed": ("heat1d", lambda dt: CoefficientSet.build(0.1, lambda t: 12.0 * t, 0.0),
              "outward", 2),
    # The three kinds of step whose symmetric form does not qualify: the
    # paper orientation's Robin low faces (wrong sign), a cell Peclet number
    # of 50 (a = 0.01, b = 30) and a reaction of -1.5/dt.
    "paper": ("tvar1d", None, "paper", 0),
    "peclet": ("tvar1d", lambda dt: CoefficientSet.build(0.01, 30.0, 0.0), "outward", 0),
    "reaction": ("tvar1d", lambda dt: CoefficientSet.build(1.0, 0.0, -1.5 / dt), "outward", 0),
}


@pytest.mark.parametrize("capped", [True, False], ids=["cap0", "uncapped"])
@pytest.mark.parametrize("kind", list(STEP_KINDS))
def test_1d_steps_match_per_step_assembly(monkeypatch, kind, capped):
    # Three ranges of a 1D layout.  Each march, with the folded and scaled
    # right-hand sides and Robin rows of the LDL^T steps only, matches the
    # per-step reference of every range; the other steps take ?gttrs.  The
    # LDL^T steps' forms are checked on their dense matrices.
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", 0 if capped else 2 ** 40)
    preset, coeffs, orientation, ldl = STEP_KINDS[kind]
    prob = problem_preset(preset)
    grid = build_grid(prob.domain, 31, 6)
    if coeffs is not None:
        prob = ParabolicProblem(domain=prob.domain, f=prob.f, g=prob.g, coeffs=coeffs(grid.dt))
    p = RobinParameter(1.3, orientation=orientation)
    low, high = FaceRule("robin", p.p, p.sign("left")), FaceRule("robin", p.p, p.sign("right"))
    dirichlet = FaceRule("dirichlet")
    ranges = [AxisRange(0, 12, dirichlet, high), AxisRange(8, 22, low, high),
              AxisRange(18, 30, low, dirichlet)]
    operator = StackOperator(prob, grid, ranges)
    takes_ldl = [key in operator._ldl for key in operator._keys[1:]]
    assert takes_ldl == [True] * ldl + [False] * (grid.nt - ldl)
    _check_symmetric_forms(operator)
    assert all(isinstance(operator._factor(key, keep=False), TridiagonalLU)
               for key in set(operator._keys[1:]) - set(operator._ldl))
    data = np.random.default_rng(8).standard_normal((len(ranges), 2, grid.nt + 1, 1))
    traces = _picks(operator, 8)
    for u, _ in operator.sweeps(data, 3, traces):
        for r, faces, values in zip(ranges, data, operator._unstack(u)):
            ref = _per_step_reference(prob, grid, r, faces)
            assert np.max(np.abs(values - ref)) <= 1e-12 * np.max(np.abs(ref))
        data = _with_robin(operator, data, traces(u))
    assert (operator.nbytes == 0) == capped


def _tiny_run(preset, nt=6, nx_cross=None):
    prob = problem_preset(preset)
    grid = build_grid(prob.domain, 31 if nx_cross is None else 13, nt, nx_cross)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        layout = snap(DecompositionSpec.uniform(prob.domain, 3, 0.2), grid)
    return prob, grid, layout


def _stack(prob, grid, layout, p):
    return StackOperator(prob, grid, [axis_range(e, p) for e in layout.entries])


@pytest.mark.parametrize("preset,nx_cross", [("tvar1d", None), ("tvar2d", 7)])
def test_stacked_matrix_is_block_diagonal(preset, nx_cross):
    prob, grid, layout = _tiny_run(preset, nt=4, nx_cross=nx_cross)
    p = RobinParameter(1.0)
    operator = _stack(prob, grid, layout, p)
    J, bw = grid.nx_cross, operator.bandwidth
    ref_bw = J + 1 if nx_cross else 1
    sizes = [(r.hi - r.lo + 1) * J for r in operator.ranges]
    order = np.concatenate([start + _order(r.hi - r.lo + 1, J) for r, start
                            in zip(operator.ranges, np.cumsum([0] + sizes))])
    zero = np.zeros((grid.nt + 1, J))
    static = operator.rhs([(zero, zero)] * len(operator.ranges))
    for k, t in enumerate(grid.times()[1:], start=1):
        blocks, rhs = [], []
        for r in operator.ranges:
            m = r.hi - r.lo + 1
            ab, b = _loop_assemble(prob.coeffs, grid, t, r, np.zeros((2, J)),
                                   _lateral(prob, grid, t, r),
                                   np.zeros((m, J)), _nodes(prob.f, grid, t, r))
            blocks.append(BandedSystem(bandwidth=ref_bw, ab=ab, rhs=b).to_dense())
            rhs.append(b)
        stacked = BandedSystem(
            bandwidth=bw, rhs=static[k],
            ab=assemble_step(_values(prob.coeffs, t), grid, operator.ranges))
        assert np.array_equal(stacked.to_dense()[np.ix_(order, order)], block_diag(*blocks))
        assert np.array_equal(stacked.rhs[order], np.concatenate(rhs))


@pytest.mark.parametrize("preset,nx_cross", [("tvar1d", None), ("tvar2d", 7)])
def test_sweep_matches_per_strip_solves(preset, nx_cross):
    prob, grid, layout = _tiny_run(preset, nx_cross=nx_cross)
    p = RobinParameter(1.0)
    operator = _stack(prob, grid, layout, p)
    traces = initial_traces(InitialGuess("random-smooth", seed=3), layout, grid, prob)
    sols = sweep_once(prob, grid, layout, traces, p)
    # The second sweep runs on the kept factors, from the first's traces.
    for u, _ in operator.sweeps(traces, 2, StackExchange(operator, traces).traces):
        for entry, sol, v in zip(layout.entries, sols, operator._unstack(u)):
            ref = solve_subdomain(prob, grid, entry, *traces[entry.index], p)
            assert (sol.index, sol.i_left) == (ref.index, ref.i_left)
            assert np.max(np.abs(sol.values - ref.values)) <= 1e-12
            assert np.max(np.abs(v - ref.values)) <= 1e-12
        traces = exchange(sols, layout, grid, p, traces)
        sols = sweep_once(prob, grid, layout, traces, p)
    assert operator.nbytes > 0


@pytest.mark.parametrize("preset,per_run", [("heat1d", 1), ("tvar1d", 6)])
def test_factorizations_per_run(preset, per_run):
    prob, grid, layout = _tiny_run(preset)
    p = RobinParameter(1.0)
    operator = _stack(prob, grid, layout, p)
    traces = initial_traces(InitialGuess("random-smooth", seed=1), layout, grid, prob)
    list(operator.sweeps(traces, 3, StackExchange(operator, traces).traces))
    assert operator.factorizations == per_run
    assert operator.nbytes > 0


@pytest.mark.parametrize("preset,nx_cross", [("heat1d", None), ("heat2d", 7)])
def test_step_solves_in_place(preset, nx_cross):
    # A march solves each step in the iterate's row that holds its
    # right-hand side (?pttrs in 1D, ?tbsv in 2D); BandedSystem.solve leaves
    # its right-hand side as it is.  In 1D the operator's LDL^T factors
    # solve the step's symmetric form, BandedSystem's ?gttrf factors the
    # band itself: they are compared with ?gttrs in place, here in u[2].
    prob, grid, layout = _tiny_run(preset, nx_cross=nx_cross)
    operator = _stack(prob, grid, layout, RobinParameter(1.0))
    lu = operator._factor(operator._keys[1], keep=False)
    u = np.random.default_rng(5).standard_normal((3, operator.size))
    rhs = u[1].copy()
    x = lu.solve(u[1])
    assert np.shares_memory(x, u) and np.array_equal(x, u[1])
    ab = oswr.grid.assemble_step(operator._keys[1], grid, operator.ranges)
    system = BandedSystem(bandwidth=operator.bandwidth, ab=ab, rhs=rhs)
    if nx_cross is None:
        assert isinstance(lu, SymmetricLDL)
        gttrf = system.factor()
        assert isinstance(gttrf, TridiagonalLU)
        u[2] = rhs
        x = gttrf.solve(u[2])
        assert np.shares_memory(x, u) and np.array_equal(x, u[2])
    assert np.array_equal(system.solve(), x)
    assert np.array_equal(system.rhs, rhs) and not np.array_equal(rhs, x)


ONE_D_PRESETS = ("heat1d", "affine1d", "sin1d", "tvar1d")


@pytest.mark.parametrize("preset", ONE_D_PRESETS)
@pytest.mark.parametrize("orientation", ["outward", "paper"])
@pytest.mark.parametrize("kinds", FACES)
def test_tridiagonal_solves_match_dense(preset, orientation, kinds):
    # Every 1D step solves its assembled system as a dense solve does, by
    # LDL^T, on the right-hand side folded and scaled as a march does it
    # (_scale), where its symmetric form qualifies, else by ?gttrs; and so
    # does BandedSystem, always by ?gttrs.  Ranges as a layout orders its
    # faces, and swapped.  A Robin face whose sign is not the outward one
    # (-1 low, +1 high: the paper's low faces, the swapped outward faces)
    # has a row that is not diagonally dominant, and its steps take ?gttrs.
    prob = problem_preset(preset)
    grid = build_grid(prob.domain, 15, 6)
    p = RobinParameter(1.3, orientation=orientation)
    rules = [FaceRule(kind, p.p, p.sign(side)) for kind, side in zip(kinds, ("left", "right"))]
    rng = np.random.default_rng(3)
    for swapped in (False, True):
        ranges = ([AxisRange(2, 11, *rules), AxisRange(1, 13, *rules[::-1])] if swapped
                  else [AxisRange(0, 8, *rules), AxisRange(5, 14, *rules)])
        operator = StackOperator(prob, grid, ranges)
        for key in dict.fromkeys(operator._keys[1:]):
            system = BandedSystem(bandwidth=1, ab=assemble_step(key, grid, ranges),
                                  rhs=rng.standard_normal(operator.size))
            ref = np.linalg.solve(system.to_dense(), system.rhs)
            lu = operator._factor(key, keep=False)
            assert isinstance(lu, SymmetricLDL) != any(
                face.kind == "robin" and face.sign != (-1.0 if low else 1.0)
                for r in ranges for face, low in ((r.low, True), (r.high, False)))
            b = np.tile(system.rhs, (grid.nt + 1, 1))
            if operator._ldl:
                operator._scale(b)
            for x in (lu.solve(b[operator._keys.index(key)]), system.solve()):
                assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def _meets_the_rule(A):
    """Whether the dense 1D step matrix A has a symmetric form by the rule,
    stated on its entries alone: every row strictly diagonally dominant
    with a positive diagonal; each pair of neighbours coupled both ways, or
    one way into a bare row (a Dirichlet row, folded), or not at all; and
    R, 1 at the start of each run of coupled pairs and
    R[i+1] = R[i] A[i, i+1] / A[i+1, i] along it, normal and positive, with
    max R * max |A| finite."""
    d, up, down = np.diag(A).tolist(), np.diag(A, 1).tolist(), np.diag(A, -1).tolist()
    right, left = [abs(x) for x in up] + [0.0], [0.0] + [abs(x) for x in down]
    if not all(di > r + le for di, r, le in zip(d, right, left)):
        return False
    bare = [r == le == 0 for r, le in zip(right, left)]
    R = [1.0]
    for i, (a, b) in enumerate(zip(up, down)):
        if a and b:
            R.append(R[i] * a / b)
        elif (a and not bare[i + 1]) or (b and not bare[i]):
            return False
        else:
            R.append(1.0)
    return min(R) >= np.finfo(float).tiny and math.isfinite(max(R) * np.abs(A).max())


def _check_symmetric_forms(operator):
    """Each distinct step of a 1D operator takes LDL^T exactly when its
    dense matrix meets the rule (_meets_the_rule), and then R A, with the
    operator's folds applied, is symmetric to rounding."""
    N = operator.size
    for key in dict.fromkeys(operator._keys[1:]):
        A = BandedSystem(bandwidth=1, ab=assemble_step(key, operator.grid, operator.ranges),
                         rhs=np.zeros(N)).to_dense()
        assert (key in operator._ldl) == _meets_the_rule(A)
        if key in operator._ldl:
            i = operator._ldl[key]
            _, R, fold_by = operator._forms
            fold = np.eye(N)
            fold[operator._folds] = -fold_by[i]
            S = R[i, :, None] * (fold @ A)
            assert np.max(np.abs(S - S.T)) <= 1e-14 * np.max(np.abs(S))


@pytest.mark.parametrize("preset", ONE_D_PRESETS)
@pytest.mark.parametrize("orientation", ["outward", "paper"])
@pytest.mark.parametrize("kinds", FACES)
@pytest.mark.parametrize("p", [0.5, 1.0, 8.0])
def test_symmetric_forms_from_the_faces(preset, orientation, kinds, p):
    # The forms StackOperator states per range, checked against the dense
    # step matrices, for ranges as a layout orders their faces and swapped
    # (test_1d_steps_match_per_step_assembly checks its step kinds' forms).
    prob = problem_preset(preset)
    grid = build_grid(prob.domain, 15, 6)
    p = RobinParameter(p, orientation=orientation)
    rules = [FaceRule(kind, p.p, p.sign(side)) for kind, side in zip(kinds, ("left", "right"))]
    for ranges in ([AxisRange(0, 8, *rules), AxisRange(5, 14, *rules)],
                   [AxisRange(2, 11, *rules), AxisRange(1, 13, *rules[::-1])]):
        _check_symmetric_forms(StackOperator(prob, grid, ranges))


@pytest.mark.parametrize("kinds", [("dirichlet", "robin"), ("robin", "dirichlet")])
def test_two_node_range_with_one_dirichlet_face(kinds):
    # A range of two nodes, one face Dirichlet and the other Robin, would
    # fold its Dirichlet row into its Robin face row, whose right-hand side
    # sweeps() rewrites without the fold: no step takes LDL^T, though the
    # whole axis with these faces does, and the marches match the per-step
    # reference.
    prob = problem_preset("heat1d")
    grid = build_grid(prob.domain, 15, 6)
    p = RobinParameter(1.3)
    rules = [FaceRule(kind, p.p, p.sign(side)) for kind, side in zip(kinds, ("left", "right"))]
    ranges = [AxisRange(0, 14, *rules), AxisRange(6, 7, *rules)]
    assert StackOperator(prob, grid, ranges[:1])._ldl
    operator = StackOperator(prob, grid, ranges)
    assert not operator._ldl
    data = np.random.default_rng(6).standard_normal((len(ranges), 2, grid.nt + 1, 1))
    traces = _picks(operator, 6)
    for u, _ in operator.sweeps(data, 3, traces):
        for r, faces, values in zip(ranges, data, operator._unstack(u)):
            ref = _per_step_reference(prob, grid, r, faces)
            assert np.max(np.abs(values - ref)) <= 1e-12 * np.max(np.abs(ref))
        data = _with_robin(operator, data, traces(u))


@pytest.mark.parametrize("preset,nx,nt,count,overlap,p_values",
                         [("tvar1d", 401, 200, 4, 0.1, (1.0,)),
                          ("heat1d", 201, 50, 8, 0.08, (1.0, 2.0, 4.0, 8.0))],
                         ids=["tvar1d-long", "heat1d-psweep"])
def test_benchmark_steps_take_ldl(monkeypatch, preset, nx, nt, count, overlap, p_values):
    # Every step solve of the benchmark's 1D cases, the oracle's and each
    # p's run's, is one ?pttrs: (1 + sweeps) * nt solves, and none is an LU
    # solve, tridiagonal or banded.
    prob = problem_preset(preset)
    grid = build_grid(prob.domain, nx, nt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        layout = snap(DecompositionSpec.uniform(prob.domain, count, overlap), grid)
    solves = {SymmetricLDL: 0, TridiagonalLU: 0, BandedLU: 0}
    for lu_class in solves:
        def counted(self, rhs, _solve=lu_class.solve, _lu_class=lu_class):
            solves[_lu_class] += 1
            return _solve(self, rhs)

        monkeypatch.setattr(lu_class, "solve", counted)
    oracle = solve_global(prob, grid)
    assert solves == {SymmetricLDL: nt, TridiagonalLU: 0, BandedLU: 0}
    config = SWRConfig(p=1.0, max_iters=4, guess=InitialGuess("random-smooth", seed=7))
    for p in p_values:
        run(prob, grid, layout, dataclasses.replace(config, p=RobinParameter(p)), oracle)
    assert solves == {SymmetricLDL: nt + len(p_values) * 4 * nt, TridiagonalLU: 0, BandedLU: 0}


def _outside_the_rule(case):
    """A tiny 1D run none of whose steps qualifies for LDL^T: cell Peclet
    number 75 (up and down entries of opposite sign) or a reaction below
    -1/dt (no row diagonally dominant)."""
    base = problem_preset("heat1d")
    grid = build_grid(base.domain, 21, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        layout = snap(DecompositionSpec.uniform(base.domain, 3, 0.2), grid)
    coeffs = (CoefficientSet.build(0.01, 30.0, 0.0) if case == "convective"
              else CoefficientSet.build(1.0, 0.0, -1.5 / grid.dt))
    return ParabolicProblem(domain=base.domain, coeffs=coeffs, f=base.f, g=base.g), grid, layout


@pytest.mark.parametrize("case", ["convective", "reaction"])
def test_steps_outside_the_rule_keep_their_bits(monkeypatch, case):
    # The steps take ?gttrs, and the oracle's values and a run's
    # history.csv bytes are those of a march with no symmetric form, the
    # tridiagonal LU path throughout.
    prob, grid, layout = _outside_the_rule(case)
    operator = _stack(prob, grid, layout, RobinParameter(1.0))
    assert not operator._ldl
    assert isinstance(operator._factor(operator._keys[1], keep=False), TridiagonalLU)
    config = SWRConfig(p=1.0, max_iters=4, guess=InitialGuess("random-smooth", seed=2))
    outputs = []
    for symmetric in (True, False):
        if not symmetric:
            monkeypatch.setattr(StackOperator, "_prepare_symmetric", lambda self, keys: None)
        oracle = solve_global(prob, grid)
        csv = io.StringIO()
        run(prob, grid, layout, config, oracle).write_csv(csv)
        outputs.append((oracle.values.tobytes(), csv.getvalue()))
    assert outputs[0] == outputs[1]


def test_kept_symmetric_factors_within_the_cap(monkeypatch):
    # A kept LDL^T step holds ?pttrf's two diagonals, 8 * (2N - 1) bytes,
    # the bytes the block rule reads per step.  Under a cap of 2.5 steps,
    # the first two steps are kept.
    prob, grid, layout = _tiny_run("tvar1d")
    operator = _stack(prob, grid, layout, RobinParameter(1.0))
    step = 8 * (2 * operator.size - 1)
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", 5 * step // 2)
    faces = np.random.default_rng(4).standard_normal((len(operator.ranges), 2,
                                                      grid.nt + 1, 1))
    list(operator.sweeps(faces, 2, _picks(operator, 4)))
    assert list(operator._lus) == operator._keys[1:3] and operator.nbytes == 2 * step
    assert all(isinstance(lu, SymmetricLDL) and lu.nbytes == step
               for lu in operator._lus.values())


def test_cap_zero_refactors_every_step(monkeypatch):
    prob, grid, layout = _tiny_run("heat1d")
    p = RobinParameter(1.0)
    operator = _stack(prob, grid, layout, p)
    # The cap is read when factors are kept, not when the operator is built.
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", 0)
    traces = initial_traces(InitialGuess(), layout, grid, prob)
    list(operator.sweeps(traces, 3, StackExchange(operator, traces).traces))
    # Nothing is kept, so every march factors again; heat1d's steps are all
    # equal, so a march factors its first step and reuses it for the rest.
    assert operator.factorizations == 3
    assert operator.nbytes == 0


def test_equal_steps_share_factors(monkeypatch, tmp_path):
    # a11 is 1 up to t = 0.55 and 2 from t = 0.6 on, so the six steps have
    # two distinct matrices.
    table = tmp_path / "plateaus.csv"
    table.write_text("t,a11,b1,c\n0,1,0.5,1\n0.55,1,0.5,1\n0.6,2,0.5,1\n1,2,0.5,1\n")
    base, grid, layout = _tiny_run("heat1d")
    prob = problem_from_table(str(table), base.domain)
    p = RobinParameter(1.0)
    traces = initial_traces(InitialGuess("random-smooth", seed=2), layout, grid, prob)
    sols = {}
    for cap in (0, 2 ** 40):
        monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
        operator = _stack(prob, grid, layout, p)
        sols[cap] = [u for u, _ in operator.sweeps(traces, 3,
                                                  StackExchange(operator, traces).traces)]
        # Kept: one per plateau per run; not kept: one per plateau per sweep.
        assert operator.factorizations == (2 if cap else 2 * 3)
    assert all(map(np.array_equal, sols[0], sols[2 ** 40]))


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


def _singular_run(preset, nx_cross=None):
    # a = b = 0 and c = -1/dt zero the interior diagonal; the factorization
    # reports the zero pivot instead of the solve returning inf/nan.
    base, grid, layout = _tiny_run(preset, nx_cross=nx_cross)
    if nx_cross is None:
        coeffs = CoefficientSet.build(0.0, 0.0, -1.0 / grid.dt)
    else:
        coeffs = CoefficientSet.build([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0], -1.0 / grid.dt)
    prob = ParabolicProblem(domain=base.domain, coeffs=coeffs, f=base.f, g=base.g)
    oracle = GlobalSolution(values=np.zeros((grid.nt + 1, grid.nx_axis, grid.nx_cross)))
    with pytest.raises(SingularSystem, match=r"^sweep 1: singular matrix"):
        run(prob, grid, layout, SWRConfig(p=1.0, max_iters=2), oracle)


@pytest.mark.parametrize("cap", [0, 2 ** 40], ids=["per-step", "cached"])
def test_singular_step_raises(monkeypatch, cap):
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
    _singular_run("heat1d")  # bandwidth 1: ?gttrf


def test_singular_tridiagonal_band_names_its_pivot():
    # Column 1 of this tridiagonal matrix is zero: ?gttrf reports the zero
    # pivot at unknown 1.
    ab = np.array([[0.0, 0.0, 1.0, 1.0], [2.0, 0.0, 2.0, 2.0], [1.0, 0.0, 1.0, 0.0]])
    with pytest.raises(SingularSystem, match=r"^singular matrix: zero pivot at unknown 1$"):
        BandedSystem(bandwidth=1, ab=ab, rhs=np.ones(4)).factor()


@pytest.mark.parametrize("cap", [0, 2 ** 40], ids=["per-step", "cached"])
def test_singular_banded_step_raises(monkeypatch, cap):
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
    _singular_run("heat2d", nx_cross=7)  # bandwidth 8: ?gbtrf


def _wide_layout_ranges(preset="tvar2d"):
    # tvar2d-wide's layout: 41 x 41 nodes, 20 steps, 3 strips of 18/23/18
    # axis nodes.
    prob = problem_preset(preset)
    grid = build_grid(prob.domain, 41, 20, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the interfaces snap to nodes
        layout = snap(DecompositionSpec.uniform(prob.domain, 3, 0.2), grid)
    return prob, grid, [axis_range(e, RobinParameter(1.0)) for e in layout.entries]


def test_bandwidth_follows_the_narrower_ordering():
    prob, grid, ranges = _wide_layout_ranges()
    assert [r.hi - r.lo + 1 for r in ranges] == [18, 23, 18]
    # Strips narrower than the cross section are ordered cross-major.
    assert StackOperator(prob, grid, ranges).bandwidth == 24
    rule = FaceRule("dirichlet")
    # A tie (41 = 41, the oracle's range) keeps axis-major; a range wider
    # than the cross section is axis-major too.
    assert StackOperator(prob, grid, [AxisRange(0, 40, rule, rule)]).bandwidth == 42
    narrow = build_grid(prob.domain, 41, 20, 9)
    assert StackOperator(prob, narrow, [AxisRange(0, 8, rule, rule)]).bandwidth == 10
    assert StackOperator(prob, narrow, [AxisRange(0, 17, rule, rule)]).bandwidth == 10
    # The widest corner offset over the ranges sets the stacked band.
    assert StackOperator(prob, grid, [AxisRange(0, 9, rule, rule),
                                      AxisRange(5, 40, rule, rule)]).bandwidth == 37
    heat1d = problem_preset("heat1d")
    line = build_grid(heat1d.domain, 41, 20)
    assert StackOperator(heat1d, line, [AxisRange(0, 40, rule, rule)]).bandwidth == 1


def test_wide_layout_keeps_seventeen_steps(monkeypatch):
    prob, grid, ranges = _wide_layout_ranges()
    # Built under a cap that holds every step, the operator marches sweep by
    # sweep (block 1); the 16 MiB cap is read as it keeps factors.
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", 2 ** 40)
    operator = StackOperator(prob, grid, ranges)
    monkeypatch.undo()
    zero = np.zeros((grid.nt + 1, grid.nx_cross))
    faces = [(zero, zero)] * len(ranges)
    marches = operator.sweeps(faces, 2, StackExchange(operator, faces).traces)
    next(marches)
    # The first march factors all 20 steps and keeps the first 17: ?gbtrf
    # swaps no row, so each kept step holds its 2*bw + 1 band rows and no
    # fill rows.  The second re-factors the last 3.
    bw, N = operator.bandwidth, operator.size
    assert operator.block == 1 and operator.factorizations == grid.nt == 20
    next(marches)
    assert operator.factorizations == 23
    assert list(operator._lus) == operator._keys[1:18]
    for lu in operator._lus.values():
        assert lu.lu.shape == (2 * bw + 1, N) and lu.lu.flags.f_contiguous
        assert np.array_equal(lu.piv, np.arange(N))
    assert operator.nbytes == 17 * ((2 * bw + 1) * N * 8 + N * 4)
    assert operator.nbytes <= oswr.grid.FACTOR_CACHE_BYTES < 18 * operator.nbytes / 17


def test_pivoting_step_keeps_its_fill_rows(monkeypatch):
    # Axis advection b/(2h) = 1500 beside a diagonal of 276: ?gbtrf swaps
    # rows, so the kept factors hold all their rows, fill rows included,
    # are solved by ?gbtrs, and solve as the factors that are not kept do.
    base = problem_preset("heat2d")
    coeffs = CoefficientSet.build([[1.0, 0.0], [0.0, 1.0]], [0.0, 300.0], 0.0)
    prob = ParabolicProblem(domain=base.domain, coeffs=coeffs, f=base.f, g=base.g)
    grid = build_grid(prob.domain, 11, 4, 7)
    rule = FaceRule("robin", 1.0)
    ranges = [AxisRange(0, 6, FaceRule("dirichlet"), rule), AxisRange(4, 10, rule, rule)]
    faces = np.random.default_rng(3).standard_normal((2, 2, grid.nt + 1, grid.nx_cross))
    sols = {}
    for cap in (0, 2 ** 40):
        monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
        operator = StackOperator(prob, grid, ranges)
        sols[cap] = [u for u, _ in operator.sweeps(faces, 2, _picks(operator, 3))]
    lu, = operator._lus.values()  # heat2d's steps are all equal
    bw = operator.bandwidth
    assert np.any(lu.piv != np.arange(operator.size))
    assert lu.lu.shape[0] == 3 * bw + 1 and np.any(lu.lu[:bw]) and lu.lower is None
    assert all(map(np.array_equal, sols[0], sols[2 ** 40]))


@pytest.mark.parametrize("kind", ["block", "kept", "oracle"])
def test_triangular_solves_equal_gbtrs(kind):
    # Where ?gbtrf swapped no row, BandedLU solves by two ?tbsv calls on
    # views of its factors, with the bits of ?gbtrs on the same factors:
    # the untrimmed factors of a block (tvar2d-wide's layout), kept trimmed
    # factors (heat2d, same layout) and the oracle's band (bw 42).
    prob, grid, ranges = _wide_layout_ranges("heat2d" if kind == "kept" else "tvar2d")
    if kind == "oracle":
        rule = FaceRule("dirichlet")
        ranges = [AxisRange(0, grid.nx_axis - 1, rule, rule)]
    operator = StackOperator(prob, grid, ranges)
    bw, N = operator.bandwidth, operator.size
    rng = np.random.default_rng(7)
    for key in dict.fromkeys(operator._keys[1:]):
        lu = operator._factor(key, keep=kind == "kept")
        assert lu.lower is not None
        assert lu.lu.shape == ((2 if kind == "kept" else 3) * bw + 1, N)
        for rhs in rng.standard_normal((3, N)):
            ref, info = oswr.grid.dgbtrs(lu.lu, bw, lu.lu.shape[0] - 1 - 2 * bw, rhs, lu.piv)
            assert info == 0 and _same_bits(lu.solve(rhs.copy()), ref)
    assert operator.factorizations == len(set(operator._keys[1:]))


def test_factors_of_a_copying_gbtrf(monkeypatch):
    # Should ?gbtrf's wrapper hand back the factors in a new array instead
    # of the work array it was given, BandedLU still holds the factors.
    prob, grid, ranges = _wide_layout_ranges("tvar2d")
    operator = StackOperator(prob, grid, ranges)
    key = operator._keys[1]
    ref = operator._factor(key, keep=False)
    dgbtrf = oswr.grid.dgbtrf
    monkeypatch.setattr(oswr.grid, "dgbtrf", lambda ab, *args, **kwargs: dgbtrf(
        ab.copy(order="F"), *args, **kwargs))
    lu = operator._factor(key, keep=False)
    assert _same_bits(lu.lu, ref.lu) and lu.lower is not None
    rhs = np.random.default_rng(5).standard_normal(operator.size)
    assert _same_bits(lu.solve(rhs.copy()), ref.solve(rhs.copy()))


def _convective():
    # Axis and cross advection of 25 and 30 beside a diffusion of 0.02 and
    # 0.05: ?gbtrf swaps rows on every step.
    base = problem_preset("heat2d")
    coeffs = CoefficientSet.build([[0.05, 0.0], [0.0, 0.02]], [30.0, 25.0], 0.0)
    return ParabolicProblem(domain=base.domain, coeffs=coeffs, f=base.f, g=base.g)


@pytest.mark.parametrize("preset,solver", [("convective", "?gbtrs"), ("tvar2d", "?tbsv")])
def test_history_bits_without_triangular_solves(monkeypatch, preset, solver):
    # The oracle's values and a run's history.csv bytes are the same when
    # every banded step is solved by ?gbtrs.  All banded solves of the
    # convective case take ?gbtrs anyway, the swapped rows' only solve;
    # tvar2d's take ?tbsv.
    prob = _convective() if preset == "convective" else problem_preset(preset)
    grid = build_grid(prob.domain, 31, 10, 31)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the interfaces snap to nodes
        layout = snap(DecompositionSpec.uniform(prob.domain, 3, 0.2), grid)
    config = SWRConfig(p=1.0, max_iters=6)
    solvers = []
    solve = oswr.grid.BandedLU.solve

    def counted(self, rhs):
        solvers.append("?gbtrs" if self.lower is None else "?tbsv")
        return solve(self, rhs)

    monkeypatch.setattr(oswr.grid.BandedLU, "solve", counted)
    outputs = []
    for triangular in (True, False):
        if not triangular:
            factor_band = oswr.grid._factor_band
            monkeypatch.setattr(oswr.grid, "_factor_band", lambda *args: dataclasses.replace(
                factor_band(*args), lower=None, upper=None))
        oracle = solve_global(prob, grid)
        csv = io.StringIO()
        run(prob, grid, layout, config, oracle).write_csv(csv)
        outputs.append((oracle.values.tobytes(), csv.getvalue()))
        if triangular:  # the oracle's 10 steps, then 6 sweeps of 10 steps
            assert solvers == [solver] * 70
    assert solvers[70:] == ["?gbtrs"] * 70
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("preset,nx_cross", [("tvar1d", None), ("tvar2d", 7)])
@pytest.mark.parametrize("kept", [1, 4])
def test_cap_keeps_the_first_steps(monkeypatch, preset, nx_cross, kept):
    # Every step of a tvar preset has its own matrix.  A cap that holds
    # exactly the first `kept` steps' factors, and less than any other
    # step's more, keeps steps 1..kept, the first factored, and the marches
    # equal those of an operator that keeps all.  (Kept steps differ in
    # size where ?gbtrf swapped rows: those keep their fill rows.)
    prob, grid, layout = _tiny_run(preset, nx_cross=nx_cross)
    ranges = [axis_range(e, RobinParameter(1.0)) for e in layout.entries]
    faces = np.random.default_rng(11).standard_normal((len(ranges), 2, grid.nt + 1,
                                                       grid.nx_cross))
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", 2 ** 40)
    every = StackOperator(prob, grid, ranges)
    traces = _picks(every, 11)
    ref = [u for u, _ in every.sweeps(faces, 3, traces)]
    sizes = [lu.nbytes for lu in every._lus.values()]
    assert list(every._lus) == every._keys[1:] and every.nbytes == sum(sizes)
    first = sum(sizes[:kept])
    for cap in (first, first + min(sizes[kept:]) - 1):
        # Built under the cap that keeps all, the operator marches sweep by
        # sweep; the cap is read as it keeps factors.
        monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", 2 ** 40)
        operator = StackOperator(prob, grid, ranges)
        monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
        assert all(map(np.array_equal, (u for u, _ in operator.sweeps(faces, 3, traces)), ref))
        assert list(operator._lus) == operator._keys[1:kept + 1]
        assert operator.nbytes == first
        assert operator.factorizations == kept + 3 * (grid.nt - kept)


@pytest.mark.parametrize("preset,factored", [("heat1d", 1), ("tvar1d", 6), ("plateaus", 2)])
def test_one_off_march_holds_one_step(monkeypatch, tmp_path, preset, factored):
    # A one-off march keeps no factors and holds one step's at a time: it
    # makes a step's factors only when the step's matrix differs from the
    # previous step's, after letting the previous ones go.
    prob, grid, _ = _tiny_run("heat1d" if preset == "plateaus" else preset)
    if preset == "plateaus":  # a11 changes once, between t = 0.5 and t = 0.667
        table = tmp_path / "plateaus.csv"
        table.write_text("t,a11,b1,c\n0,1,0.5,1\n0.55,1,0.5,1\n0.6,2,0.5,1\n1,2,0.5,1\n")
        prob = problem_from_table(str(table), prob.domain)
    made, operators = [], []
    factor_band = oswr.grid._factor_band

    def tracked(*args):
        assert all(ref() is None for ref in made)
        lu = factor_band(*args)
        made.append(weakref.ref(lu))
        return lu

    class Recorded(StackOperator):
        def __init__(self, *args):
            super().__init__(*args)
            operators.append(self)

    monkeypatch.setattr(oswr.grid, "_factor_band", tracked)
    monkeypatch.setattr(oswr.grid, "StackOperator", Recorded)
    values = solve_global(prob, grid).values
    operator, = operators
    assert operator.factorizations == len(made) == factored
    assert operator.nbytes == 0 and not operator._lus
    monkeypatch.undo()
    assert np.array_equal(values, _per_step_global(prob, grid))


def _per_step_global(prob, grid):
    """The monolithic march on an operator that has kept every step."""
    rule = FaceRule("dirichlet")
    operator = StackOperator(prob, grid, [AxisRange(0, grid.nx_axis - 1, rule, rule)])
    for key in set(operator._keys[1:]):
        operator._factor(key, keep=True)
    faces = [(eval_plane(prob.g, grid, prob.domain.alpha),
              eval_plane(prob.g, grid, prob.domain.beta))]
    values, = operator._unstack(next(operator.sweeps(faces))[0])
    assert operator.factorizations == len(operator._lus)
    return values
