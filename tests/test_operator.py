"""Step assembly against a loop reference in either unknown order, and the
stack operator against per-step assembly and per-strip solves: results, the
block-diagonal stacked matrix and static right-hand side, the bandwidth of
the chosen order, shared factorizations, the factor cache cap and the steps
it keeps (without empty fill rows), the factors a one-off march holds, and
singular steps."""

import warnings
import weakref

import numpy as np
import pytest
from scipy.linalg import block_diag, solve_banded

import oswr.grid
from oswr import (AxisRange, BandedSystem, CoefficientSet, DecompositionSpec,
                  FaceRule, GlobalSolution, InitialGuess, ParabolicProblem,
                  RobinParameter, StackOperator, SWRConfig, assemble_step, build_grid,
                  initial_traces, problem_from_table, problem_preset, run, snap,
                  solve_global, solve_subdomain, sweep_once)
from oswr.errors import SingularSystem
from oswr.grid import _coefficient_table, eval_plane
from oswr.subdomain import axis_range


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
    rng = np.random.default_rng(9)
    for _ in range(3):  # the first march factors the steps, later ones reuse the kept ones
        data = rng.standard_normal((len(ranges), 2, grid.nt + 1, grid.nx_cross))
        got = operator._unstack(operator.solve(data))
        for r, faces, values in zip(ranges, data, got):
            ref = _per_step_reference(prob, grid, r, faces)
            assert np.max(np.abs(values - ref)) <= 1e-12
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
    for _ in range(2):  # the second sweep runs on the kept factors
        values = operator._unstack(operator.solve(traces))
        for entry, sol, v in zip(layout.entries, sols, values):
            ref = solve_subdomain(prob, grid, entry, *traces[entry.index], p)
            assert (sol.index, sol.i_left) == (ref.index, ref.i_left)
            assert np.max(np.abs(sol.values - ref.values)) <= 1e-12
            assert np.max(np.abs(v - ref.values)) <= 1e-12


@pytest.mark.parametrize("preset,per_run", [("heat1d", 1), ("tvar1d", 6)])
def test_factorizations_per_run(preset, per_run):
    prob, grid, layout = _tiny_run(preset)
    p = RobinParameter(1.0)
    operator = _stack(prob, grid, layout, p)
    traces = initial_traces(InitialGuess("random-smooth", seed=1), layout, grid, prob)
    for _ in range(3):
        operator.solve(traces)
    assert operator.factorizations == per_run
    assert operator.nbytes > 0


@pytest.mark.parametrize("preset,nx_cross", [("heat1d", None), ("heat2d", 7)])
def test_step_solves_in_place(preset, nx_cross):
    # A march solves each step in the iterate's row that holds its
    # right-hand side (?gttrs in 1D, ?gbtrs in 2D); BandedSystem.solve
    # leaves its right-hand side as it is.
    prob, grid, layout = _tiny_run(preset, nx_cross=nx_cross)
    operator = _stack(prob, grid, layout, RobinParameter(1.0))
    lu = operator._factor(operator._keys[1], keep=False)
    u = np.random.default_rng(5).standard_normal((3, operator.size))
    rhs = u[1].copy()
    x = lu.solve(u[1])
    assert np.shares_memory(x, u) and np.array_equal(x, u[1])
    ab = oswr.grid.assemble_step(operator._keys[1], grid, operator.ranges)
    system = BandedSystem(bandwidth=operator.bandwidth, ab=ab, rhs=rhs)
    assert np.array_equal(system.solve(), x)
    assert np.array_equal(system.rhs, rhs) and not np.array_equal(rhs, x)


def test_cap_zero_refactors_every_step(monkeypatch):
    prob, grid, layout = _tiny_run("heat1d")
    p = RobinParameter(1.0)
    operator = _stack(prob, grid, layout, p)
    # The cap is read when factors are kept, not when the operator is built.
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", 0)
    traces = initial_traces(InitialGuess(), layout, grid, prob)
    for _ in range(3):
        operator.solve(traces)
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
        for _ in range(3):
            sols[cap] = operator.solve(traces)
        # Kept: one per plateau per run; not kept: one per plateau per sweep.
        assert operator.factorizations == (2 if cap else 2 * 3)
    assert np.array_equal(sols[0], sols[2 ** 40])


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


@pytest.mark.parametrize("cap", [0, 2 ** 40], ids=["per-step", "cached"])
def test_singular_banded_step_raises(monkeypatch, cap):
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
    _singular_run("heat2d", nx_cross=7)  # bandwidth 8: ?gbtrf


def _wide_layout_ranges():
    # tvar2d-wide's layout: 41 x 41 nodes, 20 steps, 3 strips of 18/23/18
    # axis nodes.
    prob = problem_preset("tvar2d")
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


def test_wide_layout_keeps_seventeen_steps():
    prob, grid, ranges = _wide_layout_ranges()
    operator = StackOperator(prob, grid, ranges)
    zero = np.zeros((grid.nt + 1, grid.nx_cross))
    operator.solve([(zero, zero)] * len(ranges))
    # The first march factors all 20 steps and keeps the first 17: ?gbtrf
    # swaps no row, so each kept step holds its 2*bw + 1 band rows and no
    # fill rows.
    bw, N = operator.bandwidth, operator.size
    assert operator.factorizations == grid.nt == 20
    assert list(operator._lus) == operator._keys[1:18]
    for lu in operator._lus.values():
        assert lu.lu.shape == (2 * bw + 1, N) and lu.lu.flags.f_contiguous
        assert np.array_equal(lu.piv, np.arange(N))
    assert operator.nbytes == 17 * ((2 * bw + 1) * N * 8 + N * 4)
    assert operator.nbytes <= oswr.grid.FACTOR_CACHE_BYTES < 18 * operator.nbytes / 17


def test_pivoting_step_keeps_its_fill_rows(monkeypatch):
    # Axis advection b/(2h) = 1500 beside a diagonal of 276: ?gbtrf swaps
    # rows, so the kept factors hold fill rows from the first one with an
    # entry, and solve as the factors that are not kept do.
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
        sols[cap] = [operator.solve(faces) for _ in range(2)]
    lu, = operator._lus.values()  # heat2d's steps are all equal
    bw = operator.bandwidth
    assert np.any(lu.piv != np.arange(operator.size))
    assert 2 * bw + 1 < lu.lu.shape[0] <= 3 * bw + 1 and np.any(lu.lu[0])
    assert np.array_equal(sols[0], sols[2 ** 40])


@pytest.mark.parametrize("preset,nx_cross", [("tvar1d", None), ("tvar2d", 7)])
@pytest.mark.parametrize("kept", [1, 4])
def test_cap_keeps_the_first_steps(monkeypatch, preset, nx_cross, kept):
    # Every step of a tvar preset has its own matrix, all of one size.  A
    # cap that holds exactly `kept` of them keeps steps 1..kept, the first
    # factored, and the marches equal those of an operator that keeps all.
    prob, grid, layout = _tiny_run(preset, nx_cross=nx_cross)
    ranges = [axis_range(e, RobinParameter(1.0)) for e in layout.entries]
    rng = np.random.default_rng(11)
    data = rng.standard_normal((3, len(ranges), 2, grid.nt + 1, grid.nx_cross))
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", 2 ** 40)
    every = StackOperator(prob, grid, ranges)
    ref = [every.solve(faces) for faces in data]
    step_bytes = every.nbytes // grid.nt
    assert every.nbytes == grid.nt * step_bytes and len(every._lus) == grid.nt
    for cap in (kept * step_bytes, (kept + 1) * step_bytes - 1):
        monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
        operator = StackOperator(prob, grid, ranges)
        for faces, values in zip(data, ref):
            assert np.array_equal(operator.solve(faces), values)
        assert list(operator._lus) == operator._keys[1:kept + 1]
        assert operator.nbytes == kept * step_bytes
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

    def tracked(work, bw):
        assert all(ref() is None for ref in made)
        lu = factor_band(work, bw)
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
    """The monolithic march on an operator that keeps every step."""
    rule = FaceRule("dirichlet")
    operator = StackOperator(prob, grid, [AxisRange(0, grid.nx_axis - 1, rule, rule)])
    faces = [(eval_plane(prob.g, grid, prob.domain.alpha),
              eval_plane(prob.g, grid, prob.domain.beta))]
    values, = operator._unstack(operator.solve(faces))
    return values
