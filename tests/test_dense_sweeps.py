"""Acceptance criterion 6 over drawn cases: one sweep and one Robin exchange
against dense space-time solves.

A problem, a tiny grid, a uniform decomposition whose cuts and overlaps fall
on grid nodes, p, the orientation and an initial guess are drawn.  The
problem is a preset (1D or 2D) or a coefficient table with time-varying
rows, written in the CSV format of CoefficientSet.from_table and read by
problem_from_table.  In 2D the cross section has 3 to 9 nodes, so strips
are both narrower than it (cross-major unknowns) and wider (axis-major).
One sweep_once must equal the dense solves to tol = 1e-10 * max(1, max|u|):
the two solves differ by rounding, which grows with |u| (about
2 cond eps |u|).  StackExchange.update must put
sign * (u[i+1] - u[i-1]) / (2h) + p * u[i] in place of each Robin face's
data: exactly as computed from the stacked iterate, and within the error
those formulas carry from tol in u when computed from the dense fields.
StackDiagnostics' E_k, sup|e| and each strip's Phi interior and boundary
maxima must match plain numpy on the dense fields, within the same error.
"""

import io
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oswr import (DecompositionSpec, InitialGuess, RobinParameter, StackOperator,
                  build_grid, initial_traces, problem_from_table, problem_preset, snap,
                  solve_global, sweep_once)
from oswr.diagnostics import StackDiagnostics, WeightSpec, default_gamma
from oswr.engine import StackExchange
from oswr.problem import PRESET_NAMES
from oswr.subdomain import axis_range
from tests.dense import dense_one_sweep, dense_one_sweep_2d

TOL = 1e-10
TABLES = {"table1d": "t,a11,b1,c", "table2d": "t,a11,a12,a22,b1,b2,c"}


@st.composite
def table_rows(draw, preset):
    """2 to 4 rows at increasing times, each with its own coefficient values:
    a symmetric positive definite a (|a12| <= 0.4 sqrt(a11 a22)), |b| <= 1,
    0 <= c <= 2.  Linear interpolation between rows keeps a positive definite."""
    times = sorted(draw(st.lists(st.sampled_from((0.0, 0.3, 0.5, 0.8, 1.0)),
                                 min_size=2, max_size=4, unique=True)))
    rows = []
    for t in times:
        a11, a22 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
        b1, b2 = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        c = draw(st.floats(0.0, 2.0))
        if preset == "table1d":
            rows.append((t, a11, b1, c))
        else:
            a12 = draw(st.floats(-0.4, 0.4)) * (a11 * a22) ** 0.5
            rows.append((t, a11, a12, a22, b1, b2, c))
    return rows


def build_problem(case):
    """The case's preset, or its table written as CSV and read by problem_from_table."""
    if case["preset"] not in TABLES:
        return problem_preset(case["preset"])
    lines = [TABLES[case["preset"]]] + [",".join(map(repr, row)) for row in case["table"]]
    base = problem_preset("heat1d" if case["preset"] == "table1d" else "heat2d")
    return problem_from_table(io.StringIO("\n".join(lines) + "\n"), base.domain)


@st.composite
def cases(draw):
    preset = draw(st.sampled_from(PRESET_NAMES + tuple(TABLES)))
    table = draw(table_rows(preset)) if preset in TABLES else None
    count = draw(st.integers(2, 3))
    width = draw(st.integers(3, 6))  # strip width in cells, between cuts
    half = draw(st.integers(1, (width - 1) // 2))  # half the overlap in cells
    nx_cross = draw(st.integers(3, 9)) if preset.endswith("2d") else None
    return dict(preset=preset, table=table, count=count, width=width, half=half, nx_cross=nx_cross,
                nt=draw(st.integers(1, 3)), p=draw(st.sampled_from((0.5, 1.0, 3.0))),
                theta=draw(st.sampled_from((0.0, 2.0))),
                orientation=draw(st.sampled_from(("outward", "paper"))),
                guess=InitialGuess(draw(st.sampled_from(("zero", "constant", "random-smooth"))),
                                   value=draw(st.sampled_from((-2.0, 0.5))),
                                   seed=draw(st.integers(0, 5))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=cases())
@example(case=dict(preset="tvar2d", table=None, count=2, width=3, half=1, nx_cross=9, nt=2,
                   p=1.0, theta=0.0, orientation="outward",
                   guess=InitialGuess("random-smooth", seed=1)))
@example(case=dict(preset="tvar2d", table=None, count=3, width=6, half=2, nx_cross=3, nt=2,
                   p=3.0, theta=2.0, orientation="paper",
                   guess=InitialGuess("constant", value=0.5)))
# affine1d, which the derandomized draws miss.
@example(case=dict(preset="affine1d", table=None, count=2, width=4, half=1, nx_cross=None, nt=2,
                   p=1.0, theta=0.0, orientation="outward",
                   guess=InitialGuess("random-smooth", seed=4)))
# |u| reaches 332.5 on strip 2, where the two solves differ by 1.78e-10.
@example(case=dict(preset="heat1d", table=None, count=3, width=5, half=1, nx_cross=None, nt=3,
                   p=3.0, theta=0.0, orientation="paper",
                   guess=InitialGuess("constant", value=-2.0)))
@example(case=dict(preset="table1d", table=[(0.0, 1.0, 0.5, 0.0), (0.5, 2.0, -1.0, 1.5),
                                            (1.0, 0.5, 1.0, 0.0)],
                   count=2, width=4, half=1, nx_cross=None, nt=3, p=1.0, theta=2.0,
                   orientation="outward", guess=InitialGuess("random-smooth", seed=2)))
@example(case=dict(preset="table2d", table=[(0.0, 1.0, 0.3, 1.5, 0.5, -0.5, 1.0),
                                            (1.0, 2.0, -0.4, 0.5, -1.0, 1.0, 0.0)],
                   count=2, width=4, half=1, nx_cross=5, nt=2, p=0.5, theta=0.0,
                   orientation="paper", guess=InitialGuess("random-smooth", seed=3)))
def test_sweep_and_exchange_match_dense_solves(case):
    prob = build_problem(case)
    count, width, half = case["count"], case["width"], case["half"]
    grid = build_grid(prob.domain, count * width + 1, case["nt"], case["nx_cross"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the cuts and overlaps lie on nodes
        layout = snap(DecompositionSpec.uniform(prob.domain, count, 2 * half * grid.hx_axis),
                      grid)
    p = RobinParameter(case["p"], case["orientation"])
    traces = initial_traces(case["guess"], layout, grid, prob)

    dense = (dense_one_sweep_2d if prob.domain.n == 2 else dense_one_sweep)(
        prob, grid, layout, traces, p)
    dense = [d.reshape(d.shape[0], d.shape[1], -1) for d in dense]  # (nt+1, m, ncross)
    tol = TOL * max(1.0, max(np.max(np.abs(d)) for d in dense))
    for sol, ref in zip(sweep_once(prob, grid, layout, traces, p), dense):
        assert np.max(np.abs(sol.values - ref)) <= tol

    operator = StackOperator(prob, grid, [axis_range(e, p) for e in layout.entries])
    robin = StackExchange(operator, traces)
    u, _ = next(operator.sweeps(traces))
    increment = robin.update(robin.traces(u))
    fields, h = operator._unstack(u), grid.hx_axis
    outgoing = iter(np.moveaxis(robin.robin, 1, 0))  # one per Robin face, in order
    deltas = []
    for entry in layout.entries:
        l = entry.index
        for face, src, side in ((0, l - 1, "left"), (1, l + 1, "right")):
            if (entry.left_kind, entry.right_kind)[face] != "robin":
                continue
            data = next(outgoing)
            i = (entry.i_left, entry.i_right)[face] - layout.entries[src].i_left
            s = p.sign(side)
            for field, bound in ((fields[src], 0.0), (dense[src], tol * (1.0 / h + p.p))):
                expect = s * ((field[:, i + 1] - field[:, i - 1]) / (2.0 * h)) + p.p * field[:, i]
                assert np.max(np.abs(data - expect)) <= bound
            deltas.append(np.max(np.abs(data - traces[l][face])))
    assert next(outgoing, None) is None
    assert increment == max(deltas)

    # StackDiagnostics on the stacked iterate against numpy on the dense
    # fields: e = u - oracle, eps = e exp(p x), nu = d eps / dx (centred
    # inside, second-order one-sided at the ends: np.gradient), Phi = nu**2
    # exp(-gamma x) exp(-theta t).  The tol between the fields moves nu by
    # at most dnu, and E and Phi's maxima (weights <= 1) by 2 |nu| dnu + dnu**2.
    oracle = solve_global(prob, grid)
    theta = case["theta"]
    d = StackDiagnostics(operator, oracle, p, WeightSpec(default_gamma(prob.domain), theta))(u)
    dnu = 4.0 / h * np.exp(p.p * prob.domain.axis_length) * tol
    times, E, sup_e = grid.times(), 0.0, 0.0
    for entry, field, interior_max, boundary_max in zip(layout.entries, dense, d.interior_max,
                                                        d.boundary_max):
        x = grid.axis_nodes()[entry.i_left:entry.i_right + 1] - prob.domain.alpha
        e = field - oracle.values[:, entry.i_left:entry.i_right + 1]
        nu = np.gradient(e * np.exp(p.p * x)[:, None], h, axis=1, edge_order=2)
        phi = (nu ** 2 * np.exp(-default_gamma(prob.domain) * x)[:, None]
               * np.exp(-theta * times)[:, None, None])
        boundary = [phi[0], phi[:, 0], phi[:, -1]]
        if grid.nx_cross > 1:
            boundary += [phi[..., 0], phi[..., -1]]
        interior = phi[1:, 1:-1, 1:-1] if grid.nx_cross > 1 else phi[1:, 1:-1]
        slack = 2.0 * np.max(np.abs(nu)) * dnu + dnu ** 2
        assert abs(interior_max - np.max(interior)) <= slack
        assert abs(boundary_max - max(np.max(b) for b in boundary)) <= slack
        E, sup_e = max(E, np.max(np.abs(nu)) ** 2), max(sup_e, np.max(np.abs(e)))
    assert abs(d.E - E) <= 2.0 * np.sqrt(E) * dnu + dnu ** 2
    assert abs(d.sup_e - sup_e) <= tol
