"""The stacked sweep kernels of run() against the per-strip functions.

StackDiagnostics and StackExchange work on march's whole (nt+1, N)
iterate; compute_error_fields, compute_E, phi_boundary_check,
extract_robin_trace (through exchange) and the trace increment below are
their references, and the two must agree bitwise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oswr import (AxisRange, DecompositionSpec, FaceRule, GlobalSolution, InitialGuess,
                  RobinParameter, StackOperator, SubdomainSolution, SWRConfig, WeightSpec,
                  build_grid, default_gamma, initial_traces, problem_preset, run, snap,
                  solve_global)
from oswr.decomposition import SubdomainEntry, SubdomainLayout
from oswr.diagnostics import (IterationRecord, StackDiagnostics, compute_E,
                              compute_error_fields, phi_boundary_check)
from oswr.engine import StackExchange, exchange
from oswr.errors import DataMismatch, NodeOutOfRange, ShapeMismatch
from oswr.grid import _strides
from oswr.subdomain import axis_range

LEVELS = np.array([0.0, 0.5, -1.0, 1.0 + 1e-9, 2.0, -3.0, 1e-300, 1e300])


def _trace_increment(new, old, layout):
    """Reference: the largest change of any Robin trace, strip by strip."""
    inc = 0.0
    for e, (nl, nr), (ol, orr) in zip(layout.entries, new, old):
        for kind, nt_, ot in ((e.left_kind, nl, ol), (e.right_kind, nr, orr)):
            if kind == "robin":
                inc = max(inc, float(np.max(np.abs(nt_ - ot))))
    return inc


def _per_strip(u, operator, layout, oracle, p, weights):
    """Reference: the per-strip diagnostics of one sweep."""
    sols = _solutions(u, operator, layout)
    fields = [compute_error_fields(s, oracle, p, weights, operator.grid) for s in sols]
    phi = [phi_boundary_check(f) for f in fields]
    return (compute_E(fields), _sup_e(fields),
            [(r.ok, r.interior_max, r.boundary_max) for r in phi])


def _sup_e(fields):
    """Reference: sup|e| over the strips, nan if any |e| is nan."""
    return float(np.max([np.max(np.abs(f.e)) for f in fields]))


def _assert_same_diagnostics(u, operator, layout, oracle, p, weights):
    with np.errstate(all="ignore"):
        E, sup_e, phi = _per_strip(u, operator, layout, oracle, p, weights)
        got = StackDiagnostics(operator, oracle, p, weights)(u)
    assert repr((got.E, got.sup_e)) == repr((E, sup_e))
    stacked = zip(got.interior_max <= got.boundary_max * (1.0 + 1e-8) + 1e-13,
                  got.interior_max.tolist(), got.boundary_max.tolist())
    assert repr([(bool(ok), i, b) for ok, i, b in stacked]) == repr(phi)
    assert got.phi_ok == all(ok for ok, _, _ in phi)
    return got


def _solutions(u, operator, layout):
    return [SubdomainSolution(index=e.index, i_left=e.i_left, values=v)
            for e, v in zip(layout.entries, operator._unstack(u))]


@st.composite
def _stacks(draw):
    """A 1D or 2D grid and an interleaving layout of 2-4 strips on it,
    a = 0 < a_2 < b_1 < a_3 < b_2 < ... < b_I = nx - 1 in node indices."""
    two_d = draw(st.booleans())
    count = draw(st.integers(2, 4))
    nx = draw(st.integers(2 * count + 1, 16))
    nt = draw(st.integers(1, 3))
    prob = problem_preset("heat2d" if two_d else "heat1d")
    grid = build_grid(prob.domain, nx, nt, draw(st.integers(3, 7)) if two_d else None)
    cuts = sorted(draw(st.lists(st.integers(1, nx - 2), min_size=2 * count - 2,
                                max_size=2 * count - 2, unique=True)))
    ia, ib = [0] + cuts[0::2], cuts[1::2] + [nx - 1]
    h = grid.hx_axis
    entries = tuple(SubdomainEntry(index=l, i_left=ia[l], i_right=ib[l],
                                   left_kind="dirichlet" if l == 0 else "robin",
                                   right_kind="dirichlet" if l == count - 1 else "robin")
                    for l in range(count))
    spec = DecompositionSpec(count, tuple(i * h for i in ia), tuple(i * h for i in ib))
    orientation = draw(st.sampled_from(["outward", "paper"]))
    p = RobinParameter(draw(st.sampled_from([0.5, 1.0, 3.0, 800.0])), orientation)
    layout = SubdomainLayout(spec=spec, entries=entries)
    operator = StackOperator(prob, grid, [axis_range(e, p) for e in entries])
    return grid, layout, operator, p


def _values(rng, shape, nonfinite):
    """Values from a few levels (so that ties are common) at random scales,
    with inf, -inf and nan at a few places if asked."""
    vals = rng.choice(LEVELS, size=shape) * rng.choice([1.0, 1e-3, 7.0], size=shape)
    if nonfinite:
        flat = vals.reshape(-1)
        flat[rng.integers(0, flat.size, 3)] = rng.choice([np.inf, -np.inf, np.nan], 3)
    return vals


class TestStackDiagnostics:
    @settings(max_examples=200, deadline=None)
    @given(stack=_stacks(), seed=st.integers(0, 2 ** 32 - 1),
           gamma=st.sampled_from([0.5, 5.0, 1e4]),
           theta=st.sampled_from([0.0, 2.0, 800.0]), nonfinite=st.booleans(),
           sparse=st.booleans())
    def test_bitwise_equal_to_per_strip(self, stack, seed, gamma, theta, nonfinite,
                                        sparse):
        # gamma = 1e4 underflows the space weight to 0 away from alpha, and
        # theta = 800 the time weight after t = 0; p = 800 overflows exp(p x_n).
        # A sparse error, nonzero at one or two nodes, puts Phi's peak on
        # single faces of the parabolic boundary.
        grid, layout, operator, p = stack
        rng = np.random.default_rng(seed)
        shape = (grid.nt + 1, grid.nx_axis, grid.nx_cross)
        oracle = GlobalSolution(values=_values(rng, shape, False))
        if sparse:
            nodes = oracle.values.copy()
            nodes.reshape(-1)[rng.integers(0, nodes.size, 2)] += rng.choice(LEVELS, 2)
        else:
            nodes = _values(rng, shape, nonfinite)
        u = operator._stack(nodes)
        weights = WeightSpec(gamma=gamma, theta=theta)
        _assert_same_diagnostics(u, operator, layout, oracle, p, weights)

    @pytest.mark.parametrize("nx_cross", [7, 15])  # axis-major, cross-major strips
    @pytest.mark.parametrize("t, i, j, ok", [
        (0, 4, 3, True),                     # t = 0
        (2, 0, 3, True),                     # axis ends of the strips [0, 12], [8, 20],
        (2, 8, 3, False), (2, 12, 3, False),  # each inside the other strip
        (2, 4, 0, True), (2, 4, -1, True),   # lateral faces
        (2, 4, 3, False),                    # interior
    ])
    def test_error_at_one_node(self, nx_cross, t, i, j, ok):
        # Phi is nonzero only near the node, so each face is the boundary
        # maximum of some case.
        prob = problem_preset("heat2d")
        grid = build_grid(prob.domain, 21, 3, nx_cross)
        layout = snap(DecompositionSpec.uniform(prob.domain, 2, 0.2), grid)
        p = RobinParameter(1.0)
        operator = StackOperator(prob, grid, [axis_range(e, p) for e in layout.entries])
        oracle = GlobalSolution(values=np.zeros((grid.nt + 1, 21, nx_cross)))
        nodes = oracle.values.copy()
        nodes[t, i, j] = 1.0
        got = _assert_same_diagnostics(operator._stack(nodes), operator, layout, oracle, p,
                                       WeightSpec(gamma=1.0))
        assert got.phi_ok == ok

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_error_of_zeros(self, zero):
        # u - oracle is -0.0 everywhere for u = -0.0: sup|e| still reads 0.0.
        prob = problem_preset("heat1d")
        grid = build_grid(prob.domain, 21, 5)
        layout = snap(DecompositionSpec.uniform(prob.domain, 2, 0.2), grid)
        p = RobinParameter(1.0)
        operator = StackOperator(prob, grid, [axis_range(e, p) for e in layout.entries])
        oracle = GlobalSolution(values=np.zeros((grid.nt + 1, 21, 1)))
        u = np.full((grid.nt + 1, operator.size), zero)
        got = _assert_same_diagnostics(u, operator, layout, oracle, p, WeightSpec(gamma=1.0))
        assert repr((got.E, got.sup_e)) == "(0.0, 0.0)"

    def test_oracle_on_another_grid_rejected(self):
        prob = problem_preset("heat1d")
        grid = build_grid(prob.domain, 21, 5)
        layout = snap(DecompositionSpec.uniform(prob.domain, 2, 0.2), grid)
        p = RobinParameter(1.0)
        operator = StackOperator(prob, grid, [axis_range(e, p) for e in layout.entries])
        oracle = solve_global(prob, build_grid(prob.domain, 21, 4))
        with pytest.raises(ShapeMismatch, match="oracle values"):
            StackDiagnostics(operator, oracle, p, WeightSpec(gamma=1.0))


class TestStackExchange:
    @settings(max_examples=100, deadline=None)
    @given(stack=_stacks(), seed=st.integers(0, 2 ** 32 - 1), nonfinite=st.booleans())
    def test_bitwise_equal_to_extract_robin_trace(self, stack, seed, nonfinite):
        grid, layout, operator, p = stack
        rng = np.random.default_rng(seed)
        shape = (grid.nt + 1, grid.nx_cross)
        traces = [(_values(rng, shape, False), _values(rng, shape, False))
                  for _ in layout.entries]
        u = operator._stack(_values(rng, (grid.nt + 1, grid.nx_axis, grid.nx_cross),
                                    nonfinite))
        stacked = StackExchange(operator, traces)
        with np.errstate(all="ignore"):
            try:
                new = exchange(_solutions(u, operator, layout), layout, grid, p, traces)
            except DataMismatch:
                with pytest.raises(DataMismatch, match="non-finite"):
                    stacked.update(stacked.traces(u))
                return
            increment = stacked.update(stacked.traces(u))
        assert repr(increment) == repr(_trace_increment(new, traces, layout))
        # One column per Robin face, in range order, low face first.
        robin = [vals for e, pair in zip(layout.entries, new)
                 for kind, vals in zip((e.left_kind, e.right_kind), pair) if kind == "robin"]
        assert stacked.robin.shape == (grid.nt + 1, len(robin), grid.nx_cross)
        for q, vals in enumerate(robin):
            assert np.array_equal(stacked.robin[:, q], vals)

    @pytest.mark.parametrize("outer", ["low", "high"])
    def test_outer_robin_face_has_no_source(self, outer):
        # A Robin face takes its data from the neighbouring range, and the
        # first range's low face and the last range's high face have none.
        prob = problem_preset("heat1d")
        grid = build_grid(prob.domain, 21, 4)
        robin, dirichlet = FaceRule("robin", 1.0, 1.0), FaceRule("dirichlet")
        first = AxisRange(0, 12, robin if outer == "low" else dirichlet, robin)
        last = AxisRange(8, 20, robin, robin if outer == "high" else dirichlet)
        operator = StackOperator(prob, grid, [first, last])
        zeros = np.zeros((grid.nt + 1, 1))
        with pytest.raises(NodeOutOfRange, match="not strictly interior to subdomain"):
            StackExchange(operator, [(zeros, zeros), (zeros, zeros)])


def _reference_run(problem, grid, layout, config, oracle):
    """Reference: run()'s loop with the per-strip diagnostics and exchange."""
    gamma = config.gamma if config.gamma is not None else default_gamma(problem.domain)
    weights = WeightSpec(gamma=gamma, theta=config.theta)
    traces = initial_traces(config.guess, layout, grid, problem)
    operator = StackOperator(problem, grid,
                             [axis_range(e, config.p) for e in layout.entries])
    rows = []
    for k in range(1, config.max_iters + 1):
        sols = _solutions(next(operator.sweeps(traces))[0], operator, layout)
        with np.errstate(over="ignore", invalid="ignore"):
            fields = [compute_error_fields(s, oracle, config.p, weights, grid)
                      for s in sols]
            E = compute_E(fields)
            sup_e = _sup_e(fields)
            phi_ok = all(phi_boundary_check(f).ok for f in fields)
        new = exchange(sols, layout, grid, config.p, traces)
        rows.append(IterationRecord(k=k, E=E, sup_e_max=sup_e, phi_boundary_ok=phi_ok,
                                    trace_increment=_trace_increment(new, traces, layout)))
        traces = new
        if not math.isfinite(E) or E <= config.stop_tol:
            break
    return rows


@pytest.mark.parametrize("preset, nx, nt, nx_cross, count, p, theta", [
    ("heat1d", 61, 10, None, 3, 2.0, 10.0),
    ("heat1d", 41, 10, None, 2, 800.0, 0.0),   # exp(p x_n) overflows
    ("tvar2d", 31, 4, 15, 3, 1.0, 0.0),        # cross-, axis-, cross-major strips
    ("tvar2d", 31, 4, 15, 3, 4.0, 3.0),
])
def test_run_matches_per_strip_loop(preset, nx, nt, nx_cross, count, p, theta):
    prob = problem_preset(preset)
    grid = build_grid(prob.domain, nx, nt, nx_cross)
    layout = snap(DecompositionSpec.uniform(prob.domain, count, 0.2), grid)
    if nx_cross is not None:
        assert [_strides(axis_range(e, RobinParameter(p)), nx_cross)[0]
                for e in layout.entries] == [1, nx_cross, 1]
    config = SWRConfig(p=RobinParameter(p), max_iters=8, theta=theta,
                       guess=InitialGuess("random-smooth", seed=4))
    oracle = solve_global(prob, grid)
    assert repr(run(prob, grid, layout, config, oracle).rows) == repr(
        _reference_run(prob, grid, layout, config, oracle))
