"""Outer Schwarz iteration: dataflow, determinism, fixed points."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oswr import (DecompositionSpec, DomainSpec, GlobalSolution, InitialGuess,
                  ParabolicProblem, RobinParameter, StackOperator, SWRConfig,
                  SubdomainSolution, build_grid, initial_traces, march, problem_preset, run,
                  snap, solve_global)
from oswr.diagnostics import StackDiagnostics
from oswr.engine import StackExchange, exchange, sweep_once
from oswr.errors import DataMismatch, OswrError
from oswr.grid import eval_plane
from oswr.subdomain import axis_range, extract_robin_trace, solve_subdomain
from tests.conftest import make_zero_problem


@pytest.fixture(scope="module")
def setup():
    prob = problem_preset("heat1d")
    grid = build_grid(prob.domain, 41, 20)
    layout = snap(DecompositionSpec.uniform(prob.domain, 2, 0.2), grid)
    oracle = solve_global(prob, grid)
    return prob, grid, layout, oracle


class TestInitialGuess:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            InitialGuess(kind="sawtooth")

    def test_constant_guess_traces(self, setup):
        prob, grid, layout, _ = setup
        traces = initial_traces(InitialGuess(kind="constant", value=1.0),
                                layout, grid, prob)
        # Interior interfaces carry the constant; extremes carry Dirichlet g.
        assert np.all(traces[0][1] == 1.0)
        assert np.array_equal(traces[0][0], eval_plane(prob.g, grid, prob.domain.alpha))
        assert np.array_equal(traces[1][1], eval_plane(prob.g, grid, prob.domain.beta))

    def test_random_smooth_deterministic(self, setup):
        prob, grid, layout, _ = setup
        g = InitialGuess(kind="random-smooth", seed=7)
        t1 = initial_traces(g, layout, grid, prob)
        t2 = initial_traces(g, layout, grid, prob)
        for (a1, b1), (a2, b2) in zip(t1, t2):
            assert np.array_equal(b1, b2)
            assert np.array_equal(a1, a2)

    def test_zero_guess_traces(self, setup):
        prob, grid, layout, _ = setup
        traces = initial_traces(InitialGuess(), layout, grid, prob)
        assert np.all(traces[0][1] == 0.0)
        assert np.all(traces[1][0] == 0.0)


class TestSWRConfig:
    @pytest.mark.parametrize("kwargs,message", [
        (dict(theta=-1.0), "theta must be nonnegative"),
        (dict(gamma=-1.0), "gamma must be positive"),
        (dict(gamma=0.0), "gamma must be positive"),
        (dict(theta=np.inf), "theta must be nonnegative and finite"),
        (dict(gamma=np.inf), "gamma must be positive and finite"),
        (dict(gamma=np.nan), "gamma must be positive and finite"),
    ])
    def test_rejects_bad_weights(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SWRConfig(p=RobinParameter(1.0), **kwargs)


class TestZeroFixedPoint:
    def test_terminates_first_sweep(self, setup):
        _, grid, layout, _ = setup
        zero_prob = make_zero_problem(problem_preset("heat1d"))
        zero_oracle = solve_global(zero_prob, grid)
        config = SWRConfig(p=RobinParameter(1.0))
        history = run(zero_prob, grid, layout, config, zero_oracle)
        assert len(history.rows) == 1
        assert history.rows[0].E == 0.0
        assert history.termination == "stop_tol"


class TestJacobiDataflow:
    def test_middle_strip_sees_only_h0(self):
        # In sweep 1 the middle strip of I=3 depends on h0 alone, so solving
        # it directly from the initial traces gives the identical answer.
        prob = problem_preset("heat1d")
        grid = build_grid(prob.domain, 61, 10)
        layout = snap(DecompositionSpec.uniform(prob.domain, 3, 0.2), grid)
        guess = InitialGuess(kind="random-smooth", seed=11)
        traces = initial_traces(guess, layout, grid, prob)
        p = RobinParameter(1.0)
        sols = sweep_once(prob, grid, layout, traces, p)
        mid = layout.entries[1]
        direct = solve_subdomain(prob, grid, mid, traces[1][0], traces[1][1], p)
        assert np.array_equal(sols[1].values, direct.values)

    def test_exchange_wiring(self, setup):
        prob, grid, layout, _ = setup
        traces = initial_traces(InitialGuess(kind="constant", value=0.3),
                                layout, grid, prob)
        p = RobinParameter(1.0)
        sols = sweep_once(prob, grid, layout, traces, p)
        new = exchange(sols, layout, grid, p, traces)
        # Subdomain 0's right inbound is extracted from subdomain 1 at b_1.
        expected = extract_robin_trace(sols[1], grid,
                                       layout.entries[0].i_right, p, "right")
        assert np.array_equal(new[0][1], expected)
        # Extreme-face Dirichlet traces are passed through unchanged.
        assert new[0][0] is traces[0][0]
        assert new[1][1] is traces[1][1]


def test_mirror_symmetry():
    """Reflecting x -> 1-x maps the two strips onto each other.

    heat1d data are symmetric under the reflection and the outward
    orientation treats both faces identically, so the sweep-1 solutions are
    mirror images.
    """
    prob = problem_preset("heat1d")
    grid = build_grid(prob.domain, 41, 10)
    layout = snap(DecompositionSpec.uniform(prob.domain, 2, 0.2), grid)
    p = RobinParameter(1.0, orientation="outward")
    traces = initial_traces(InitialGuess(), layout, grid, prob)
    sols = sweep_once(prob, grid, layout, traces, p)
    left, right = sols[0].values, sols[1].values
    assert np.max(np.abs(left - right[:, ::-1, :])) <= 1e-12


class TestDeterminism:
    def test_rerun_bitwise_identical(self, setup):
        prob, grid, layout, oracle = setup
        cfg = SWRConfig(p=RobinParameter(1.0), max_iters=5, stop_tol=1e-30,
                        guess=InitialGuess(kind="random-smooth", seed=7))
        h1 = run(prob, grid, layout, cfg, oracle)
        h2 = run(prob, grid, layout, cfg, oracle)
        assert h1.rows == h2.rows


def test_fixed_point_consistency(setup):
    """One sweep started from the oracle's restrictions reproduces them."""
    prob, grid, layout, oracle = setup
    p = RobinParameter(1.0)
    fake = [SubdomainSolution(index=e.index, i_left=e.i_left,
                              values=oracle.values[:, e.i_left:e.i_right + 1, :])
            for e in layout.entries]
    traces = initial_traces(InitialGuess(), layout, grid, prob)
    traces = exchange(fake, layout, grid, p, traces)
    sols = sweep_once(prob, grid, layout, traces, p)
    for sol, ref in zip(sols, fake):
        assert np.max(np.abs(sol.values - ref.values)) <= 1e-10


def test_seed7_decay(setup):
    """Frozen regression: random-smooth seed 7 contracts fast on heat1d."""
    prob, grid, layout, oracle = setup
    cfg = SWRConfig(p=RobinParameter(1.0), max_iters=10, stop_tol=1e-30,
                    guess=InitialGuess(kind="random-smooth", seed=7))
    history = run(prob, grid, layout, cfg, oracle)
    E = history.E_sequence()
    assert all(E[k + 1] < E[k] for k in range(1, len(E) - 1))
    assert E[9] / E[0] < 1e-2


class TestNonfiniteE:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_stops_the_run(self, setup):
        # exp(p (x_n - alpha)) overflows at p = 800, so E_k is not finite
        # although the iterate itself is fine.
        prob, grid, layout, oracle = setup
        cfg = SWRConfig(p=RobinParameter(800.0), max_iters=8)
        history = run(prob, grid, layout, cfg, oracle)
        assert history.termination == "nonfinite_E"
        assert len(history.rows) == 1
        assert not np.isfinite(history.rows[0].E)
        assert np.isfinite(history.rows[0].sup_e_max)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_stops_at_first_nonfinite(self, setup, monkeypatch, bad):
        prob, grid, layout, oracle = setup
        sequence = iter([1.0, 0.5, bad, 0.1, 0.05])
        measure = StackDiagnostics.__call__
        monkeypatch.setattr(StackDiagnostics, "__call__", lambda self, u: dataclasses.replace(
            measure(self, u), E=next(sequence)))
        cfg = SWRConfig(p=RobinParameter(1.0), max_iters=5, stop_tol=1e-30)
        history = run(prob, grid, layout, cfg, oracle)
        assert history.termination == "nonfinite_E"
        assert len(history.rows) == 3


def test_error_context_attached(setup):
    prob, grid, layout, oracle = setup
    # A trace shape sabotage mid-run surfaces with the sweep attached.
    from oswr.errors import OswrError

    cfg = SWRConfig(p=RobinParameter(1.0), max_iters=2)
    bad_grid = build_grid(prob.domain, 41, 19)  # nt mismatch vs oracle grid
    with pytest.raises(OswrError):
        run(prob, bad_grid, layout, cfg, oracle)



def _one_row(traces):
    return [(traces[0][0], traces[0][1][:1])] + traces[1:], r"trace shape \(1, 1\) != \(5, 1\)"


def _nan_entry(traces):
    bad = traces[0][1].copy()
    bad[2, 0] = np.nan
    return [(traces[0][0], bad)] + traces[1:], "trace values contain non-finite entries"


def _short(traces):
    return traces[:1], "1 face pairs for 2 axis ranges"


def _march(prob, grid, layout, p, faces):
    march(prob, grid, [axis_range(e, p) for e in layout.entries], faces)


def _sweep_once(prob, grid, layout, p, faces):
    sweep_once(prob, grid, layout, faces, p)


def _solve_subdomain(prob, grid, layout, p, faces):
    solve_subdomain(prob, grid, layout.entries[0], *faces[0], p)


def _stack_exchange(prob, grid, layout, p, faces):
    StackExchange(StackOperator(prob, grid, [axis_range(e, p) for e in layout.entries]),
                  faces)


class TestFaceCheck:
    """Face data are checked where they enter: by march, and so by
    sweep_once and solve_subdomain, and by StackExchange for run()."""

    @pytest.mark.parametrize("enter, spoil", [
        (enter, spoil) for enter in (_march, _sweep_once, _solve_subdomain, _stack_exchange)
        for spoil in (_one_row, _nan_entry, _short)
        if (enter, spoil) != (_solve_subdomain, _short)])  # it takes one strip's pair
    def test_rejected(self, setup, enter, spoil):
        prob, _, layout, _ = setup
        grid = build_grid(prob.domain, 41, 4)
        traces = initial_traces(InitialGuess("constant", value=0.5), layout, grid, prob)
        faces, message = spoil(traces)
        with pytest.raises(DataMismatch, match=message):
            enter(prob, grid, layout, RobinParameter(1.0), faces)

    def test_nonfinite_g_stops_run_before_the_first_sweep(self, setup, monkeypatch):
        prob, grid, layout, oracle = setup
        alpha = prob.domain.alpha
        bad = ParabolicProblem(domain=prob.domain, coeffs=prob.coeffs, f=prob.f,
                               g=lambda t, x: np.where(x == alpha, np.nan, prob.g(t, x)))
        monkeypatch.setattr(StackOperator, "sweeps", lambda *_: pytest.fail("swept"))
        with pytest.raises(DataMismatch, match="^trace values contain non-finite entries$"):
            run(bad, grid, layout, SWRConfig(p=RobinParameter(1.0)), oracle)


DOMAINS = st.builds(
    lambda n, alpha, length, T, cross: DomainSpec(n, alpha, alpha + length, T,
                                                  (0.0, cross) if n == 2 else None),
    st.sampled_from((1, 2)), st.sampled_from((0.0, 0.5)), st.sampled_from((1.0, 2.0)),
    st.sampled_from((0.5, 1.0)), st.sampled_from((1.0, 2.0)))


def _grid(domain, nx_axis):
    return build_grid(domain, nx_axis, 3, None if domain.n == 1 else 5)


def _layout(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # interface abscissas snapped to nodes
        return snap(DecompositionSpec.uniform(grid.domain, 2, 0.2), grid)


@st.composite
def mismatched_inputs(draw):
    """(entry point, what does not fit, the call) for inputs that do not fit
    together: a problem on another domain than the grid's, a layout snapped
    on a grid of another size, or no axis ranges."""
    domain = draw(DOMAINS)
    grid = _grid(domain, draw(st.integers(11, 21)))
    kind = draw(st.sampled_from(("domain", "layout", "no ranges")))
    problem_domain = draw(DOMAINS.filter(lambda d: d != domain)) if kind == "domain" else domain
    problem = problem_preset(draw(st.sampled_from(("heat", "tvar"))) + f"{problem_domain.n}d",
                             problem_domain.alpha, problem_domain.beta, problem_domain.T,
                             problem_domain.cross)
    if kind == "layout":
        layout = _layout(_grid(domain, draw(st.integers(11, 31).filter(
            lambda n: n != grid.nx_axis))))
    else:
        layout = _layout(grid)
    p = RobinParameter(1.0)
    ranges = [] if kind == "no ranges" else [axis_range(e, p) for e in layout.entries]
    entries = {
        "run": lambda: run(problem, grid, layout, SWRConfig(p=p, max_iters=2), GlobalSolution(
            np.zeros((grid.nt + 1, grid.nx_axis, grid.nx_cross)))),
        "solve_global": lambda: solve_global(problem, grid),
        "march": lambda: march(problem, grid, ranges, [
            (np.zeros((grid.nt + 1, grid.nx_cross)),) * 2 for _ in ranges]),
        "StackOperator": lambda: StackOperator(problem, grid, ranges),
    }
    if kind == "domain":
        fits = list(entries)
    elif kind == "layout":  # a smaller layout's ranges fit the grid, if not the run
        fits = ["run"] + ["march", "StackOperator"] * (ranges[-1].hi >= grid.nx_axis)
    else:
        fits = ["march", "StackOperator"]
    entry = draw(st.sampled_from(fits))
    return entry, kind, entries[entry]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=mismatched_inputs())
def test_mismatched_inputs_raise_one_line(case):
    """Inputs that do not fit together raise an OswrError with a one-line
    message, never numpy's or a callable's error."""
    _, _, call = case
    with pytest.raises(OswrError) as info:
        call()
    message = str(info.value)
    assert message and "\n" not in message
