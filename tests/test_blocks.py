"""Sweeps marched in blocks, time-outer, are the sweep-by-sweep run, bit for bit.

StackOperator.sweeps() marches a run's sweeps in blocks when the factors of
its distinct steps do not fit FACTOR_CACHE_BYTES.  These tests force blocks
on tiny cases with a cap of a few iterates and compare what the run shows
(rows, termination, each on_sweep call's iterate, errors) with a run that
keeps every factor and marches sweep by sweep; the factorizations a run
makes give its blocks.
"""

import dataclasses
import warnings
import weakref
from typing import NamedTuple, Tuple

import numpy as np
import pytest

import oswr.engine
import oswr.grid
from oswr import (CoefficientSet, DecompositionSpec, GlobalSolution, InitialGuess,
                  ParabolicProblem, RobinParameter, StackOperator, SWRConfig, build_grid,
                  problem_preset, run, snap, solve_global)
from oswr.diagnostics import StackDiagnostics
from oswr.engine import initial_traces
from oswr.errors import DataMismatch, SingularSystem
from oswr.grid import BandedLU, TridiagonalLU
from oswr.subdomain import axis_range
from tests.test_operator import _singular_run, _tiny_run

KEEP_ALL = 2 ** 40


def _tiny_run_of(preset, nt, nx_cross=None):
    """_tiny_run's case; for tvar1d, with its coefficients advected past a
    cell Peclet number of 1 (a = 0.1 (1 + t/2), b = 10 + sin t, h = 1/30):
    its steps take ?gttrf, whose factors can outgrow a few iterates.  The
    symmetric LDL^T factors of tvar1d's own steps take a third of an
    iterate's bytes per step or less, so its runs never march in blocks."""
    prob, grid, layout = _tiny_run(preset, nt=nt, nx_cross=nx_cross)
    if preset == "tvar1d":
        coeffs = CoefficientSet.build(lambda t: 0.1 * (1.0 + 0.5 * t),
                                      lambda t: 10.0 + np.sin(t), 1.0)
        prob = ParabolicProblem(domain=prob.domain, coeffs=coeffs, f=prob.f, g=prob.g)
    return prob, grid, layout


def _iterate_bytes(prob, grid, layout):
    operator = StackOperator(prob, grid, [axis_range(e, RobinParameter(1.0))
                                          for e in layout.entries])
    return (grid.nt + 1) * operator.size * 8


class Case(NamedTuple):
    """A tiny tvar run, its oracle and its number of distinct steps; a cap
    that holds a few of its iterates but not the factors of its distinct
    steps, with the factorizations of 7 sweeps under it and of the sweeps up
    to the third (whose block holds a later sweep); and (iterates in the
    cap, block, factorizations of 7 sweeps) for the caps of other blocks."""

    prob: object
    grid: object
    layout: object
    oracle: object
    distinct: int
    cap: int
    factored: int
    to_third: int
    schedules: Tuple[Tuple[int, int, int], ...]


# tvar1d (advected, _tiny_run_of): 12 distinct steps, factored by ?gttrf.
# One iterate holds two steps' factors, so the run marches sweep by sweep
# and re-factors 10 steps per sweep after the first; two iterates give
# blocks of 2, 2, 2, 1.  A 1D block of three or more iterates never
# factors fewer steps than re-factoring.
# tvar2d: 6 distinct steps, none of whose factors fits one iterate; blocks
# of 2, 3 and 7 split 7 sweeps into 4, 3 and 1 blocks, and the fixture's 4
# into 2.
@pytest.fixture(params=[("tvar1d", None, 12, 2, 48, 24, ((1, 1, 12 + 6 * 10), (2, 2, 48))),
                        ("tvar2d", 7, 6, 4, 12, 6,
                         ((1, 1, 7 * 6), (2, 2, 24), (3, 3, 18), (7, 7, 6)))],
                ids=["tvar1d", "tvar2d"])
def case(request):
    preset, nx_cross, nt, iterates, factored, to_third, schedules = request.param
    prob, grid, layout = _tiny_run_of(preset, nt, nx_cross)
    cap = iterates * _iterate_bytes(prob, grid, layout)
    return Case(prob, grid, layout, solve_global(prob, grid), nt, cap, factored, to_third,
                schedules)


def _observe(monkeypatch, cap, case, config):
    """run() under this cap: its rows as text (nan-safe), its termination,
    each on_sweep call's (k, strip values) and its operator's block and
    factorizations."""
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
    calls, operators = [], []

    class Recorded(StackOperator):
        def __init__(self, *args):
            super().__init__(*args)
            operators.append(self)

    monkeypatch.setattr(oswr.engine, "StackOperator", Recorded)
    history = run(*case[:3], config, case.oracle, on_sweep=lambda k, sols: calls.append(
        (k, [s.values.copy() for s in sols])))
    monkeypatch.setattr(oswr.engine, "StackOperator", StackOperator)
    operator, = operators
    return (repr([dataclasses.astuple(r) for r in history.rows]), history.termination, calls,
            (operator.block, operator.factorizations))


def _same_calls(a, b):
    assert [k for k, _ in a] == [k for k, _ in b]
    for (_, values_a), (_, values_b) in zip(a, b):
        assert all(np.array_equal(x, y) for x, y in zip(values_a, values_b))


@pytest.mark.parametrize("guess", [InitialGuess(), InitialGuess("random-smooth", seed=4)])
def test_blocks_are_the_sweeps(monkeypatch, case, guess):
    # Seven sweeps under caps of blocks 1 (sweep by sweep, few steps kept),
    # 2 and 3 (the last block shorter than the first) and 7 (one block).
    config = SWRConfig(p=1.0, max_iters=7, guess=guess)
    ref = _observe(monkeypatch, KEEP_ALL, case, config)
    assert ref[1] == "max_iters" and ref[3] == (1, case.distinct)
    iterate = _iterate_bytes(*case[:3])
    for iterates, block, factored in case.schedules:
        got = _observe(monkeypatch, iterates * iterate, case, config)
        assert got[3] == (block, factored)
        assert got[:2] == ref[:2]
        _same_calls(got[2], ref[2])


def test_stop_tol_inside_a_block(monkeypatch, case):
    config = SWRConfig(p=1.0, max_iters=7)
    ref_rows = run(*case[:3], config, case.oracle).rows
    assert ref_rows[2].E < min(ref_rows[0].E, ref_rows[1].E)
    # E_3 ends the run at sweep 3; its block's later sweep is discarded.
    config = dataclasses.replace(config, stop_tol=ref_rows[2].E)
    ref = _observe(monkeypatch, KEEP_ALL, case, config)
    got = _observe(monkeypatch, case.cap, case, config)
    assert got[3][1] == case.to_third and ref[1] == "stop_tol" and len(ref[2]) == 3
    assert got[:2] == ref[:2]
    _same_calls(got[2], ref[2])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_nonfinite_E_inside_a_block(monkeypatch, case, bad):
    # test_engine's test_stops_at_first_nonfinite sequence: the run ends at
    # sweep 3.
    measure = StackDiagnostics.__call__
    observed = []
    for cap in (KEEP_ALL, case.cap):
        sequence = iter([1.0, 0.5, bad, 0.1, 0.05])
        monkeypatch.setattr(StackDiagnostics, "__call__", lambda self, u: dataclasses.replace(
            measure(self, u), E=next(sequence)))
        observed.append(_observe(monkeypatch, cap, case, SWRConfig(p=1.0, max_iters=7)))
    ref, got = observed
    assert got[3][1] == case.to_third and ref[1] == "nonfinite_E" and len(ref[2]) == 3
    assert got[:2] == ref[:2]
    _same_calls(got[2], ref[2])


def test_nonfinite_trace_inside_a_block(monkeypatch, case):
    # Sweep 3's iterate turns nan at step 2, whichever order the steps are
    # marched in: the LU solve that returns its clean value returns nan.
    config = SWRConfig(p=1.0, max_iters=7)
    clean = []
    sweeps = StackOperator.sweeps

    def copied(self, *args):
        for u, traces in sweeps(self, *args):
            clean.append(u.copy())
            yield u, traces

    monkeypatch.setattr(StackOperator, "sweeps", copied)
    run(*case[:3], config, case.oracle)
    monkeypatch.setattr(StackOperator, "sweeps", sweeps)
    target = clean[2][2]
    for lu_class in (BandedLU, TridiagonalLU):
        def poisoned(self, rhs, _solve=lu_class.solve):
            x = _solve(self, rhs)
            if np.array_equal(x, target):
                x *= np.nan  # in place, as the solve writes the step
            return x

        monkeypatch.setattr(lu_class, "solve", poisoned)
    observed = []
    for cap in (KEEP_ALL, case.cap):
        calls = []
        monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
        with pytest.raises(DataMismatch) as raised:
            run(*case[:3], config, case.oracle, on_sweep=lambda k, sols: calls.append(k))
        observed.append((str(raised.value), calls))
    # The first two sweeps' rows and on_sweep calls come before the raise.
    assert observed[0] == observed[1] == ("trace values contain non-finite entries", [1, 2])


@pytest.mark.parametrize("iterates,block", [(2, 2), (3, 1)])
def test_blocks_only_where_they_factor_less(monkeypatch, iterates, block):
    # The advected tvar1d's 12 distinct steps fit neither cap.  Under 2 iterates, 5 steps
    # fit and a march re-factors 7, where a block of 2 factors 12 / 2 = 6
    # per sweep.  Under 3 iterates, 8 fit and a march re-factors 4, as few
    # as a block of 3 factors per sweep: the run marches sweep by sweep.
    prob, grid, layout = _tiny_run_of("tvar1d", 12)
    ranges = [axis_range(e, RobinParameter(1.0)) for e in layout.entries]
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", KEEP_ALL)
    every = StackOperator(prob, grid, ranges)
    zero = np.zeros((grid.nt + 1, len(every._faces), 1))
    list(every.sweeps(zero, 2, every.traces))
    cap = iterates * _iterate_bytes(prob, grid, layout)
    assert every.nbytes > cap and cap // (every.nbytes // 12) == 3 * iterates - 1
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
    assert StackOperator(prob, grid, ranges).block == block


def test_blocks_count_swapped_band_factors(monkeypatch):
    # heat2d on 13 x 7 nodes has one step (bw 8), which ?gbtrf factors with
    # row swaps: kept, its factors hold all 3 bw + 1 rows, 204 N bytes,
    # more than a cap of 3 iterates (168 N).  The block rule counts them so
    # and marches 6 sweeps in 2 blocks of 3, one factorization each, where
    # counting the 2 bw + 1 rows of unswapped factors would march sweep by
    # sweep, re-factoring the step every sweep.
    prob, grid, layout = _tiny_run("heat2d", nx_cross=7)
    ranges = [axis_range(e, RobinParameter(1.0)) for e in layout.entries]
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", 3 * _iterate_bytes(prob, grid, layout))
    operator = StackOperator(prob, grid, ranges)
    zero = np.zeros((grid.nt + 1, len(operator._faces), grid.nx_cross))
    list(operator.sweeps(zero, 6, operator.traces))
    assert operator.block == 3 and operator.factorizations <= 2
    lu = operator._factor(operator._keys[1], keep=False)
    assert lu.lower is None and lu.nbytes > oswr.grid.FACTOR_CACHE_BYTES


def test_mixed_1d_steps_in_blocks(monkeypatch):
    # Advection b = 12 t beside a = 0.1 (h = 1/30) crosses a cell Peclet
    # number of 1 at t = 1/2: of 12 steps, the first 5 take LDL^T and the
    # rest ?gttrf, whose factors do not fit two iterates, so the sweeps
    # march in blocks of 2, their right-hand sides folded and scaled for
    # the first 5 steps only.  Iterates and traces have the bits of sweep
    # by sweep with every factor kept.
    base, grid, layout = _tiny_run("heat1d", nt=12)
    prob = ParabolicProblem(domain=base.domain, f=base.f, g=base.g,
                            coeffs=CoefficientSet.build(0.1, lambda t: 12.0 * t, 0.0))
    ranges = [axis_range(e, RobinParameter(1.0)) for e in layout.entries]
    robin = initial_traces(InitialGuess("random-smooth", seed=5), layout, grid, prob)
    marched = []
    for cap in (KEEP_ALL, 2 * _iterate_bytes(prob, grid, layout)):
        monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
        operator = StackOperator(prob, grid, ranges)
        marched.append([(u.copy(), traces) for u, traces in
                        operator.sweeps(robin, 5, operator.traces)])
    assert operator.block == 2
    assert [key in operator._ldl for key in operator._keys[1:]] == [True] * 5 + [False] * 7
    for (u, traces), (ref, ref_traces) in zip(*marched[::-1]):
        assert np.array_equal(u, ref) and np.array_equal(traces, ref_traces)


def test_singular_step_under_blocks(monkeypatch):
    # heat2d's one step matrix does not fit a cap of two iterates.
    prob, grid, layout = _tiny_run("heat2d", nx_cross=7)
    cap = 2 * _iterate_bytes(prob, grid, layout)
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
    assert StackOperator(prob, grid, [axis_range(e, RobinParameter(1.0))
                                      for e in layout.entries]).block == 2
    factor = StackOperator._factor
    monkeypatch.setattr(StackOperator, "_factor", lambda self, values, keep: (
        pytest.fail("swept unblocked") if keep else factor(self, values, keep)))
    _singular_run("heat2d", nx_cross=7)


def test_march_error_names_its_block(monkeypatch, case):
    # The second block's first step fails to factor: the error names that
    # block's first sweep, after the first block's rows and on_sweep calls.
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", case.cap)
    first = case.cap // _iterate_bytes(*case[:3])  # the first block's sweeps
    factor, made, calls = StackOperator._factor, [], []

    def failing(self, values, keep):
        made.append(values)
        if len(made) > case.distinct:
            raise SingularSystem("singular matrix: zero pivot at unknown 0")
        return factor(self, values, keep)

    monkeypatch.setattr(StackOperator, "_factor", failing)
    with pytest.raises(SingularSystem, match=rf"^sweep {first + 1}: singular matrix"):
        run(*case[:3], SWRConfig(p=1.0, max_iters=7), case.oracle,
            on_sweep=lambda k, sols: calls.append(k))
    assert calls == list(range(1, first + 1))


def test_wide_layout_marches_one_block(monkeypatch):
    # tvar2d-wide's layout: 41 x 41 nodes, 20 steps, 3 strips.  Its 20
    # steps' factors do not fit the cap, 41 iterates do: 20 sweeps march in
    # one block, factoring every step once, keeping none; 60 sweeps march
    # in two blocks of 30, the first block's memory gone before the second's
    # is made.
    prob = problem_preset("tvar2d")
    grid = build_grid(prob.domain, 41, 20, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the interfaces snap to nodes
        layout = snap(DecompositionSpec.uniform(prob.domain, 3, 0.2), grid)
    operators, held, factored, blocks = [], [], [], []
    iterate = _iterate_bytes(prob, grid, layout)

    def held_weakly(sweep, operator):
        """A yielded (iterate, traces) pair, the memory of its iterate's
        block held by a weak reference, and the factorizations made so far."""
        held.append(weakref.ref(sweep[0].base))
        factored.append(operator.factorizations)
        return sweep

    class Recorded(StackOperator):
        def __init__(self, *args):
            super().__init__(*args)
            operators.append(self)

        def sweeps(self, robin, count=1, traces=None):
            marches = super().sweeps(robin, count, traces)
            for _ in range(count):
                # A block's iterates are views of one array.  When the next
                # block's array is made, the last one is gone, from run()
                # and from the march: at most a block's iterates are alive.
                gone = not held or held[-1]() is None
                sweep = next(marches)
                if not held or sweep[0].base is not held[-1]():
                    assert gone
                    blocks.append(len(held))
                yield held_weakly(sweep, self)
                del sweep

    monkeypatch.setattr(oswr.engine, "StackOperator", Recorded)
    oracle = GlobalSolution(values=np.zeros((grid.nt + 1, grid.nx_axis, grid.nx_cross)))
    assert len(run(prob, grid, layout, SWRConfig(p=1.0, max_iters=60), oracle).rows) == 60
    assert factored == [20] * 30 + [40] * 30 and blocks == [0, 30]  # two blocks of 30
    operators.clear(), held.clear(), factored.clear(), blocks.clear()
    history = run(prob, grid, layout, SWRConfig(p=1.0, max_iters=20), oracle)
    operator, = operators
    assert len(history.rows) == 20
    assert operator.block == oswr.grid.FACTOR_CACHE_BYTES // iterate == 41
    assert factored == [20] * 20 and blocks == [0]
    assert operator.nbytes == 0 and not operator._lus
