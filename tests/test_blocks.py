"""Sweeps marched in blocks, time-outer, are the sweep-by-sweep run, bit for bit.

run() marches blocks of sweeps (StackOperator.solve_block) when the factors
of its distinct steps do not fit FACTOR_CACHE_BYTES.  These tests force
blocks on tiny cases with a cap of a few iterates and compare what the run
shows (rows, termination, each on_sweep call's iterate, errors) with a run
that keeps every factor and marches sweep by sweep.
"""

import dataclasses
import warnings
import weakref

import numpy as np
import pytest

import oswr.engine
import oswr.grid
from oswr import (DecompositionSpec, GlobalSolution, InitialGuess, RobinParameter,
                  StackOperator, SWRConfig, build_grid, problem_preset, run, snap,
                  solve_global)
from oswr.diagnostics import StackDiagnostics
from oswr.errors import DataMismatch
from oswr.grid import BandedLU, TridiagonalLU
from oswr.subdomain import axis_range
from tests.test_operator import _singular_run, _tiny_run

KEEP_ALL = 2 ** 40


def _iterate_bytes(prob, grid, layout):
    operator = StackOperator(prob, grid, [axis_range(e, RobinParameter(1.0))
                                          for e in layout.entries])
    return (grid.nt + 1) * operator.size * 8


@pytest.fixture(params=[("tvar1d", None, 12, 2, [2, 2, 2, 1], [2, 2]),
                        ("tvar2d", 7, 6, 4, [4, 3], [4])], ids=["tvar1d", "tvar2d"])
def case(request):
    """A tiny tvar run, its oracle, and a cap that holds `iterates` of its
    iterates but not the factors of its distinct steps, so that 7 sweeps
    march in blocks of these sizes, and the sweeps up to the third in
    blocks of these (the third has a later sweep in its block)."""
    preset, nx_cross, nt, iterates, sizes, to_third = request.param
    prob, grid, layout = _tiny_run(preset, nt=nt, nx_cross=nx_cross)
    cap = iterates * _iterate_bytes(prob, grid, layout)
    return prob, grid, layout, solve_global(prob, grid), cap, sizes, to_third


def _observe(monkeypatch, cap, case, config):
    """run() under this cap: its rows as text (nan-safe), its termination,
    each on_sweep call's (k, strip values) and the sizes of the blocks
    marched."""
    prob, grid, layout, oracle = case[:4]
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
    calls, sizes = [], []
    solve_block = StackOperator.solve_block

    def spied(self, faces, count=1, traces=None):
        sizes.append(count)
        return solve_block(self, faces, count, traces)

    monkeypatch.setattr(StackOperator, "solve_block", spied)
    history = run(prob, grid, layout, config, oracle, on_sweep=lambda k, sols: calls.append(
        (k, [s.values.copy() for s in sols])))
    monkeypatch.setattr(StackOperator, "solve_block", solve_block)
    return repr([dataclasses.astuple(r) for r in history.rows]), history.termination, calls, sizes


def _same_calls(a, b):
    assert [k for k, _ in a] == [k for k, _ in b]
    for (_, values_a), (_, values_b) in zip(a, b):
        assert all(np.array_equal(x, y) for x, y in zip(values_a, values_b))


@pytest.mark.parametrize("guess", [InitialGuess(), InitialGuess("random-smooth", seed=4)])
def test_blocks_are_the_sweeps(monkeypatch, case, guess):
    # Seven sweeps in blocks, the last shorter than the first.
    config = SWRConfig(p=1.0, max_iters=7, guess=guess)
    ref = _observe(monkeypatch, KEEP_ALL, case, config)
    got = _observe(monkeypatch, case[4], case, config)
    assert ref[3] == [] and got[3] == case[5]
    assert got[:2] == ref[:2] and ref[1] == "max_iters"
    _same_calls(got[2], ref[2])


def test_stop_tol_inside_a_block(monkeypatch, case):
    config = SWRConfig(p=1.0, max_iters=7)
    ref_rows = run(*case[:3], config, case[3]).rows
    assert ref_rows[2].E < min(ref_rows[0].E, ref_rows[1].E)
    # E_3 ends the run at sweep 3; its block's later sweep is discarded.
    config = dataclasses.replace(config, stop_tol=ref_rows[2].E)
    ref = _observe(monkeypatch, KEEP_ALL, case, config)
    got = _observe(monkeypatch, case[4], case, config)
    assert got[3] == case[6] and ref[1] == "stop_tol" and len(ref[2]) == 3
    assert got[:2] == ref[:2]
    _same_calls(got[2], ref[2])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_nonfinite_E_inside_a_block(monkeypatch, case, bad):
    # test_engine's test_stops_at_first_nonfinite sequence: the run ends at
    # sweep 3.
    measure = StackDiagnostics.__call__
    observed = []
    for cap in (KEEP_ALL, case[4]):
        sequence = iter([1.0, 0.5, bad, 0.1, 0.05])
        monkeypatch.setattr(StackDiagnostics, "__call__", lambda self, u: dataclasses.replace(
            measure(self, u), E=next(sequence)))
        observed.append(_observe(monkeypatch, cap, case, SWRConfig(p=1.0, max_iters=7)))
    ref, got = observed
    assert got[3] == case[6] and ref[1] == "nonfinite_E" and len(ref[2]) == 3
    assert got[:2] == ref[:2]
    _same_calls(got[2], ref[2])


def test_nonfinite_trace_inside_a_block(monkeypatch, case):
    # Sweep 3's iterate turns nan at step 2, whichever order the steps are
    # marched in: the LU solve that returns its clean value returns nan.
    config = SWRConfig(p=1.0, max_iters=7)
    clean = []
    solve = StackOperator.solve
    monkeypatch.setattr(StackOperator, "solve", lambda self, faces: clean.append(
        solve(self, faces)) or clean[-1])
    run(*case[:3], config, case[3])
    monkeypatch.setattr(StackOperator, "solve", solve)
    target = clean[2][2]
    for lu_class in (BandedLU, TridiagonalLU):
        def poisoned(self, rhs, _solve=lu_class.solve):
            x = _solve(self, rhs)
            if np.array_equal(x, target):
                x *= np.nan  # in place, as the solve writes the step
            return x

        monkeypatch.setattr(lu_class, "solve", poisoned)
    observed = []
    for cap in (KEEP_ALL, case[4]):
        calls = []
        monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
        with pytest.raises(DataMismatch) as raised:
            run(*case[:3], config, case[3], on_sweep=lambda k, sols: calls.append(k))
        observed.append((str(raised.value), calls))
    # The first two sweeps' rows and on_sweep calls come before the raise.
    assert observed[0] == observed[1] == ("trace values contain non-finite entries", [1, 2])


@pytest.mark.parametrize("iterates,block", [(2, 2), (3, 1)])
def test_blocks_only_where_they_factor_less(monkeypatch, iterates, block):
    # tvar1d's 12 distinct steps fit neither cap.  Under 2 iterates, 5 steps
    # fit and a march re-factors 7, where a block of 2 factors 12 / 2 = 6
    # per sweep.  Under 3 iterates, 8 fit and a march re-factors 4, as few
    # as a block of 3 factors per sweep: the run marches sweep by sweep.
    prob, grid, layout = _tiny_run("tvar1d", nt=12)
    ranges = [axis_range(e, RobinParameter(1.0)) for e in layout.entries]
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", KEEP_ALL)
    every = StackOperator(prob, grid, ranges)
    every.solve([(np.zeros((grid.nt + 1, 1)),) * 2] * len(ranges))
    cap = iterates * _iterate_bytes(prob, grid, layout)
    assert every.nbytes > cap and cap // (every.nbytes // 12) == 3 * iterates - 1
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
    assert StackOperator(prob, grid, ranges).block == block


def test_singular_step_under_blocks(monkeypatch):
    # heat2d's one step matrix does not fit a cap of two iterates.
    prob, grid, layout = _tiny_run("heat2d", nx_cross=7)
    cap = 2 * _iterate_bytes(prob, grid, layout)
    monkeypatch.setattr(oswr.grid, "FACTOR_CACHE_BYTES", cap)
    assert StackOperator(prob, grid, [axis_range(e, RobinParameter(1.0))
                                      for e in layout.entries]).block == 2
    monkeypatch.setattr(StackOperator, "solve", lambda *_: pytest.fail("swept unblocked"))
    _singular_run("heat2d", nx_cross=7)


def test_wide_layout_marches_one_block(monkeypatch):
    # tvar2d-wide's layout: 41 x 41 nodes, 20 steps, 3 strips.  Its 20
    # steps' factors do not fit the cap, 41 iterates do: 20 sweeps march in
    # one block, factoring every step once, keeping none; 60 sweeps march
    # in two blocks of 30, the first block's iterates gone before the second.
    prob = problem_preset("tvar2d")
    grid = build_grid(prob.domain, 41, 20, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the interfaces snap to nodes
        layout = snap(DecompositionSpec.uniform(prob.domain, 3, 0.2), grid)
    operators, sizes, held = [], [], []
    iterate = _iterate_bytes(prob, grid, layout)
    solve_block = StackOperator.solve_block

    class Recorded(StackOperator):
        def __init__(self, *args):
            super().__init__(*args)
            operators.append(self)

        def solve_block(self, faces, count=1, traces=None):
            # The iterates of earlier blocks still alive, and this block's.
            assert sum(ref() is not None for ref in held) + count <= self.block
            sizes.append(count)
            us = solve_block(self, faces, count, traces)
            held.extend(weakref.ref(u) for u in us)
            return us

    monkeypatch.setattr(oswr.engine, "StackOperator", Recorded)
    oracle = GlobalSolution(values=np.zeros((grid.nt + 1, grid.nx_axis, grid.nx_cross)))
    assert len(run(prob, grid, layout, SWRConfig(p=1.0, max_iters=60), oracle).rows) == 60
    assert sizes == [30, 30] and operators[0].factorizations == 40
    operators.clear(), sizes.clear()
    history = run(prob, grid, layout, SWRConfig(p=1.0, max_iters=20), oracle)
    operator, = operators
    assert len(history.rows) == 20
    assert operator.block == oswr.grid.FACTOR_CACHE_BYTES // iterate == 41
    assert sizes == [20]
    assert operator.factorizations == 20
    assert operator.nbytes == 0 and not operator._lus
