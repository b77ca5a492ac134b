"""The benchmark's named workloads and the set-up each operation starts from.

Every workload runs in one process with no worker threads (``workers`` is
left at its default): on a 2-CPU host the thread pool is slower.  Workloads
set only INI keys and ``SWRConfig`` fields that are meant to stay
(preset, grid sizes, strip count, overlap, p, sweep budget, initial guess
and its seed), and every run is bounded by its sweep budget rather than by
``stop_tol``.

This module imports nothing heavy at import time, so the set-up probe can
time ``import oswr`` itself.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Workload:
    """One named input set.  ``kind`` is 'library' (``oswr.engine.run``) or
    'cli' (``oswr.cli.main(["sweep", ini])``)."""

    name: str
    kind: str
    preset: str
    nx_axis: int
    nt: int
    count: int
    overlap: float
    max_iters: int
    accuracy: float  # an operation fails if its final max sup|e| exceeds this
    p_values: Tuple[float, ...] = (1.0,)
    nx_cross: Optional[int] = None
    guess: str = "zero"


WORKLOADS = {
    # Many time steps of small tridiagonal systems: node data, assembly,
    # solves and per-step Python overhead all show.  The baseline case.
    "tvar1d-long": Workload(
        name="tvar1d-long", kind="library", preset="tvar1d", nx_axis=401,
        nt=200, count=4, overlap=0.1, max_iters=60, accuracy=1e-9),
    # Few steps of wide banded systems (bandwidth 42): assembly row loops
    # and banded solves dominate; node data is small.
    "tvar2d-wide": Workload(
        name="tvar2d-wide", kind="library", preset="tvar2d", nx_axis=41,
        nx_cross=41, nt=20, count=3, overlap=0.2, max_iters=20,
        accuracy=1e-8),
    # Four short runs share one oracle; time-constant coefficients; eight
    # small strips; the only workload through config parsing, the CLI and
    # its output files, and the only one whose inputs depend on the seed.
    "heat1d-psweep": Workload(
        name="heat1d-psweep", kind="cli", preset="heat1d", nx_axis=201,
        nt=50, count=8, overlap=0.08, max_iters=30, accuracy=1e-2,
        p_values=(1.0, 2.0, 4.0, 8.0), guess="random-smooth"),
}


def import_oswr():
    """Import ``oswr`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "oswr", "__init__.py")):
        raise SystemExit(f"oswr sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import oswr
    here = os.path.dirname(os.path.abspath(oswr.__file__))
    if os.path.dirname(here) != SRC:
        raise SystemExit(f"oswr imported from {here}, not from {SRC}")
    return oswr


def ini_text(wl: Workload, seed: int, directory: str) -> str:
    lines = ["[problem]", f"preset = {wl.preset}",
             "[grid]", f"nx_axis = {wl.nx_axis}", f"nt = {wl.nt}"]
    if wl.nx_cross is not None:
        lines.append(f"nx_cross = {wl.nx_cross}")
    lines += ["[decomposition]", f"count = {wl.count}", f"overlap = {wl.overlap!r}",
              "[iteration]", f"max_iters = {wl.max_iters}", f"guess = {wl.guess}",
              f"seed = {seed}",
              "[sweep]", "p_values = " + ", ".join(repr(p) for p in wl.p_values),
              "[output]", f"directory = {directory}"]
    return "\n".join(lines) + "\n"


@dataclass
class Inputs:
    """What a workload's operations start from, built once per process."""

    problem: object
    grid: object
    layout: object
    ini: Optional[str] = None


def setup(wl: Workload, seed: int, workdir: str) -> Inputs:
    """Import oswr and build problem, grid and layout (and load the INI for
    the CLI workload).  This is exactly what ``setup_s`` times."""
    oswr = import_oswr()
    if wl.kind == "cli":
        import oswr.cli  # noqa: F401  (what `oswr sweep` loads)
        os.makedirs(workdir, exist_ok=True)
        ini = os.path.join(workdir, "config.ini")
        with open(ini, "w") as fh:
            fh.write(ini_text(wl, seed, os.path.join(workdir, "out")))
        cfg = oswr.config.load_config(ini)
        problem = cfg.build_problem()
        grid = oswr.grid.build_grid(problem.domain, cfg.nx_axis, cfg.nt, cfg.nx_cross)
        layout = oswr.decomposition.snap(cfg.decomposition_spec(problem.domain), grid)
        return Inputs(problem, grid, layout, ini)
    problem = oswr.problem.problem_preset(wl.preset)
    grid = oswr.grid.build_grid(problem.domain, wl.nx_axis, wl.nt, wl.nx_cross)
    spec = oswr.decomposition.DecompositionSpec.uniform(problem.domain, wl.count,
                                                        wl.overlap)
    return Inputs(problem, grid, oswr.decomposition.snap(spec, grid))


def swr_config(wl: Workload, p: float, seed: int):
    """The library run's SWRConfig: only the fields meant to stay."""
    from oswr.engine import InitialGuess, SWRConfig
    from oswr.subdomain import RobinParameter
    return SWRConfig(p=RobinParameter(p), max_iters=wl.max_iters,
                     guess=InitialGuess(kind=wl.guess, seed=seed))
