"""Command-line experiment driver.

Verbs:
    oswr run   <config.ini>   single run
    oswr sweep <config.ini>   Cartesian sweep over p_values / overlap_values
    oswr check <config.ini>   validate the config and exit

Exit codes: 0 success, 2 validation failure, 3 numerical failure (a
non-finite E_k among them), 4 contraction verdict failure.  Each run writes
`history.csv` and a `meta` text file into its own directory; `summary.csv`
collects one row per run.  Each warning raised while run i is made is
printed as one stderr line, `run i: warning: <message>`.
"""

from __future__ import annotations

import argparse
import csv
import os
import platform
import sys
import warnings
from typing import List, Optional

import numpy as np

from . import __version__
from .config import RUN_DIR, ExperimentConfig, load_config
from .decomposition import snap
from .diagnostics import ContractionReport
from .engine import run as swr_run
from .errors import OswrError, ParseError, ValidationError
from .grid import build_grid
from .oracle import solve_global

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CONTRACTION = 4

SUMMARY_HEADER = ("run", "p", "overlap", "iterations", "termination",
                  "final_E", "mean_gamma", "verdict")

GNUPLOT_STUB = """\
# Convergence history plots; run with:  gnuplot plot.gp
set datafile separator ','
set terminal pngcairo size 900,600
set logscale y
set xlabel 'sweep k'
set key top right

set output 'history_E.png'
set ylabel 'E_k'
plot {E_lines}

set output 'history_sup_e.png'
set ylabel 'max_l sup|e_l^k|'
plot {e_lines}
"""


def _write_meta(path: str, cfg: ExperimentConfig, p: float, overlap: float,
                termination: str) -> None:
    import scipy  # here, not at import: scipy's package init costs start-up
    with open(path, "w") as fh:
        fh.write("resolved configuration\n")
        for key, val in cfg.as_items():
            fh.write(f"  {key} = {val}\n")
        fh.write(f"  run p = {p!r}\n")
        fh.write(f"  run overlap = {overlap!r}\n")
        fh.write(f"  termination = {termination}\n")
        fh.write("versions\n")
        fh.write(f"  oswr {__version__}\n")
        fh.write(f"  python {platform.python_version()}\n")
        fh.write(f"  numpy {np.__version__}\n")
        fh.write(f"  scipy {scipy.__version__}\n")


def _gnuplot_stub(outdir: str, rundirs: List[str]) -> None:
    def lines(col: int) -> str:
        return ", \\\n     ".join(
            f"'{d}/history.csv' using 1:{col} with linespoints title '{d}'"
            for d in rundirs)

    with open(os.path.join(outdir, "plot.gp"), "w") as fh:
        fh.write(GNUPLOT_STUB.format(E_lines=lines(2), e_lines=lines(3)))


def run_experiment(cfg: ExperimentConfig, sweep: bool = False,
                   gnuplot_stub: bool = False) -> int:
    """Execute the scheduled runs and write history/summary/meta artifacts."""
    runs = cfg.scheduled_runs(sweep)
    outdir = cfg.directory
    os.makedirs(outdir, exist_ok=True)
    try:
        problem = cfg.build_problem()
        grid = build_grid(problem.domain, cfg.nx_axis, cfg.nt, cfg.nx_cross)
        oracle = solve_global(problem, grid)
    except OswrError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    summary_rows = []
    rundirs = []
    status = EXIT_OK
    for idx, (p, overlap) in enumerate(runs):
        rundir_name = RUN_DIR.format(idx) if sweep else "."
        rundir = os.path.join(outdir, rundir_name) if sweep else outdir
        os.makedirs(rundir, exist_ok=True)
        rundirs.append(rundir_name if sweep else ".")
        termination = "error"
        report: Optional[ContractionReport] = None
        history = None
        try:
            with warnings.catch_warnings():
                # Every warning, whatever the filters outside, as one line.
                warnings.simplefilter("default")
                warnings.showwarning = lambda message, *_: print(
                    f"run {idx}: warning: {message}", file=sys.stderr)
                spec = cfg.decomposition_spec(problem.domain, overlap)
                layout = snap(spec, grid)
                history = swr_run(problem, grid, layout, cfg.swr_config(p), oracle)
            termination = history.termination
            if termination == "nonfinite_E":
                raise OswrError(f"E_k is not finite at sweep {len(history.rows)}")
            try:
                report = history.contraction(cfg.gamma_max)
            except OswrError:
                report = None  # run too short for a full window
        except OswrError as exc:
            print(f"run {idx}: numerical error: {exc}", file=sys.stderr)
            status = max(status, EXIT_NUMERICAL)

        if history is not None:
            history.save_csv(os.path.join(rundir, "history.csv"))
        _write_meta(os.path.join(rundir, "meta"), cfg, p, overlap, termination)

        final_E = history.rows[-1].E if history and history.rows else float("nan")
        iters = len(history.rows) if history else 0
        verdict = report.verdict if report is not None else ""
        mean_gamma = ("" if report is None or report.geometric_mean is None
                      else repr(report.geometric_mean))
        summary_rows.append([idx, repr(p), repr(overlap), iters, termination,
                             repr(final_E), mean_gamma, verdict])
        if report is not None and report.verdict == "fail":
            print(f"run {idx}: contraction verdict failed "
                  f"(max ratio above {cfg.gamma_max})", file=sys.stderr)
            status = max(status, EXIT_CONTRACTION)

    with open(os.path.join(outdir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(summary_rows)
    if gnuplot_stub:
        _gnuplot_stub(outdir, rundirs)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="oswr",
        description="Optimized Schwarz waveform relaxation experiments")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, helptext in (("run", "execute a single run"),
                           ("sweep", "run the Cartesian p/overlap sweep"),
                           ("check", "validate the config and exit")):
        sp = sub.add_parser(verb, help=helptext)
        sp.add_argument("config", help="path to the INI config file")
        if verb != "check":
            sp.add_argument("--gnuplot-stub", action="store_true",
                            help="emit a ready-to-run gnuplot script")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.verb == "sweep" and not (cfg.p_values or cfg.overlap_values):
            raise ValidationError("sweep mode needs p_values or overlap_values")
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.verb == "check":
        print(f"config OK: {args.config}")
        return EXIT_OK
    return run_experiment(cfg, sweep=(args.verb == "sweep"),
                          gnuplot_stub=args.gnuplot_stub)


if __name__ == "__main__":
    sys.exit(main())
