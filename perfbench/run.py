"""oswr benchmark: time to a stated accuracy on named workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run measures, untraced, the end-to-end metrics of
BENCHMARK.json: set-up time over repeated fresh-interpreter launches, then
operations (oracle plus every run, or one whole CLI invocation) until S
seconds have passed.  With --trace 1 it alternates untraced and traced
operations and reports the per-layer metrics from the spans of the traced
ones.  Every operation passes the correctness gate or counts as failed.
The last line of standard output is one JSON object; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from tracer import ROOT_SPAN, Patches, Tracer, rebind_everywhere
from workloads import ROOT, WORKLOADS, Workload, import_oswr, setup, swr_config

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

SETUP_LAUNCHES = 5
MIN_OPS = 2                 # a rerun is needed for the byte-identity check
MIN_SWEEP_SAMPLES = 100     # p90 then has at least ten samples above it

END_TO_END = {
    "setup_s": "s", "total_s": "s", "sweep_ms.p50": "ms", "sweep_ms.p90": "ms",
    "sweeps": "count", "dof_steps_per_s": "1/s", "peak_rss_mb": "MB",
}
# "<span>.calls|ms|self_ms" are read from the trace; the rest are derived.
PER_LAYER = (
    "problem.f.calls", "problem.f.ms", "problem.g.calls", "problem.g.ms",
    "grid.eval_nodes.self_ms", "grid.assemble_step.calls", "grid.assemble_step.ms",
    "grid.assemble_per_step", "grid.solve.calls", "grid.solve.ms", "grid.band_bytes",
    "grid.march.calls", "grid.march.self_ms",
    "subdomain.solve_subdomain.calls", "subdomain.solve_subdomain.self_ms",
    "subdomain.extract_robin_trace.ms",
    "engine.sweep_once.calls", "engine.sweep_once.ms", "engine.exchange.ms",
    "engine.initial_traces.ms", "engine.run.self_ms",
    "oracle.solve_global.ms",
    "diagnostics.compute_error_fields.ms", "diagnostics.compute_E.ms",
    "diagnostics.phi_boundary_check.ms", "diagnostics.contraction.ms",
    "decomposition.snap.ms", "config.load_config.ms", "cli.output.ms",
    "trace.overhead_pct", "trace.coverage_pct",
)
DERIVED_UNITS = {"grid.assemble_per_step": "ratio", "grid.band_bytes": "bytes",
                 "trace.overhead_pct": "%", "trace.coverage_pct": "%"}
FIELD_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms"}


def per_layer_unit(name: str) -> str:
    return DERIVED_UNITS.get(name) or FIELD_UNITS[name.rpartition(".")[2]]


class OpFailure(Exception):
    pass


@dataclass
class RunRecord:
    """One call of oswr.engine.run, timed from outside."""

    seconds: float
    sweep_s: List[float]
    sweeps: int
    dof_steps: int      # strip nodes x nt x sweeps
    strip_steps: int    # strips x nt


class RunRecorder:
    """Wraps oswr.engine.run wherever it is looked up (the CLI calls it as
    ``swr_run``) and times each sweep through ``on_sweep``."""

    def __init__(self):
        self.runs: List[RunRecord] = []
        self.patches = Patches()

    def install(self, oswr) -> None:
        run = oswr.engine.run
        signature = inspect.signature(run)

        def recorded_run(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            grid, layout = call.arguments["grid"], call.arguments["layout"]
            chained = call.arguments.get("on_sweep")
            stamps = [time.perf_counter()]

            def on_sweep(k, solutions):
                stamps.append(time.perf_counter())
                if chained is not None:
                    chained(k, solutions)

            call.arguments["on_sweep"] = on_sweep
            history = run(*call.args, **call.kwargs)
            seconds = time.perf_counter() - stamps[0]
            sweeps = len(history.rows)
            nodes = sum(e.i_right - e.i_left + 1 for e in layout.entries) * grid.nx_cross
            self.runs.append(RunRecord(
                seconds=seconds, sweep_s=[b - a for a, b in zip(stamps, stamps[1:])],
                sweeps=sweeps, dof_steps=nodes * grid.nt * sweeps,
                strip_steps=len(layout.entries) * grid.nt))
            return history

        rebind_everywhere(run, recorded_run, self.patches.set)


@dataclass
class Op:
    seconds: float = math.nan
    traced: bool = False
    sup_e: float = math.nan
    history: Optional[bytes] = None
    error: Optional[str] = None
    runs: List[RunRecord] = field(default_factory=list)


def library_op(oswr, wl: Workload, inputs, problem, seed: int):
    oracle = oswr.oracle.solve_global(problem, inputs.grid)
    sup_e, csv = 0.0, io.StringIO()
    for p in wl.p_values:
        history = oswr.engine.run(problem, inputs.grid, inputs.layout,
                                  swr_config(wl, p, seed), oracle)
        history.contraction()
        history.write_csv(csv)
        sup_e = max(sup_e, history.rows[-1].sup_e_max)
    return sup_e, csv.getvalue().encode()


def cli_op(oswr, ini: str):
    code = oswr.cli.main(["sweep", ini])
    if code != 0:
        raise OpFailure(f"oswr sweep exited with code {code}")


def cli_outputs(outdir: str):
    """Final max sup|e| over the runs, and the runs' history.csv bytes."""
    paths = sorted(glob.glob(os.path.join(outdir, "run_*", "history.csv")))
    if not paths:
        raise OpFailure("the CLI wrote no history.csv")
    sup_e, blobs = 0.0, []
    for path in paths:
        with open(path, "rb") as fh:
            blob = fh.read()
        blobs.append(blob)
        header, *rows = blob.decode().splitlines()
        col = header.split(",").index("sup_e_max")
        sup_e = max(sup_e, float(rows[-1].split(",")[col]))
    return sup_e, b"".join(blobs)


def measure(wl: Workload, seed: int, seconds: float, trace: bool, workdir: str):
    """Run operations for `seconds` (and at least the minimum counts); a trace
    run alternates untraced and traced operations."""
    oswr = import_oswr()
    inputs = setup(wl, seed, workdir)
    # Load every module before patching, so none binds a wrapper at import.
    importlib.import_module("oswr.cli")
    tracer = Tracer() if trace else None
    recorder = RunRecorder()
    recorder.install(oswr)
    ops: List[Op] = []
    reference: Optional[bytes] = None
    begin = time.perf_counter()
    try:
        while not enough(ops, trace, time.perf_counter() - begin, seconds):
            first_run = len(recorder.runs)
            op = one_op(oswr, wl, inputs, seed, workdir, tracer if len(ops) % 2 else None)
            op.runs = recorder.runs[first_run:]
            op.error = op.error or gate(wl, op, reference)
            if op.error is not None:
                print(f"operation {len(ops)} failed: {op.error}", file=sys.stderr)
            elif reference is None:
                reference = op.history
            ops.append(op)
    finally:
        recorder.patches.undo()
    return ops, tracer


def one_op(oswr, wl: Workload, inputs, seed: int, workdir: str,
           tracer: Optional[Tracer]) -> Op:
    """One operation, traced when a tracer is given."""
    op = Op(traced=tracer is not None)
    outdir = os.path.join(workdir, "out")
    if wl.kind == "cli":
        shutil.rmtree(outdir, ignore_errors=True)
        body, args = cli_op, (oswr, inputs.ini)
    else:
        problem = tracer.wrap_problem(inputs.problem) if tracer else inputs.problem
        body, args = library_op, (oswr, wl, inputs, problem, seed)
    try:
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        result = tracer.op(body, *args) if tracer else body(*args)
        op.seconds = time.perf_counter() - t0
        op.sup_e, op.history = cli_outputs(outdir) if wl.kind == "cli" else result
    except Exception as exc:  # the gate counts any failure of the program
        op.error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.uninstall()
    return op


def enough(ops: List[Op], trace: bool, elapsed: float, seconds: float) -> bool:
    """Stop after `seconds`, once the minimum samples are in.  A trace run
    alternates untraced and traced operations and stops after a pair."""
    if trace:
        return len(ops) >= 2 * MIN_OPS and len(ops) % 2 == 0 and elapsed >= seconds
    samples = sum(len(r.sweep_s) for o in ops for r in o.runs)
    if samples < MIN_SWEEP_SAMPLES and not any(o.error for o in ops):
        return False
    return len(ops) >= MIN_OPS and elapsed >= seconds


def gate(wl: Workload, op: Op, reference: Optional[bytes]) -> Optional[str]:
    """Why a finished operation fails the correctness gate, or None."""
    values = [op.seconds, op.sup_e] + [s for r in op.runs for s in r.sweep_s]
    if not all(math.isfinite(v) for v in values):
        return "a measured value is not finite"
    if not op.runs:
        return "no oswr.engine.run call was made"
    if op.sup_e > wl.accuracy:
        return f"final sup|e| {op.sup_e:.3e} above the stated accuracy {wl.accuracy:g}"
    if reference is not None and op.history != reference:
        return "history.csv differs from the first operation's"
    return None


def setup_seconds(wl: Workload, seed: int, workdir: str) -> List[float]:
    """Wall time of fresh interpreters that import oswr and build the inputs."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, probe, wl.name, str(seed),
                               os.path.join(workdir, "probe")],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise OpFailure(f"set-up probe failed: {done.stderr.strip()}")
    return times


def median(values: List[float]) -> float:
    return statistics.median(values) if values else math.nan


def end_to_end(ops: List[Op], setup_times: List[float]) -> Dict[str, float]:
    good = [o for o in ops if o.error is None]
    runs = [r for o in good for r in o.runs]
    sweeps_ms = [s * 1000.0 for r in runs for s in r.sweep_s]
    if not good or len(sweeps_ms) < 2:
        return {name: math.nan for name in END_TO_END}
    return {
        "setup_s": statistics.median(setup_times),
        "total_s": statistics.median(o.seconds for o in good),
        "sweep_ms.p50": statistics.median(sweeps_ms),
        "sweep_ms.p90": statistics.quantiles(sweeps_ms, n=10, method="inclusive")[8],
        "sweeps": statistics.median(r.sweeps for r in runs),
        "dof_steps_per_s": sum(r.dof_steps for r in runs) / sum(r.seconds for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ops: List[Op], tracer) -> Dict[str, float]:
    """Per-layer values per traced operation (mean over the traced ones)."""
    table = tracer.layer_table()
    traced = [o for o in ops if o.traced]
    n = len(traced)
    out = {}
    for name in PER_LAYER:
        if name in DERIVED_UNITS:
            continue
        span, _, fld = name.rpartition(".")
        k = {"calls": 0, "ms": 1, "self_ms": 2}[fld]
        total = sum(t.get(span, (0, 0.0, 0.0))[k] for t in table.values())
        out[name] = total / n if fld == "calls" else 1000.0 * total / n
    strip_steps = sum(r.strip_steps for o in traced for r in o.runs)
    out["grid.assemble_per_step"] = (out["grid.assemble_step.calls"] * n / strip_steps
                                     if strip_steps else math.nan)
    out["grid.band_bytes"] = sum(tracer.band_bytes.values()) / n
    out["trace.overhead_pct"] = 100.0 * (
        median([o.seconds for o in traced if o.error is None])
        / median([o.seconds for o in ops if not o.traced and o.error is None]) - 1.0)
    root = sum(t[ROOT_SPAN][1] for t in table.values())
    root_self = sum(t[ROOT_SPAN][2] for t in table.values())
    out["trace.coverage_pct"] = 100.0 * (1.0 - root_self / root) if root else math.nan
    return {name: out[name] for name in PER_LAYER}


def repeat_problems(tracer) -> List[str]:
    """Span counts must repeat exactly across traced operations."""
    table = tracer.layer_table()
    counts = [{name: row[0] for name, row in t.items()} for t in table.values()]
    return [f"span counts of traced operation {i} differ from operation 0"
            for i, c in enumerate(counts) if c != counts[0]]


def environment(seed: int) -> Dict[str, object]:
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    threads = {k: os.environ.get(k, "unset") for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "threads": threads, "commit": commit, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    import_oswr()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    problems: List[str] = []
    try:
        setup_times = [] if trace else setup_seconds(wl, args.seed, workdir)
        with warnings.catch_warnings():
            # The workloads' strip ends fall between nodes; snapping is expected.
            warnings.filterwarnings("ignore", message="interface abscissa")
            ops, tracer = measure(wl, args.seed, args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    print(f"workload {wl.name} ({wl.kind}), seed {args.seed}, trace {args.trace}, "
          f"stated accuracy sup|e| <= {wl.accuracy:g}")
    print("environment " + json.dumps(env, sort_keys=True))
    failed = sum(o.error is not None for o in ops)
    if trace:
        metrics = per_layer(ops, tracer)
        units = {name: per_layer_unit(name) for name in metrics}
        problems += repeat_problems(tracer)
        for absent in tracer.absent:
            print(f"absent span target: {absent}")
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.npz")
        tracer.save(spans)
        print(f"spans: {len(tracer.start)} written to {os.path.relpath(spans, ROOT)}")
        print(f"samples: {sum(o.traced for o in ops)} traced and "
              f"{sum(not o.traced for o in ops)} untraced operations; "
              "per-layer values are means per traced operation; "
              "grid.band_bytes is computed from ab.nbytes")
    else:
        metrics = end_to_end(ops, setup_times)
        units = dict(END_TO_END)
        runs = [r for o in ops if o.error is None for r in o.runs]
        print(f"samples: setup_s {len(setup_times)} launches, total_s "
              f"{len(ops) - failed} operations, sweep_ms {sum(len(r.sweep_s) for r in runs)} "
              f"sweeps over {len(runs)} runs")
        print("set-up seconds: " + " ".join(f"{t:.4f}" for t in setup_times))
        print("operation seconds: " + " ".join(f"{o.seconds:.4f}" for o in ops))
        print(f"dof_steps_per_s base: {sum(r.dof_steps for r in runs)} dof steps "
              f"in {sum(r.seconds for r in runs):.4f} s of run()")
    sup_e = max((o.sup_e for o in ops if o.error is None), default=math.nan)
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    print(f"  {'final_sup_e':36s} {sup_e:.6g}")
    print(f"  {'fail_frac':36s} {failed / len(ops):.6g} ({failed}/{len(ops)} operations)")
    problems += [f"metric {k} is not finite" for k, v in metrics.items()
                 if not math.isfinite(v)]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
