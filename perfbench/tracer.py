"""Span tracing of the oswr layers from outside the package.

The tracer wraps functions of the ``oswr`` modules and rebinds every name
under which a module looks them up (``oswr.cli.swr_run`` is the same object
as ``oswr.engine.run``), so the package itself carries no timers.  Spans are
kept in memory as flat arrays (name, start, end, parent span, run id) and
written out when the benchmark ends.  A target that no longer exists is
reported as absent instead of failing the benchmark.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

# (span name, module, attribute).  An attribute "Class.method" is rebound on
# the class; a module function is rebound in every oswr module that holds it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("grid.eval_nodes", "oswr.grid", "eval_nodes"),
    ("grid.assemble_step", "oswr.grid", "assemble_step"),
    ("grid.solve", "oswr.grid", "BandedSystem.solve"),
    ("grid.march", "oswr.grid", "march"),
    ("subdomain.solve_subdomain", "oswr.subdomain", "solve_subdomain"),
    ("subdomain.extract_robin_trace", "oswr.subdomain", "extract_robin_trace"),
    ("engine.initial_traces", "oswr.engine", "initial_traces"),
    ("engine.sweep_once", "oswr.engine", "sweep_once"),
    ("engine.exchange", "oswr.engine", "exchange"),
    ("engine.run", "oswr.engine", "run"),
    ("oracle.solve_global", "oswr.oracle", "solve_global"),
    ("diagnostics.compute_error_fields", "oswr.diagnostics", "compute_error_fields"),
    ("diagnostics.compute_E", "oswr.diagnostics", "compute_E"),
    ("diagnostics.phi_boundary_check", "oswr.diagnostics", "phi_boundary_check"),
    ("diagnostics.contraction", "oswr.diagnostics", "contraction_report"),
    ("decomposition.snap", "oswr.decomposition", "snap"),
    ("config.load_config", "oswr.config", "load_config"),
    ("cli.main", "oswr.cli", "main"),
    ("cli.output", "oswr.diagnostics", "IterationHistory.save_csv"),
    ("cli.output", "oswr.cli", "_write_meta"),
)

ROOT_SPAN = "bench.op"


def rebind_everywhere(old: Callable, new: Callable, rebind) -> None:
    """Call rebind(module, name, new) for each oswr module name bound to old."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "oswr" or modname.startswith("oswr.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                rebind(module, attr, new)


class Patches:
    """Attribute rebindings, undone in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Tracer:
    """Records nested spans; each benchmark operation gets its own run id."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = -1
        self._stack = [-1]
        self.patches = Patches()
        self.absent: List[str] = []
        self.band_bytes: Dict[int, int] = {}  # computed from ab.nbytes, per run id

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.run.append(self.run_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(self.clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = self.clock()
                self._stack.pop()

        return traced

    def op(self, fn: Callable, *args, **kwargs):
        """Run one benchmark operation under a new run id and a root span."""
        self.run_id += 1
        return self.wrap(ROOT_SPAN, fn)(*args, **kwargs)

    def wrap_problem(self, problem):
        """The same problem with its f and g callables traced."""
        return dataclasses.replace(problem, f=self.wrap("problem.f", problem.f),
                                   g=self.wrap("problem.g", problem.g))

    def install(self, targets=TARGETS) -> None:
        self.absent = []
        # Import every target module first: a module imported later would
        # bind names to wrappers that uninstall() does not know about.
        modules = {}
        for _, modname, _ in targets:
            try:
                modules[modname] = importlib.import_module(modname)
            except ImportError:
                pass
        for name, modname, attr in targets:
            owner_name, _, leaf = attr.rpartition(".")
            try:
                module = modules[modname]
                owner = getattr(module, owner_name) if owner_name else module
                fn = vars(owner)[leaf]
            except (KeyError, AttributeError):
                self.absent.append(f"{name} ({modname}.{attr})")
                continue
            wrapped = self.wrap(name, fn)
            if name == "grid.assemble_step":
                wrapped = self._count_band_bytes(wrapped)
            if owner_name:
                self.patches.set(owner, leaf, wrapped)
            else:
                rebind_everywhere(fn, wrapped, self.patches.set)
        # Problems the CLI builds from its config get traced f and g too.
        cls = getattr(sys.modules.get("oswr.config"), "ExperimentConfig", None)
        if cls is not None and "build_problem" in vars(cls):
            build = vars(cls)["build_problem"]
            self.patches.set(cls, "build_problem",
                         lambda cfg: self.wrap_problem(build(cfg)))

    def _count_band_bytes(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            system = fn(*args, **kwargs)
            nbytes = getattr(getattr(system, "ab", None), "nbytes", 0)
            self.band_bytes[self.run_id] = self.band_bytes.get(self.run_id, 0) + nbytes
            return system

        return counted

    def uninstall(self) -> None:
        self.patches.undo()

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "run": np.frombuffer(self.run, dtype=np.intc).copy(),
        }

    def layer_table(self) -> Dict[int, Dict[str, Tuple[int, float, float]]]:
        """{run id: {span name: (calls, total seconds, self seconds)}}.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        table: Dict[int, Dict[str, Tuple[int, float, float]]] = {}
        for run in np.unique(a["run"]):
            in_run = a["run"] == run
            ids = a["name_id"][in_run]
            calls = np.bincount(ids, minlength=len(self.names))
            total = np.bincount(ids, weights=dur[in_run], minlength=len(self.names))
            own_t = np.bincount(ids, weights=own[in_run], minlength=len(self.names))
            table[int(run)] = {name: (int(calls[i]), float(total[i]), float(own_t[i]))
                               for i, name in enumerate(self.names) if calls[i]}
        return table

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
