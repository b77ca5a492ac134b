"""Tests of the benchmark itself: span arithmetic, exact counts, output names.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import ROOT, Workload, import_oswr  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

TINY_LIBRARY = Workload(name="tvar1d-long", kind="library", preset="heat1d",
                        nx_axis=21, nt=5, count=3, overlap=0.2, max_iters=6,
                        accuracy=1.0)
TINY_CLI = Workload(name="heat1d-psweep", kind="cli", preset="heat1d", nx_axis=21,
                    nt=5, count=3, overlap=0.2, max_iters=6, accuracy=1.0,
                    p_values=(1.0, 2.0), guess="random-smooth")


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.op(tracer.wrap("outer", body))
    assert tracer.layer_table() == {0: {
        "bench.op": (1, 10.0, 3.0),
        "outer": (1, 7.0, 5.0),
        "inner": (2, 2.0, 2.0),
    }}
    assert list(tracer.parent) == [-1, 0, 1, 1]


def test_exact_counts_on_a_tiny_grid(tmp_path):
    ops, tracer = run.measure(TINY_LIBRARY, seed=0, seconds=0, trace=True,
                              workdir=str(tmp_path))
    assert all(op.error is None for op in ops)
    assert run.repeat_problems(tracer) == []
    sweeps, strips, nt = TINY_LIBRARY.max_iters, TINY_LIBRARY.count, TINY_LIBRARY.nt
    table = tracer.layer_table()
    assert len(table) == 2
    for spans in table.values():
        calls = {name: row[0] for name, row in spans.items()}
        assert calls["grid.assemble_step"] == (sweeps * strips + 1) * nt
        assert calls["grid.solve"] == (sweeps * strips + 1) * nt
        assert calls["problem.f"] == (sweeps * strips + 1) * nt
        assert calls["grid.march"] == sweeps * strips + 1
        assert calls["subdomain.solve_subdomain"] == sweeps * strips
        assert calls["engine.sweep_once"] == sweeps
        assert calls["oracle.solve_global"] == 1


def test_absent_targets_are_reported_and_uninstall_restores():
    oswr = import_oswr()
    before = (oswr.grid.assemble_step, oswr.grid.BandedSystem.solve,
              oswr.subdomain.march, oswr.engine.run)
    tracer = Tracer()
    tracer.install(TARGETS + (("grid.gone", "oswr.grid", "no_such_function"),
                              ("gone.module", "oswr.no_such_module", "f")))
    assert oswr.subdomain.march is not before[2]
    assert oswr.oracle.march is oswr.subdomain.march
    tracer.uninstall()
    assert tracer.absent == ["grid.gone (oswr.grid.no_such_function)",
                             "gone.module (oswr.no_such_module.f)"]
    after = (oswr.grid.assemble_step, oswr.grid.BandedSystem.solve,
             oswr.subdomain.march, oswr.engine.run)
    assert all(a is b for a, b in zip(before, after))


def _main(monkeypatch, tmp_path, capsys, wl, trace, seconds="0"):
    monkeypatch.setitem(run.WORKLOADS, wl.name, wl)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    code = run.main(["--workload", wl.name, "--seed", "3", "--seconds", seconds,
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("wl", [TINY_LIBRARY, TINY_CLI], ids=["library", "cli"])
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(monkeypatch, tmp_path, capsys, wl, trace):
    code, lines, result = _main(monkeypatch, tmp_path, capsys, wl, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    printed = {line.split()[0] for line in lines if line.startswith("  ")}
    assert {m["name"] for m in declared} <= printed
    assert {"final_sup_e", "fail_frac"} <= printed


def test_failed_accuracy_gate_exits_nonzero(monkeypatch, tmp_path, capsys):
    strict = Workload(**{**TINY_LIBRARY.__dict__, "accuracy": 1e-300})
    code, _, result = _main(monkeypatch, tmp_path, capsys, strict, trace=1)
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_declared_workloads_are_the_benchmark_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
