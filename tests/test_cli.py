"""Config ingestion, experiment orchestration and artifact emission."""

import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oswr import build_grid, config, load_config, problem_preset
from oswr.cli import (EXIT_CONTRACTION, EXIT_NUMERICAL, EXIT_OK,
                      EXIT_VALIDATION, main, run_experiment)
from oswr.errors import ParseError, ValidationError
from tests.conftest import data_finite, make_huge_data_problem, make_zero_problem, source_env

MINIMAL = """\
[problem]
preset = heat1d

[decomposition]
count = 2
overlap = 0.2

[iteration]
p = 1.0
"""


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def oswr(verb, path, cwd):
    """`oswr verb path` in a fresh interpreter on this checkout's sources."""
    return subprocess.run([sys.executable, "-m", "oswr.cli", verb, path],
                          cwd=cwd, env=source_env(), capture_output=True, text=True)


class TestLoadConfig:
    def test_defaults_filled(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.gamma is None  # run() applies 5/(beta-alpha)
        assert dict(cfg.as_items())["gamma"] == repr(5.0)
        assert cfg.guess == "zero"
        assert cfg.nx_axis == 101 and cfg.nt == 50
        assert cfg.orientation == "outward"
        assert cfg.stop_tol == pytest.approx(1e-20)

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL + "\nrobustness = 12\n")
        with pytest.raises(ValidationError, match="robustness"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL + "\n[plotting]\nstyle = lines\n")
        with pytest.raises(ValidationError, match="plotting"):
            load_config(path)

    def test_zero_overlap_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL.replace("overlap = 0.2", "overlap = 0"))
        with pytest.raises(ValidationError, match="overlap must be positive"):
            load_config(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = write(tmp_path, "[problem]\npreset heat1d no equals sign\n")
        with pytest.raises(ParseError, match="2"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_config(str(tmp_path / "absent.ini"))

    def test_bad_preset_named(self, tmp_path):
        path = write(tmp_path, MINIMAL.replace("heat1d", "cubic9d"))
        with pytest.raises(ValidationError, match="preset"):
            load_config(path)

    def test_sweep_lists_parsed(self, tmp_path):
        path = write(tmp_path, MINIMAL + "\n[sweep]\np_values = 0.5, 1, 2, 4\n")
        cfg = load_config(path)
        assert cfg.p_values == [0.5, 1.0, 2.0, 4.0]
        assert len(cfg.scheduled_runs(sweep=True)) == 4

    def test_time_horizon_settable(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, _fast(MINIMAL.replace("preset = heat1d",
                                                     "preset = heat1d\nT = 2")))
        assert main(["check", path]) == EXIT_OK
        cfg = load_config(path)
        grid = build_grid(cfg.build_problem().domain, cfg.nx_axis, cfg.nt, cfg.nx_cross)
        assert grid.dt == 2.0 / 20
        assert main(["run", path]) == EXIT_OK
        assert "  T = 2.0\n" in Path("out/meta").read_text()

    def test_explicit_lists(self, tmp_path):
        path = write(tmp_path, """\
[problem]
preset = heat1d

[decomposition]
a_list = 0.0, 0.4
b_list = 0.6, 1.0
""")
        cfg = load_config(path)
        spec = cfg.decomposition_spec(cfg.build_problem().domain)
        assert spec.a == (0.0, 0.4)
        assert spec.b == (0.6, 1.0)


# section -> {key: (INI value, parsed value)}, every value unlike its default
EVERY_KEY = {
    "problem": {"preset": ("tvar2d", "tvar2d"), "table": ("c.csv", "c.csv"),
                "n": ("2", 2), "alpha": ("-1", -1.0), "beta": ("2", 2.0),
                "T": ("0.5", 0.5), "cross_lo": ("-2", -2.0), "cross_hi": ("3", 3.0)},
    "grid": {"nx_axis": ("21", 21), "nt": ("7", 7), "nx_cross": ("9", 9)},
    "decomposition": {"count": ("3", 3), "overlap": ("0.3", 0.3),
                      "a_list": ("-1, 0.5", [-1.0, 0.5]), "b_list": ("1; 2", [1.0, 2.0])},
    "iteration": {"p": ("2.5", 2.5), "orientation": ("paper", "paper"),
                  "max_iters": ("7", 7), "stop_tol": ("1e-9", 1e-9),
                  "guess": ("constant", "constant"), "guess_value": ("0.25", 0.25),
                  "seed": ("11", 11)},
    "diagnostics": {"gamma": ("3", 3.0), "theta": ("2", 2.0), "gamma_max": ("0.5", 0.5)},
    "sweep": {"p_values": ("1, 2", [1.0, 2.0]), "overlap_values": ("0.1", [0.1])},
    "output": {"directory": ("elsewhere", "elsewhere")},
}


class TestSchema:
    def test_every_key_sets_its_field(self, tmp_path, monkeypatch):
        # Parsing only: no valid config sets every key (a_list excludes
        # overlap_values, table overrides preset).
        monkeypatch.setattr(config, "validate_config", lambda cfg: None)
        assert {s: set(keys) for s, keys in EVERY_KEY.items()} == \
            {s: set(keys) for s, keys in config._SCHEMA.items()}
        text = "".join(f"[{section}]\n" + "".join(f"{k} = {raw}\n"
                                                 for k, (raw, _) in keys.items())
                       for section, keys in EVERY_KEY.items())
        cfg = load_config(write(tmp_path, text))
        default = config.ExperimentConfig()
        for keys in EVERY_KEY.values():
            for key, (_, value) in keys.items():
                if key in ("cross_lo", "cross_hi"):
                    continue
                # repr, as meta writes it: 11 and 11.0 differ there.
                assert repr(getattr(cfg, key)) == repr(value), key
                assert value != getattr(default, key), key
        assert repr(cfg.cross) == repr((-2.0, 3.0)) != repr(default.cross)

    def test_as_items_lists_every_field_once(self, tmp_path):
        names = [key for key, _ in load_config(write(tmp_path, MINIMAL)).as_items()]
        fields = [f.name for f in dataclasses.fields(config.ExperimentConfig)]
        assert names == [n for n in fields if n != "gamma"] + ["gamma"]

    @pytest.mark.parametrize("text, message", [
        ("[grid]\nnt = 1.5\n", "[grid] nt has invalid value '1.5'"),
        ("[sweep]\np_values = 1, x\n",
         "p_values must be a comma-separated list of numbers"),
    ])
    def test_invalid_value_message(self, tmp_path, capsys, text, message):
        assert main(["check", write(tmp_path, text)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"config error: {message}\n"


def _fast(text):
    return text + """
[grid]
nx_axis = 41
nt = 20

[diagnostics]
theta = 10.0
"""


class TestRunVerb:
    def test_run_emits_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, _fast(MINIMAL))
        assert main(["run", path, "--gnuplot-stub"]) == EXIT_OK
        assert os.path.exists("out/history.csv")
        assert os.path.exists("out/summary.csv")
        assert os.path.exists("out/meta")
        assert os.path.exists("out/plot.gp")
        with open("out/summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "run"
        assert len(rows) == 2
        assert rows[1][4] == "stop_tol"

    def test_rerun_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, _fast(MINIMAL))
        assert main(["run", path]) == EXIT_OK
        first = Path("out/history.csv").read_bytes()
        assert main(["run", path]) == EXIT_OK
        assert Path("out/history.csv").read_bytes() == first

    def test_zero_data_single_row(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = load_config(write(tmp_path, _fast(MINIMAL)))
        base = cfg.build_problem()
        cfg.build_problem = lambda: make_zero_problem(base)
        assert run_experiment(cfg) == EXIT_OK
        with open("out/history.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2  # header + single sweep
        assert float(rows[1][1]) == 0.0

    def test_percent_is_literal(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for directory in ("out%x", "o_%(nt)s"):
            path = write(tmp_path, _fast(MINIMAL) + f"\n[output]\ndirectory = {directory}\n")
            assert main(["run", path]) == EXIT_OK
            assert os.path.exists(f"{directory}/history.csv")

    def test_check_verb(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        assert main(["check", path]) == EXIT_OK
        bad = write(tmp_path, MINIMAL + "\nturbo = on\n", name="bad.ini")
        assert main(["check", bad]) == EXIT_VALIDATION


class TestSweepVerb:
    def test_sweep_row_count_is_cartesian(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, _fast(MINIMAL) + """
[sweep]
p_values = 0.5, 1.0
overlap_values = 0.1, 0.2
""")
        assert main(["sweep", path]) == EXIT_OK
        with open("out/summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 4
        assert os.path.exists("out/run_000/history.csv")
        assert os.path.exists("out/run_003/meta")

    def test_sweep_without_lists_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        assert main(["sweep", path]) == EXIT_VALIDATION


class TestExitCodes:
    def test_validation_exit(self, tmp_path):
        path = write(tmp_path, MINIMAL.replace("p = 1.0", "p = -3"))
        assert main(["run", path]) == EXIT_VALIDATION

    @pytest.mark.parametrize("verb", ["check", "run"])
    def test_removed_workers_key_rejected(self, tmp_path, monkeypatch, capsys, verb):
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, MINIMAL + "workers = 2\n")
        assert main([verb, path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            "config error: unknown key 'workers' in section [iteration]\n"
        assert not os.path.exists("out")

    @pytest.mark.parametrize("verb", ["check", "run"])
    def test_single_strip_rejected(self, tmp_path, monkeypatch, capsys, verb):
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, MINIMAL.replace("count = 2", "count = 1"))
        assert main([verb, path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "config error: count must be at least 2\n"
        assert not os.path.exists("out")

    def test_numerical_exit_on_snap_failure(self, tmp_path, monkeypatch, capsys):
        # Overlap below one grid cell collapses when snapped: the run fails
        # numerically but still writes its meta file.  The snap warnings are
        # one stderr line each.
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, MINIMAL.replace("overlap = 0.2",
                                               "overlap = 0.001") + """
[grid]
nx_axis = 11
nt = 4
""")
        assert main(["run", path]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.splitlines() == [
            "run 0: warning: interface abscissa 0.5005 snapped to node with shift -0.0005",
            "run 0: warning: interface abscissa 0.4995 snapped to node with shift 0.0005",
            "run 0: numerical error: snapped overlap between strips 1 and 2 collapsed "
            "below one grid cell"]
        assert os.path.exists("out/meta")

    def test_warnings_are_run_lines(self, tmp_path):
        # README's example on 3 nodes: four snap warnings, then the run
        # fails; the process prints each warning as one line, no source line.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        path = write(tmp_path, text.replace("nx_axis = 101", "nx_axis = 3")
                     .replace("nt = 50", "nt = 2"))
        proc = oswr("run", path, tmp_path)
        assert proc.returncode == EXIT_NUMERICAL
        lines = proc.stderr.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("run 0: warning: interface abscissa") for line in lines[:4])
        assert lines[4] == "run 0: numerical error: interface a_2 not interior to strip 1"

    def test_contraction_exit(self, tmp_path, monkeypatch):
        # An unreachable ratio bound makes the verdict fail -> exit 4, with
        # the full history still on disk.
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, _fast(MINIMAL).replace(
            "theta = 10.0", "theta = 10.0\ngamma_max = 1e-9"))
        assert main(["run", path]) == EXIT_CONTRACTION
        assert os.path.exists("out/history.csv")

    def test_time_weight_underflow_runs(self, tmp_path, monkeypatch):
        # exp(-theta t) underflows to 0 at theta = 800; E_k has no time
        # weight, so its column equals the theta = 0 run's.
        monkeypatch.chdir(tmp_path)
        columns = {}
        for theta in ("800", "0"):
            path = write(tmp_path, _fast(MINIMAL).replace(
                "theta = 10.0", f"theta = {theta}\n\n[output]\ndirectory = out{theta}"))
            assert main(["check", path]) == EXIT_OK
            assert main(["run", path]) == EXIT_OK
            with open(f"out{theta}/history.csv") as fh:
                columns[theta] = [row["E_k"] for row in csv.DictReader(fh)]
        assert columns["800"] == columns["0"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_E_exit(self, tmp_path, monkeypatch, capsys):
        # p = 700 passes check (exp(700) is finite), but E_k, the square of
        # an error weighted by exp(p x_n), overflows in the first sweep: exit
        # 3 with one line, no contraction verdict, and the history on disk.
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, _fast(MINIMAL.replace("p = 1.0", "p = 700")))
        assert main(["run", path]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == \
            "run 0: numerical error: E_k is not finite at sweep 1\n"
        with open("out/history.csv") as fh:
            assert len(list(csv.reader(fh))) == 2
        with open("out/summary.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert row["termination"] == "nonfinite_E"
        assert row["verdict"] == ""
        assert "  termination = nonfinite_E\n" in Path("out/meta").read_text()

    def test_p_below_exp_overflow_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, _fast(MINIMAL.replace("p = 1.0", "p = 300")))
        assert main(["check", path]) == EXIT_OK
        assert main(["run", path]) == EXIT_OK

    def test_overflowing_guess_one_line(self, tmp_path):
        # A finite guess whose Robin data overflow in the first sweep: exit 3
        # with the non-finite trace's one line on stderr and no numpy warning.
        path = write(tmp_path, _fast(MINIMAL + "guess = constant\nguess_value = 1e308\n"))
        proc = oswr("check", path, tmp_path)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        proc = oswr("run", path, tmp_path)
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr.splitlines() == [
            "run 0: numerical error: trace values contain non-finite entries"]

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_nonfinite_oracle_one_line(self, tmp_path, monkeypatch, capsys, verb):
        # Finite data f, g near 1e306 pass check (it reads the
        # coefficients), but the reference march overflows (u_prev / dt at
        # dt = 2.5e-3): exit 3 with one line and no numpy warning.
        base = problem_preset("heat1d")
        assert data_finite(make_huge_data_problem(base), build_grid(base.domain, 21, 400))
        monkeypatch.chdir(tmp_path)
        build = config.ExperimentConfig.build_problem
        monkeypatch.setattr(config.ExperimentConfig, "build_problem",
                            lambda cfg: make_huge_data_problem(build(cfg)))
        path = write(tmp_path, MINIMAL + "\n[grid]\nnx_axis = 21\nnt = 400\n"
                     "\n[sweep]\np_values = 1, 2\n")
        assert main(["check", path]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert main([verb, path]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical error: the reference solution is not finite (dt = 0.0025)\n")

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_tiny_T_runs_on_an_exact_oracle(self, tmp_path, monkeypatch, capsys, verb):
        # At T = 1e-200 (1/dt = 1e201) the oracle keeps its face values, and
        # the strips hardly move from g: every run stops after sweep 1 with
        # E_k = 0 and sup|e| = 0.
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, MINIMAL.replace("preset = heat1d", "preset = heat1d\nT = 1e-200")
                     + "\n[grid]\nnx_axis = 21\nnt = 10\n\n[sweep]\np_values = 1, 2\n")
        assert main([verb, path]) == EXIT_OK
        assert capsys.readouterr().err == ""
        for rundir in (["out/run_000", "out/run_001"] if verb == "sweep" else ["out"]):
            with open(os.path.join(rundir, "history.csv")) as fh:
                rows = list(csv.DictReader(fh))
            assert [(r["k"], r["E_k"], r["sup_e_max"]) for r in rows] == [("1", "0.0", "0.0")]


TABLE_1D = "t,a11,b1,c\n0,{a},0,0\n1,{a},0,0\n"
_TINY_2D = """\
[problem]
preset = heat2d
n = 2

[grid]
nx_axis = 11
nt = 4
nx_cross = 5

[decomposition]
count = 2
overlap = 0.2
"""
_OVERFLOWS = "must be below 709.78, where exp(p (x_n - alpha)) overflows"

# (config text, table text or None, expected message).  Each config once
# passed `check` and then crashed, failed numerically or ran on wrongly
# interpolated coefficients in `run`/`sweep`, set a key that is gone, was
# read other than as written (%-interpolation, a [DEFAULT] section), or was
# rejected for strip ends it did not write (a vanishing overlap).
# "{table}" in the config stands for the path of the table file.
CONFIG_CASES = {
    "overlap-wider-than-strip": (
        MINIMAL.replace("count = 2", "count = 4").replace("overlap = 0.2", "overlap = 0.3"),
        None, "overlap must be smaller than the strip width"),
    "single-entry-lists": (
        "[problem]\npreset = heat1d\n\n[decomposition]\na_list = 0.0\nb_list = 1.0\n",
        None, "count must be at least 2"),
    "bad-table-header": (
        "[problem]\ntable = {table}\n", "t,a11,b2,c\n0,1,0,0\n1,1,0,0\n",
        "1D coefficient table header must be t,a11,b1,c"),
    "sweep-overlap-wider-than-strip": (
        MINIMAL + "\n[sweep]\noverlap_values = 0.2, 0.6\n",
        None, "overlap must be smaller than the strip width"),
    "non-elliptic-table": (
        "[problem]\ntable = {table}\n", TABLE_1D.format(a=-1),
        "smallest diffusion eigenvalue estimate -1 <= 0"),
    "2d-without-nx_cross": (
        "[problem]\npreset = tvar2d\nn = 2\n", None,
        "nx_cross is required for n=2"),
    "non-interleaving-lists": (
        "[problem]\npreset = heat1d\n\n[decomposition]\n"
        "a_list = 0.0, 0.3, 0.5\nb_list = 0.6, 0.7, 1.0\n",
        None, "invalid decomposition: b_1 < a_3 fails"),
    "lists-inside-the-domain": (
        "[problem]\npreset = heat1d\n\n[decomposition]\n"
        "a_list = 0.2, 0.4\nb_list = 0.6, 0.8\n",
        None, "invalid decomposition: a_1 = alpha fails (0.2 != 0)"),
    "infinite-theta": (
        MINIMAL + "\n[diagnostics]\ntheta = inf\n",
        None, "theta must be nonnegative and finite"),
    "infinite-p": (
        MINIMAL.replace("p = 1.0", "p = inf"),
        None, "Robin parameter p must be positive and finite"),
    "infinite-gamma": (
        MINIMAL + "\n[diagnostics]\ngamma = inf\n",
        None, "gamma must be positive and finite"),
    "lists-short-of-beta": (
        "[problem]\npreset = heat1d\n\n[decomposition]\n"
        "a_list = 0.0, 0.4\nb_list = 0.6, 0.8\n",
        None, "invalid decomposition: b_2 = beta fails (0.8 != 1)"),
    "empty-output-directory": (
        MINIMAL + "\n[output]\ndirectory =\n",
        None, "[output] directory must not be empty"),
    "huge-p": (
        MINIMAL.replace("p = 1.0", "p = 1e308"),
        None, f"p * (beta - alpha) = 1e+308 {_OVERFLOWS}"),
    "large-p": (
        MINIMAL.replace("p = 1.0", "p = 1e200"),
        None, f"p * (beta - alpha) = 1e+200 {_OVERFLOWS}"),
    "overflowing-p": (
        MINIMAL.replace("p = 1.0", "p = 800"),
        None, f"p * (beta - alpha) = 800 {_OVERFLOWS}"),
    "overflowing-p-on-a-long-axis": (
        MINIMAL.replace("preset = heat1d", "preset = heat1d\nbeta = 2")
        .replace("p = 1.0", "p = 400"),
        None, f"p * (beta - alpha) = 800 {_OVERFLOWS}"),
    "overflowing-p_values": (
        MINIMAL + "\n[sweep]\np_values = 1.0, 710\n",
        None, f"p * (beta - alpha) = 710 {_OVERFLOWS}"),
    "infinite-guess": (
        MINIMAL + "guess = constant\nguess_value = inf\n",
        None, "guess value must be finite"),
    "nan-guess": (
        MINIMAL + "guess = constant\nguess_value = nan\n",
        None, "guess value must be finite"),
    "removed-record_timing-key": (
        MINIMAL + "record_timing = yes\n",
        None, "unknown key 'record_timing' in section [iteration]"),
    "infinite-T": (
        MINIMAL.replace("preset = heat1d", "preset = heat1d\nT = inf"),
        None, "T must be positive and finite"),
    "tiny-T": (
        MINIMAL.replace("preset = heat1d", "preset = heat1d\nT = 1e-310"),
        None, "1/dt overflows for T = 1e-310 and nt = 50"),
    "overflowing-axis": (
        MINIMAL.replace("preset = heat1d", "preset = heat1d\nalpha = -1e308\nbeta = 1e308"),
        None, "alpha, beta and beta - alpha must be finite"),
    "infinite-cross_hi": (
        _TINY_2D.replace("n = 2", "n = 2\ncross_hi = inf"),
        None, "cross-section bounds and length must be finite"),
    "overflowing-cross": (
        _TINY_2D.replace("n = 2", "n = 2\ncross_lo = -1e308\ncross_hi = 1e308"),
        None, "cross-section bounds and length must be finite"),
    "negative-seed": (
        MINIMAL + "guess = random-smooth\nseed = -1\n",
        None, "guess seed must be nonnegative"),
    "decreasing-table-t": (
        "[problem]\ntable = {table}\n", "t,a11,b1,c\n1,1,0,0\n0,2,0,0\n",
        "coefficient table t column must be finite and strictly increasing"),
    "repeated-table-t": (
        "[problem]\ntable = {table}\n", "t,a11,b1,c\n0,1,0,0\n0,2,0,0\n1,1,0,0\n",
        "coefficient table t column must be finite and strictly increasing"),
    "infinite-table-t": (
        "[problem]\ntable = {table}\n", "t,a11,b1,c\n0,1,0,0\ninf,1,0,0\n",
        "coefficient table t column must be finite and strictly increasing"),
    "text-in-a-table-cell": (
        "[problem]\ntable = {table}\n", "t,a11,b1,c\n0,abc,0.5,1\n1,2,0.5,1\n",
        "coefficient table data row 1, column a11: not a finite number"),
    "empty-table": (
        "[problem]\ntable = {table}\n", "", "coefficient table is empty"),
    "header-only-table": (
        "[problem]\ntable = {table}\n", "t,a11,b1,c\n", "coefficient table has no rows"),
    "ragged-table": (
        "[problem]\ntable = {table}\n", "t,a11,b1,c\n0,1,0\n1,1,0,0\n",
        "malformed coefficient table: Line #2 (got 3 columns instead of 4)"),
    "tiny-axis-spacing": (
        MINIMAL.replace("preset = heat1d", "preset = heat1d\nbeta = 1e-200")
        .replace("overlap = 0.2", "overlap = 2e-201") + "\n[grid]\nnx_axis = 11\nnt = 2\n",
        None, "h**2 or (pi/h)**2 overflows for the axis spacing h = 1e-201"),
    "huge-cross-spacing": (
        _TINY_2D.replace("n = 2", "n = 2\ncross_lo = 1e300\ncross_hi = 1.0000001e300"),
        None, "h**2 or (pi/h)**2 overflows for the cross spacing h = 2.5e+292"),
    "percent-in-a-value": (
        MINIMAL + "\n[grid]\nnx_axis = 1%x\n",
        None, "[grid] nx_axis has invalid value '1%x'"),
    "interpolation-of-a-key": (
        MINIMAL + "\n[grid]\nnt = 4\nnx_cross = %(nt)s\n",
        None, "[grid] nx_cross has invalid value '%(nt)s'"),
    "interpolation-of-a-missing-key": (
        MINIMAL + "guess = %(nt)s\n",
        None, "guess kind must be zero, constant or random-smooth"),
    "default-section": (
        "[DEFAULT]\nnx_axis = 11\n", None, "unknown section [DEFAULT]"),
    "empty-default-section": (
        "[DEFAULT]\n" + MINIMAL, None, "unknown section [DEFAULT]"),
    "overflowing-step-diagonal": (
        "[problem]\ntable = {table}\n\n[grid]\nnx_axis = 21\n", TABLE_1D.format(a="1e306"),
        "a11 = 1e+306 at t=0.02 makes a step-matrix entry overflow"),
    "overflowing-advection": (
        "[problem]\ntable = {table}\n\n[grid]\nnx_axis = 21\n",
        "t,a11,b1,c\n0,1,1e308,0\n1,1,1e308,0\n",
        "b1 = 1e+308 at t=0.02 makes a step-matrix entry overflow"),
    "overflowing-cross-diffusion": (
        "[problem]\ntable = {table}\nn = 2\n\n[grid]\nnx_axis = 11\nnt = 4\nnx_cross = 5\n",
        "t,a11,a12,a22,b1,b2,c\n0,1e307,0,1,0,0,0\n1,1e307,0,1,0,0,0\n",
        "a11 = 1e+307 at t=0.25 makes a step-matrix entry overflow"),
    "overflowing-robin-row": (
        "[problem]\ntable = {table}\n\n[grid]\nnx_axis = 21\n\n[iteration]\np = 700\n",
        TABLE_1D.format(a="1e305"),
        "a11 = 1e+305 at t=0.02 makes a step-matrix entry overflow"),
    "vanishing-overlap": (
        MINIMAL.replace("overlap = 0.2", "overlap = 1e-300"),
        None, "overlap 1e-300 does not move the strip ends off the cuts"),
    "vanishing-overlap_values": (
        MINIMAL + "\n[sweep]\noverlap_values = 0.2, 1e-300\n",
        None, "overlap 1e-300 does not move the strip ends off the cuts"),
    # The table file stands in for any file where the directory should be.
    "directory-is-a-file": (
        MINIMAL + "\n[output]\ndirectory = coeffs.csv\n", "not a directory\n",
        "[output] directory 'coeffs.csv': coeffs.csv is not a directory"),
    "directory-under-a-file": (
        MINIMAL + "\n[output]\ndirectory = coeffs.csv/runs/\n", "not a directory\n",
        "[output] directory 'coeffs.csv/runs/': coeffs.csv is not a directory"),
}


class TestOneValidationPath:
    @pytest.mark.parametrize("verb", ["check", "run", "sweep"])
    @pytest.mark.parametrize("case", sorted(CONFIG_CASES))
    def test_rejected_with_one_line(self, tmp_path, monkeypatch, capsys, case, verb):
        monkeypatch.chdir(tmp_path)
        text, table, message = CONFIG_CASES[case]
        if table is not None:
            text = text.format(table=write(tmp_path, table, name="coeffs.csv"))
        if verb == "sweep" and "[sweep]" not in text:
            text += "\n[sweep]\np_values = 0.5, 1.0\n"
        path = write(tmp_path, text)
        assert main([verb, path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not os.path.exists("out")

    @pytest.mark.parametrize("verb", ["check", "run", "sweep"])
    @pytest.mark.parametrize("name", ["run_000", "run_001"])
    def test_sweep_run_directory_is_a_file(self, tmp_path, monkeypatch, capsys, verb, name):
        # A file where `oswr sweep` puts a run's directory; the config is the
        # same for every verb, so each rejects it.
        monkeypatch.chdir(tmp_path)
        os.mkdir("out")
        write(tmp_path / "out", "x\n", name=name)
        path = write(tmp_path, MINIMAL + "\n[sweep]\np_values = 1, 2\n")
        assert main([verb, path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"config error: [output] directory 'out': out/{name} is not a directory\n")
        assert os.listdir("out") == [name]

    @pytest.mark.parametrize("verb", ["check", "run", "sweep"])
    def test_missing_section_header(self, tmp_path, monkeypatch, capsys, verb):
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, "malformed line without equals\n" + MINIMAL)
        assert main([verb, path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"config error: {path}: missing section header at line 1\n")
        assert not os.path.exists("out")

    @pytest.mark.parametrize("verb", ["check", "run", "sweep"])
    def test_unreadable_file(self, tmp_path, monkeypatch, capsys, verb):
        monkeypatch.chdir(tmp_path)
        os.mkdir("dir.ini")
        Path("latin1.ini").write_bytes(b"# caf\xe9\n" + MINIMAL.encode())
        assert main([verb, "dir.ini"]) == EXIT_VALIDATION
        assert main([verb, "latin1.ini"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "config error: cannot read config file dir.ini: Is a directory\n"
            "config error: latin1.ini: not UTF-8 text (invalid continuation byte)\n")
        assert not os.path.exists("out")

    def test_elliptic_table_accepted(self, tmp_path):
        table = write(tmp_path, TABLE_1D.format(a=1), name="coeffs.csv")
        path = write(tmp_path, f"[problem]\ntable = {table}\n")
        assert main(["check", path]) == EXIT_OK

    def test_overlap_values_with_explicit_lists_rejected(self, tmp_path):
        path = write(tmp_path, "[decomposition]\na_list = 0.0, 0.4\n"
                               "b_list = 0.6, 1.0\n\n[sweep]\noverlap_values = 0.1\n")
        with pytest.raises(ValidationError, match="overlap_values cannot be combined"):
            load_config(path)

    def test_readme_example_checks(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S)
        assert block is not None
        path = write(tmp_path, block.group(1))
        assert main(["check", path]) == EXIT_OK

    def test_readme_python_runs(self, capsys):
        # Every fenced Python block runs as written, each in a fresh
        # namespace: the run() and the stacked-loop quick starts at least.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert len(blocks) >= 2
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {"__name__": "__readme__"})
        assert capsys.readouterr().err == ""
