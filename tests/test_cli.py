"""Config ingestion, experiment orchestration and artifact emission."""

import csv
import os

import numpy as np
import pytest

from oswr import load_config
from oswr.cli import (EXIT_CONTRACTION, EXIT_NUMERICAL, EXIT_OK,
                      EXIT_VALIDATION, main, run_experiment)
from oswr.errors import ParseError, ValidationError
from tests.conftest import make_zero_problem

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


class TestLoadConfig:
    def test_defaults_filled(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.resolved_gamma() == pytest.approx(5.0)  # 5/(beta-alpha)
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
        first = open("out/history.csv", "rb").read()
        assert main(["run", path]) == EXIT_OK
        assert open("out/history.csv", "rb").read() == first

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

    def test_numerical_exit_on_snap_failure(self, tmp_path, monkeypatch):
        # Overlap below one grid cell collapses when snapped: the run fails
        # numerically but still writes its meta file.
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, MINIMAL.replace("overlap = 0.2",
                                               "overlap = 0.001") + """
[grid]
nx_axis = 11
nt = 4
""")
        assert main(["run", path]) == EXIT_NUMERICAL
        assert os.path.exists("out/meta")

    def test_contraction_exit(self, tmp_path, monkeypatch):
        # An unreachable ratio bound makes the verdict fail -> exit 4, with
        # the full history still on disk.
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, _fast(MINIMAL).replace(
            "theta = 10.0", "theta = 10.0\ngamma_max = 1e-9"))
        assert main(["run", path]) == EXIT_CONTRACTION
        assert os.path.exists("out/history.csv")
