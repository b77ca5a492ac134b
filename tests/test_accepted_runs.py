"""Accepted means runnable as written: INI configs drawn from the config schema.

`oswr check` exits 0, or 2 with one stderr line.  After an exit 0, every
key written holds the value its parser gives, and `oswr run` and
`oswr sweep` each exit 0, 3 or 4 (`sweep` exits 2 without p_values or
overlap_values).  Their stderr holds one-line warnings, exactly one error
line per failed run and one verdict line per failed verdict, never a
traceback or a source line, and summary.csv has one row per scheduled run.
Values come from small edge sets on tiny grids; table files are valid,
empty, header-only, ragged or hold a cell that is not a number.  Each edge
set leads with a value valid for most keys, drawn most of the time, so at least half of the examples of
test_accepted_config_runs must pass `check` and reach `run`.
"""

import configparser
import contextlib
import csv
import io
import os
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oswr.cli import main
from oswr.config import _SCHEMA, _float_list, load_config
from oswr.problem import PRESET_NAMES

# Edge sets, each led by a value valid for most keys (_edges draws it
# most of the time), so that most drawn configs are accepted ones.
FLOATS = ("0.2", "1", "2.5", "0", "-1", "1e-300", "1e300", "inf", "nan")
INTS = ("2", "3", "1", "0", "-1")
WORDS = {  # keys with their own set; n = 2 needs a 2D preset
    "n": ("1", "2", "0", "3"),
    "preset": PRESET_NAMES + ("heat3d",),
    "table": ("valid", "empty", "header-only", "ragged"),
    "orientation": ("outward", "paper", "sideways"),
    "guess": ("zero", "constant", "random-smooth", "noise"),
}
GRID = {"nx_axis": st.integers(3, 12), "nt": st.integers(1, 4), "nx_cross": st.integers(3, 5)}
# Sweep lists for README's example: each key's values, most of them valid.
SWEEP = st.fixed_dictionaries({}, optional={
    key: st.lists(st.sampled_from(values), min_size=1, max_size=3).map(", ".join)
    for key, values in (("p_values", ("1", "2.5", "0.5", "1e-300", "0", "nan")),
                        ("overlap_values", ("0.2", "0.05", "0.001", "1e-300", "0.5", "0")))
}).filter(bool)
TABLES = {
    "valid": {"1": "t,a11,b1,c\n0,1,0.5,1\n1,2,0.5,1\n",
              "2": "t,a11,a12,a22,b1,b2,c\n0,1,0.2,1,0,0.5,1\n1,2,0.2,1,0,0.5,1\n"},
    "empty": "",
    "header-only": "t,a11,b1,c\n",
    "ragged": "t,a11,b1,c\n0,1,0\n1,1,0,0\n",
    "not-a-number": "t,a11,b1,c\n0,abc,0.5,1\n1,2,0.5,1\n",
}

ORACLE_ERROR = re.compile(r"numerical error: \S")
ERROR = re.compile(r"run (\d+): numerical error: \S")
WARNING = re.compile(r"(run \d+: )?warning: \S")
VERDICT = re.compile(r"run (\d+): contraction verdict failed \(max ratio above \S+\)$")
PARSERS = {key: parse for keys in _SCHEMA.values() for key, parse in keys.items()}
# Every key a config may set, as (section, key, parser); [output] directory
# is the test's own.
KEYS = [(section, key, parse) for section, keys in _SCHEMA.items() if section != "output"
        for key, parse in keys.items()]


def _value(key, parse):
    """A key's values: an edge set, whose first element is valid for most
    keys."""
    if key in GRID:
        return GRID[key].map(str)
    if parse is _float_list:
        return st.lists(_edges(FLOATS), min_size=1, max_size=3).map(", ".join)
    return _edges(WORDS.get(key) or (INTS if parse is int else FLOATS))


def _edges(values):
    """The first value about 3/4 of the time, else any of them."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(values if i == 3 else values[:1]))


@st.composite
def configs(draw):
    """Sections of keys and values as INI text takes them: nx_axis and nt,
    and up to four other keys, none in the simplest draw; b_list comes with
    a_list, and n is the preset's dimension unless drawn itself."""
    ini = {section: {} for section, _, _ in KEYS}
    chosen = draw(st.lists(st.sampled_from(KEYS), max_size=4, unique=True))
    for section, key, parse in [("grid", "nx_axis", int), ("grid", "nt", int)] + chosen:
        ini[section][key] = draw(_value(key, parse))
    lists = ini["decomposition"]
    if "a_list" in lists:
        lists.setdefault("b_list", draw(_value("b_list", _float_list)))
    problem = ini["problem"]
    if problem.get("preset", "").endswith("2d"):
        problem.setdefault("n", "2")
    return ini


def _readme_ini(**grid):
    """README's INI example, with these [grid] values."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parser = configparser.ConfigParser()
    parser.read_string(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    ini = {s: dict(parser[s]) for s in parser.sections() if s != "output"}
    ini["grid"].update({k: str(v) for k, v in grid.items()})
    return ini


def _main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def _write(ini, tmp):
    """The config file and the (key, value) pairs written to it.  A lone
    surrogate in a value, such as "\\udce9", is written as that raw byte."""
    lines, written = [], []
    ini = {**ini, "output": {"directory": os.path.join(tmp, "out")}}
    for section, keys in ini.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if key == "table":
                table = TABLES[value]
                if value == "valid":
                    table = table["2" if ini["problem"].get("n") == "2" else "1"]
                value = os.path.join(tmp, "coeffs.csv")
                Path(value).write_text(table)
            lines.append(f"{key} = {value}")
            written.append((key, value))
    path = os.path.join(tmp, "exp.ini")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    return path, written


def _check_runs(code, err, summary, scheduled):
    """The exit code and stderr of `run` or `sweep` agree with summary.csv."""
    assert code in (0, 3, 4), err
    if not os.path.exists(summary):  # the oracle failed; no run was made
        assert (code, len(err)) == (3, 1) and ORACLE_ERROR.match(err[0]), err
        return
    with open(summary) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == scheduled
    failed = [r["run"] for r in rows if r["termination"] in ("error", "nonfinite_E")]
    verdicts = [r["run"] for r in rows if r["verdict"] == "fail"]
    errors = [m.group(1) for m in map(ERROR.match, err) if m]
    failures = [m.group(1) for m in map(VERDICT.match, err) if m]
    assert len(errors) + len(failures) + sum(map(bool, map(WARNING.match, err))) == len(err)
    assert (errors, failures) == (failed, verdicts), err
    assert code == (4 if verdicts else 3 if failed else 0), err


# Per example of test_accepted_config_runs: whether `check` accepted it.
REACHED = []


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ini=configs())
@example(ini={"problem": {"table": "empty"}, "grid": {"nx_axis": "11", "nt": "4"}})
@example(ini={"problem": {"table": "ragged"}, "grid": {"nx_axis": "11", "nt": "4"}})
@example(ini={"problem": {"table": "header-only"}, "grid": {"nx_axis": "11", "nt": "4"}})
@example(ini={"problem": {"table": "not-a-number"}, "grid": {"nx_axis": "11", "nt": "4"}})
@example(ini={"problem": {"beta": "1e-200"}, "grid": {"nx_axis": "11", "nt": "2"},
              "decomposition": {"overlap": "2e-201"}})
@example(ini={"problem": {"preset": "heat2d", "n": "2", "cross_lo": "1e300",
                          "cross_hi": "1.0000001e300"},
              "grid": {"nx_axis": "5", "nx_cross": "3", "nt": "2"}})
@example(ini={"problem": {"preset": "affine1d", "T": "1e308"},
              "grid": {"nx_axis": "11", "nt": "4"}})
@example(ini=_readme_ini())
@example(ini=_readme_ini(nx_axis=3, nt=2))
@example(ini={**_readme_ini(nx_axis=11),
              "decomposition": {"count": "50", "overlap": "0.001"}})
@example(ini={**_readme_ini(nx_axis=11, nt=4),
              "sweep": {"p_values": "1, 2", "overlap_values": "0.2, 0.001"}})
@example(ini={"grid": {"nx_axis": "1%x", "nt": "4"}})
@example(ini={"grid": {"nx_axis": "11", "nt": "4"}, "iteration": {"guess": "%(nt)s"}})
@example(ini={"grid": {"nx_axis": "11", "nt": "4", "nx_cross": "%(nt)s"}})
@example(ini={"DEFAULT": {"directory": "elsewhere"}})
@example(ini={"problem": {"preset": "heat1d\udce9"}, "grid": {"nx_axis": "11", "nt": "4"}})
def _accepted_config_runs(ini):
    REACHED.append(_check_accepted(ini))


def test_accepted_config_runs():
    """Most drawn configs are accepted ones, so their runs are checked."""
    REACHED.clear()
    _accepted_config_runs()
    assert 2 * sum(REACHED) >= len(REACHED), REACHED


@settings(max_examples=20, deadline=None, derandomize=True)
@given(grid=st.fixed_dictionaries({key: GRID[key] for key in ("nx_axis", "nt")}), sweep=SWEEP)
@example(grid={"nx_axis": 11, "nt": 4}, sweep={"overlap_values": "0.2, 1e-300"})
def test_accepted_sweep_runs(grid, sweep):
    """README's INI example on a tiny grid with drawn sweep lists."""
    _check_accepted({**_readme_ini(**grid), "sweep": sweep})


def _check_accepted(ini):
    """Whether `check` accepted the config; if so, its runs are checked."""
    with tempfile.TemporaryDirectory() as tmp:
        path, written = _write(ini, tmp)
        code, err = _main(["check", path])
        assert (code, len(err)) in ((0, 0), (2, 1)), err
        if code:
            assert err[0].startswith("config error: ")
            return False
        cfg = load_config(path)
        fields = dict(vars(cfg), cross_lo=cfg.cross[0], cross_hi=cfg.cross[1])
        for key, value in written:
            assert repr(fields[key]) == repr(PARSERS[key](value)), (key, value)
        summary = os.path.join(tmp, "out", "summary.csv")
        code, err = _main(["run", path])
        _check_runs(code, err, summary, 1)
        Path(summary).unlink(missing_ok=True)
        code, err = _main(["sweep", path])
        if not (cfg.p_values or cfg.overlap_values):
            assert (code, err) == (2, ["config error: sweep mode needs p_values or "
                                       "overlap_values"])
            return True
        _check_runs(code, err, summary, len(cfg.scheduled_runs(sweep=True)))
        return True
