"""INI experiment configuration: parsing, defaulting and validation.

A config file has sections [problem], [grid], [decomposition], [iteration],
[diagnostics], [sweep] and [output].  Unknown sections or keys are rejected
so typos fail loudly; missing keys fall back to documented defaults
(gamma = 5/(beta-alpha), zero initial guess, p = 1, ...).
"""

from __future__ import annotations

import configparser
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

from .decomposition import DecompositionSpec, validate
from .diagnostics import default_gamma
from .engine import InitialGuess, SWRConfig
from .errors import OswrError, ParseError, ValidationError
from .grid import build_grid
from .problem import (PRESET_NAMES, DomainSpec, ParabolicProblem,
                      check_assumptions, problem_from_table, problem_preset)
from .subdomain import RobinParameter


def _float_list(raw: str) -> List[float]:
    items = [s.strip() for s in raw.replace(";", ",").split(",") if s.strip()]
    if not items:
        raise ValueError("must be a nonempty list of numbers")
    try:
        return [float(s) for s in items]
    except ValueError:
        raise ValueError("must be a comma-separated list of numbers")


# The largest argument of exp() that stays finite, log(DBL_MAX).
_EXP_LIMIT = math.log(sys.float_info.max)

# The INI format: section -> {key: parser}.  Each key sets the
# ExperimentConfig field of the same name, except cross_lo/cross_hi, which
# fill `cross`.
_SCHEMA = {
    "problem": {"preset": str, "table": str, "n": int, "alpha": float,
                "beta": float, "T": float, "cross_lo": float, "cross_hi": float},
    "grid": {"nx_axis": int, "nt": int, "nx_cross": int},
    "decomposition": {"count": int, "overlap": float, "a_list": _float_list,
                      "b_list": _float_list},
    "iteration": {"p": float, "orientation": str, "max_iters": int,
                  "stop_tol": float, "guess": str, "guess_value": float,
                  "seed": int},
    "diagnostics": {"gamma": float, "theta": float, "gamma_max": float},
    "sweep": {"p_values": _float_list, "overlap_values": _float_list},
    "output": {"directory": str},
}


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description (defaults already applied)."""

    preset: Optional[str] = "heat1d"
    table: Optional[str] = None
    n: int = 1
    alpha: float = 0.0
    beta: float = 1.0
    T: float = 1.0
    cross: Tuple[float, float] = (0.0, 1.0)
    nx_axis: int = 101
    nt: int = 50
    nx_cross: Optional[int] = None
    count: int = 2
    overlap: float = 0.2
    a_list: Optional[List[float]] = None
    b_list: Optional[List[float]] = None
    p: float = 1.0
    orientation: str = "outward"
    max_iters: int = 60
    stop_tol: float = 1e-20
    guess: str = "zero"
    guess_value: float = 0.0
    seed: int = 0
    gamma: Optional[float] = None  # None -> 5/(beta-alpha)
    theta: float = 0.0
    gamma_max: float = 0.99
    p_values: Optional[List[float]] = None
    overlap_values: Optional[List[float]] = None
    directory: str = "out"

    def domain(self) -> DomainSpec:
        return DomainSpec(n=self.n, alpha=self.alpha, beta=self.beta, T=self.T,
                          cross=self.cross if self.n == 2 else None)

    def build_problem(self) -> ParabolicProblem:
        if self.table is not None:
            return problem_from_table(self.table, self.domain())
        return problem_preset(self.preset, alpha=self.alpha, beta=self.beta,
                              T=self.T,
                              cross=self.cross if self.n == 2 else None)

    def decomposition_spec(self, domain, overlap: Optional[float] = None
                           ) -> DecompositionSpec:
        if self.a_list is not None:
            return DecompositionSpec(count=len(self.a_list),
                                     a=tuple(self.a_list),
                                     b=tuple(self.b_list))
        return DecompositionSpec.uniform(
            domain, self.count, overlap if overlap is not None else self.overlap)

    def swr_config(self, p: Optional[float] = None) -> SWRConfig:
        guess = InitialGuess(kind=self.guess, value=self.guess_value,
                             seed=self.seed)
        robin = RobinParameter(p if p is not None else self.p,
                               orientation=self.orientation)
        return SWRConfig(p=robin, max_iters=self.max_iters,
                         stop_tol=self.stop_tol, guess=guess,
                         gamma=self.gamma, theta=self.theta)

    def scheduled_runs(self, sweep: bool) -> List[Tuple[float, float]]:
        """(p, overlap) pairs: one for `run`, a Cartesian grid for `sweep`."""
        if not sweep:
            return [(self.p, self.overlap)]
        ps = self.p_values if self.p_values else [self.p]
        ovs = self.overlap_values if self.overlap_values else [self.overlap]
        return [(p, ov) for p in ps for ov in ovs]

    def as_items(self) -> List[Tuple[str, str]]:
        """Every field as (name, repr), with the resolved gamma last."""
        pairs = [(f.name, repr(getattr(self, f.name))) for f in fields(self)
                 if f.name != "gamma"]
        gamma = self.gamma if self.gamma is not None else default_gamma(self.domain())
        pairs.append(("gamma", repr(gamma)))
        return pairs


def load_config(path: str) -> ExperimentConfig:
    """Parse an INI config, apply defaults, and validate every field."""
    if not os.path.exists(path):
        raise ValidationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except configparser.MissingSectionHeaderError as exc:  # a ParsingError too
        raise ParseError(f"{path}: missing section header at line {exc.lineno}") from exc
    except configparser.ParsingError as exc:
        lineno = exc.errors[0][0] if exc.errors else "?"
        raise ParseError(f"{path}: malformed line {lineno}") from exc
    except configparser.Error as exc:
        raise ParseError(f"{path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValidationError(f"unknown section [{section}]")
        known = {key.lower() for key in _SCHEMA[section]}  # configparser lowercases keys
        for key in parser.options(section):
            if key not in known:
                raise ValidationError(f"unknown key '{key}' in section [{section}]")

    values = {}
    for section, keys in _SCHEMA.items():
        for key, parse in keys.items():
            if not parser.has_option(section, key):
                continue
            raw = parser.get(section, key).strip()
            try:
                values[key] = parse(raw)
            except ValueError as exc:
                if parse is _float_list:
                    raise ValidationError(f"{key} {exc}")
                raise ValidationError(f"[{section}] {key} has invalid value {raw!r}")
    lo, hi = ExperimentConfig.cross
    cfg = ExperimentConfig(cross=(values.pop("cross_lo", lo), values.pop("cross_hi", hi)),
                           **values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Build what the scheduled runs build and report the first failure.

    The domain, the table, the grid, the coefficient assumptions
    (ellipticity, symmetry), every decomposition of `run` and `sweep` and
    every SWRConfig are constructed here, so their own checks apply; only
    checks that no constructor makes are written out.  Snapping to the grid
    is left to the run (a collapsed overlap is a numerical failure).
    """
    if cfg.table is None:
        if cfg.preset not in PRESET_NAMES:
            raise ValidationError(
                f"preset must be one of {sorted(PRESET_NAMES)}, got {cfg.preset!r}")
        preset_n = 2 if cfg.preset.endswith("2d") else 1
        if cfg.n != preset_n:
            raise ValidationError(
                f"preset {cfg.preset!r} is {preset_n}-dimensional; set n = {preset_n}")
    if (cfg.a_list is None) != (cfg.b_list is None):
        raise ValidationError("a_list and b_list must be given together")
    if cfg.a_list is not None and cfg.overlap_values is not None:
        raise ValidationError("overlap_values cannot be combined with a_list/b_list")
    if not cfg.gamma_max > 0:
        raise ValidationError("gamma_max must be positive")
    if not cfg.directory:
        raise ValidationError("[output] directory must not be empty")
    existing = os.path.normpath(cfg.directory)
    while existing and not os.path.exists(existing):  # the nearest existing ancestor
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ValidationError(
            f"[output] directory {cfg.directory!r}: {existing} is not a directory")
    try:
        problem = cfg.build_problem()
        grid = build_grid(problem.domain, cfg.nx_axis, cfg.nt, cfg.nx_cross)
        check_assumptions(problem.coeffs, grid.times())
        runs = cfg.scheduled_runs(sweep=False) + cfg.scheduled_runs(sweep=True)
        for p, overlap in dict.fromkeys(runs):
            msg = validate(cfg.decomposition_spec(problem.domain, overlap), problem.domain)
            if msg is not None:
                raise ValidationError(f"invalid decomposition: {msg}")
            cfg.swr_config(p)
            reach = p * problem.domain.axis_length
            if reach >= _EXP_LIMIT:
                raise ValidationError(f"p * (beta - alpha) = {reach:g} must be below "
                                      f"{_EXP_LIMIT:.2f}, where exp(p (x_n - alpha)) overflows")
    except (ValueError, OSError, OswrError) as exc:
        raise ValidationError(str(exc)) from exc
