"""Overlapping optimized Schwarz waveform relaxation for parabolic problems."""

from .config import ExperimentConfig, load_config, validate_config
from .decomposition import DecompositionSpec, SubdomainEntry, SubdomainLayout, snap, validate
from .diagnostics import (ContractionReport, IterationHistory, WeightSpec,
                          contraction_report, default_gamma)
from .engine import InitialGuess, SWRConfig, initial_traces, run
from .grid import AxisRange, FaceRule, SpaceTimeGrid, StackOperator, build_grid, march
from .oracle import GlobalSolution, solve_global
from .problem import (CoefficientSet, DomainSpec, EllipticityReport,
                      ManufacturedSolution, ParabolicProblem, check_assumptions,
                      manufactured_forcing, problem_from_table, problem_preset,
                      standard_exact)
from .subdomain import RobinParameter, SubdomainSolution

__version__ = "0.1.0"

__all__ = [
    "AxisRange", "CoefficientSet", "ContractionReport", "DecompositionSpec",
    "DomainSpec", "EllipticityReport", "ExperimentConfig", "load_config", "validate_config",
    "FaceRule", "GlobalSolution", "InitialGuess", "IterationHistory",
    "ManufacturedSolution", "ParabolicProblem", "RobinParameter", "SWRConfig",
    "SpaceTimeGrid", "StackOperator", "SubdomainEntry", "SubdomainLayout", "SubdomainSolution",
    "WeightSpec", "build_grid", "check_assumptions", "contraction_report", "default_gamma",
    "initial_traces", "manufactured_forcing", "march", "problem_from_table",
    "problem_preset", "run", "snap", "solve_global", "standard_exact", "validate",
]
