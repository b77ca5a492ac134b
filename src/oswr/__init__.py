"""Overlapping optimized Schwarz waveform relaxation for parabolic problems."""

from .config import ExperimentConfig, load_config, validate_config
from .decomposition import DecompositionSpec, SubdomainEntry, SubdomainLayout, snap, validate
from .diagnostics import (ContractionReport, ErrorFields, IterationHistory,
                          WeightSpec, compute_E, compute_error_fields,
                          contraction_report, default_gamma, phi_boundary_check)
from .engine import InitialGuess, SWRConfig, exchange, initial_traces, run, sweep_once
from .grid import (AxisRange, BandedSystem, FaceRule, SpaceTimeGrid, StackOperator,
                   assemble_step, build_grid, march)
from .oracle import GlobalSolution, solve_global
from .problem import (CoefficientSet, DomainSpec, EllipticityReport,
                      ManufacturedSolution, ParabolicProblem, check_assumptions,
                      manufactured_forcing, problem_from_table, problem_preset,
                      standard_exact)
from .subdomain import RobinParameter, SubdomainSolution, extract_robin_trace, solve_subdomain

__version__ = "0.1.0"

__all__ = [
    "AxisRange", "BandedSystem", "CoefficientSet", "ContractionReport",
    "DecompositionSpec", "DomainSpec", "EllipticityReport", "ErrorFields",
    "ExperimentConfig", "load_config", "validate_config",
    "FaceRule", "GlobalSolution", "InitialGuess", "IterationHistory",
    "ManufacturedSolution", "ParabolicProblem", "RobinParameter", "SWRConfig",
    "SpaceTimeGrid", "StackOperator", "SubdomainEntry", "SubdomainLayout", "SubdomainSolution",
    "WeightSpec", "assemble_step", "build_grid", "check_assumptions",
    "compute_E", "compute_error_fields", "contraction_report", "default_gamma",
    "exchange", "extract_robin_trace", "initial_traces", "manufactured_forcing",
    "march", "phi_boundary_check", "problem_from_table",
    "problem_preset", "run", "snap", "solve_global", "solve_subdomain",
    "standard_exact", "sweep_once", "validate",
]
