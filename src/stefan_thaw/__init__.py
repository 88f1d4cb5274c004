"""Similarity solutions of a two-phase thawing problem with density jump.

A saturated porous half-space thaws from the fixed face x = 0 under either a
convective (Robin, time-weighted h0/sqrt(t)) or a fixed-temperature boundary
condition. The density jump across the phase change couples an advection
term and a pressure-linked interface temperature into the classical
two-phase Stefan system. The package computes the similarity solution in
closed form, enumerates roots of the front equation, classifies the
existence/uniqueness regime from the signs of the dimensionless groups
(M, N) and the size of p, maps between the two boundary-condition problems,
and verifies every produced solution against the governing equations by
finite differences.
"""

from .errors import (
    ConfigError,
    DegenerateDensityJump,
    DomainError,
    HypothesesNotMet,
    InvalidParameter,
    MonotonicityViolation,
    NonFiniteInput,
    NoRootFound,
    OutOfPhaseRegion,
    OverflowUnrepresentable,
    StefanThawError,
    ToleranceNotReached,
    UniquenessViolation,
    VerificationFailed,
)
from .model import DimensionlessParams, PhysicalParams, load_config, reduce_params
from .profiles import (
    Solution,
    build_convective_solution,
    build_temperature_solution,
    eval_front,
    frozen_field,
    unfrozen_field,
)
from .solver import (
    RegimeReport,
    RootSet,
    SolveOptions,
    classify,
    critical_h0,
    monotonicity_sweep,
    solve_omega,
    solve_xi,
)

__version__ = "0.1.0"
