"""Segment-wise variational iteration ODE solver on Chebyshev grids.

The package pairs a spectral picard-type iteration (``core``) with an
adaptive Runge-Kutta reference integrator (``rk45``), a set of benchmark
problems (``problems``), a spherical-harmonic gravity model (``gravity``)
and a shooting wrapper for boundary-value problems (``shooting``).  The
``lvim`` console script drives all of it.
"""

from .cheb import OperatorSet, build_operators, cgl_nodes
from .core import (
    OdeSystem,
    SegmentResult,
    SolverConfig,
    Trajectory,
    iterate_segment,
    march,
)
from .errors import ConvergenceError, DomainViolationError
from .gravity import (
    GravityModel,
    bundled_gravity_path,
    gravity_accel,
    gravity_potential,
    load_gravity_model,
)
from .problems import ProblemSpec
from .rk45 import RkConfig, RkTrajectory, rk45_integrate, sample_at
from .shooting import ShotResult, shoot_scalar, solve_buckled_bar

__version__ = "0.1.0"

__all__ = [
    "OperatorSet",
    "build_operators",
    "cgl_nodes",
    "OdeSystem",
    "SegmentResult",
    "SolverConfig",
    "Trajectory",
    "iterate_segment",
    "march",
    "ConvergenceError",
    "DomainViolationError",
    "GravityModel",
    "bundled_gravity_path",
    "gravity_accel",
    "gravity_potential",
    "load_gravity_model",
    "ProblemSpec",
    "RkConfig",
    "RkTrajectory",
    "rk45_integrate",
    "sample_at",
    "ShotResult",
    "shoot_scalar",
    "solve_buckled_bar",
    "__version__",
]
