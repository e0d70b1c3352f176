"""Exactly solvable drift-diffusion models on moving domains.

Closed-form densities W(x, t) = t^{-alpha} y(x / t^alpha) for three
families of time-dependent drift/diffusion coefficients whose domain
endpoints scale as z_k t^alpha, together with three independent
verification channels: analytic identity residuals, a fixed-domain PDE
solver, and Monte Carlo path sampling.
"""

from .scaling import check_alpha, drift_from_f
from .solutions import (
    PRESETS,
    ClassI,
    ClassII,
    ClassIII,
    Preset,
    SimilaritySolution,
    SolutionClass,
    boundary_positions,
    build_solution,
    coefficients,
    current,
    current_from_definition,
    density,
    effective_upper,
    first_integral_residual,
    interior_points,
    mass,
    mirror,
    moment,
    preset_solution,
    reduced_density,
    reduced_ode_residual,
)
from .specfun import (
    ConvergenceError,
    QuadratureResult,
    integrate_adaptive,
    kummer_1f1,
    ln_gamma,
    tricomi_u,
    whittaker_w,
)

__all__ = [
    "check_alpha",
    "drift_from_f",
    "ClassI",
    "ClassII",
    "ClassIII",
    "SolutionClass",
    "SimilaritySolution",
    "Preset",
    "PRESETS",
    "build_solution",
    "preset_solution",
    "mirror",
    "density",
    "reduced_density",
    "current",
    "current_from_definition",
    "coefficients",
    "boundary_positions",
    "moment",
    "mass",
    "first_integral_residual",
    "reduced_ode_residual",
    "interior_points",
    "effective_upper",
    "ConvergenceError",
    "QuadratureResult",
    "ln_gamma",
    "kummer_1f1",
    "tricomi_u",
    "whittaker_w",
    "integrate_adaptive",
]

__version__ = "0.1.0"
