"""Scale-transformation algebra for drift-diffusion models on moving domains.

A one-parameter rescaling x -> eps^a x, t -> eps^b t leaves the forward
equation form-invariant when the coefficient indices satisfy b = a - d and
b = 2a - e, and the density index is c = -a.  Only the ratio alpha = a / b
is physical, so every API takes that single exponent.  The reduced
coordinate is z = x / t^alpha; in z and s = ln t the dynamics do not
depend on alpha, which enters only through that map.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

__all__ = [
    "check_alpha",
    "similarity_variable",
    "drift_from_f",
]


def check_alpha(alpha: float) -> float:
    """alpha as a float; rejects alpha = 0 and non-finite values, where the
    reduced coordinate degenerates."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha == 0.0:
        raise ValueError(f"alpha must be finite and nonzero, got {alpha!r}")
    return alpha


def similarity_variable(x, t, alpha: float):
    """Reduced coordinate z = x / t^alpha; requires finite t > 0."""
    t = np.asarray(t, dtype=float)
    if not np.all((t > 0.0) & (t < math.inf)):
        raise ValueError(f"similarity_variable needs a finite t > 0, got t={t.tolist()!r}")
    z = np.asarray(x, dtype=float) / t**alpha
    return float(z) if z.ndim == 0 else z


def drift_from_f(f_rho2, rho2) -> np.ndarray:
    """Reduced drift q = f rho2 + rho2' implied by a shape function.

    Inverts the definition of f on polynomial coefficients in ascending
    powers of z: ``f_rho2`` is the product f rho2 and ``rho2`` the
    diffusion profile.  q contains no alpha; the physical drift profile is
    rho1 = q + alpha z.  This is the constructor used by every solvable
    family, so the drift is generated from f rather than transcribed.
    """
    return P.polyadd(f_rho2, P.polyder(rho2))
