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
import numbers

__all__ = [
    "check_alpha",
    "drift_from_f",
]


def _is_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool, that a float can hold
    (an int past the largest float is not): every number's first gate."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def check_alpha(alpha: float) -> float:
    """alpha as a float if a finite nonzero real (at 0, z = x / t^alpha degenerates)."""
    if _is_real(alpha) and math.isfinite(alpha) and alpha != 0.0:
        return float(alpha)
    raise ValueError(f"alpha must be finite and nonzero, got {alpha!r}")


def drift_from_f(f_rho2, rho2) -> tuple[float, float, float]:
    """Reduced drift q = f rho2 + rho2' implied by a shape function.

    Inverts the definition of f on quadratics given as coefficient triples
    in ascending powers of z: ``f_rho2`` is the product f rho2 and ``rho2``
    the diffusion profile.  q contains no alpha; the physical drift profile
    is rho1 = q + alpha z.  This is the constructor used by every solvable
    family, so the drift is generated from f rather than transcribed.
    """
    return f_rho2[0] + rho2[1], f_rho2[1] + 2.0 * rho2[2], f_rho2[2]
