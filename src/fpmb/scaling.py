"""Scale-transformation algebra for drift-diffusion models on moving domains.

A one-parameter rescaling x -> eps^a x, t -> eps^b t leaves the forward
equation form-invariant when the coefficient indices satisfy b = a - d and
b = 2a - e, and the density index is c = -a.  Only the ratio alpha = a / b
is physical; the canonical gauge b = 1 is fixed here so every downstream
API takes a single exponent.  The reduced coordinate is z = x / t^alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

__all__ = [
    "ScalingExponents",
    "make_exponents",
    "similarity_variable",
    "drift_from_f",
]


@dataclass(frozen=True)
class ScalingExponents:
    """Consistent set of scaling indices (a, b, c, d, e) with alpha = a / b."""

    a: float
    b: float
    c: float
    d: float
    e: float
    alpha: float

    def __post_init__(self) -> None:
        if self.b == 0.0 or self.a == 0.0:
            raise ValueError("scaling indices require a != 0 and b != 0")
        for value in (self.a, self.b, self.c, self.d, self.e, self.alpha):
            if not math.isfinite(value):
                raise ValueError("scaling indices must be finite")
        # validated as d = a - b, e = 2a - b: the same relations oriented the
        # way they are constructed, so equality is exact in floating point
        if self.d != self.a - self.b or self.e != 2.0 * self.a - self.b:
            raise ValueError("indices violate form invariance: need b = a - d = 2a - e")
        if self.c != -self.a:
            raise ValueError("density normalization at all times requires c = -a")
        if self.alpha != self.a / self.b:
            raise ValueError("alpha must equal a / b exactly")


def make_exponents(alpha: float) -> ScalingExponents:
    """Exponent set in the canonical gauge b = 1 for a given alpha.

    Rejects alpha = 0 (and non-finite values): the reduced coordinate
    degenerates there.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha == 0.0:
        raise ValueError(f"alpha must be finite and nonzero, got {alpha!r}")
    a = alpha
    b = 1.0
    return ScalingExponents(a=a, b=b, c=-a, d=a - b, e=2.0 * a - b, alpha=alpha)


def similarity_variable(x, t, alpha: float):
    """Reduced coordinate z = x / t^alpha; requires finite t > 0."""
    t = np.asarray(t, dtype=float)
    if not np.all((t > 0.0) & (t < math.inf)):
        raise ValueError(f"similarity_variable needs a finite t > 0, got t={t.tolist()!r}")
    z = np.asarray(x, dtype=float) / t**alpha
    return float(z) if z.ndim == 0 else z


def drift_from_f(f_rho2, rho2, alpha: float) -> np.ndarray:
    """Drift profile implied by a shape function and diffusion profile.

    Inverts the definition of f:  rho1 = f rho2 + rho2' + alpha z, on
    polynomial coefficients in ascending powers of z: ``f_rho2`` is the
    product f rho2 and ``rho2`` the diffusion profile.  This is the
    constructor used by every solvable family, so the drift is generated
    from f rather than transcribed.
    """
    return P.polyadd(P.polyadd(f_rho2, P.polyder(rho2)), (0.0, alpha))
