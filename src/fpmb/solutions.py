"""The three exactly solvable families of moving-domain drift-diffusion models.

All three are one Pearson family (the Pearson diffusions of Forman and
Sorensen, Scand. J. Stat. 35, 2008): the reduced density is

    y(z) = A l1(z)^a1 l2(z)^a2 e^(b z),

with linear factors l1, l2 that are positive on the open domain (each
finite endpoint is a root of one of them), and the diffusion profile is
the quadratic rho2 = l1 l2.  A solution is stored as plain numbers: the
factors, the rate b, the domain, the coefficients of both profiles and
alpha.  The shape function f = y'/y gives the polynomial
f rho2 = a1 l1' l2 + a2 l2' l1 + b l1 l2, and the reduced drift
q = f rho2 + rho2' is *generated* from it through ``scaling.drift_from_f``,
never written out by hand.  q and rho2 are the drift and diffusion of the
reduced process dZ = q(Z) ds + sqrt(2 rho2(Z)) dB_s in s = ln t; neither
contains alpha.  Both profiles are evaluated only from their coefficients,
so the residual checks below, which hold them against f pointwise, detect
a mistranscribed or corrupted coefficient of either.

alpha enters only through the map x = z t^alpha: the physical density is
W(x, t) = t^{-alpha} y(x / t^alpha) with y normalized to unit mass, domain
endpoints move as z_k t^alpha, and the physical drift profile is
rho1 = q + alpha z, formed only where D1 is.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.polynomial import polynomial as P

from .scaling import check_alpha, drift_from_f
from .specfun import (
    QuadratureResult,
    _combine,
    integrate_adaptive,
    kummer_1f1,
    ln_beta,
    ln_gamma,
    whittaker_w,
)

__all__ = [
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
    "log_y",
    "f",
    "f_prime",
    "rho2",
    "density",
    "reduced_density",
    "current",
    "current_from_definition",
    "coefficients",
    "boundary_positions",
    "truncated_positions",
    "moment",
    "mass",
    "first_integral_residual",
    "reduced_ode_residual",
    "interior_points",
    "effective_upper",
    "TAIL_MASS",
]


def _check_params(params) -> None:
    """Checks every family shares: each parameter is finite (the error names
    the first that is not), and both endpoint exponents are positive."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
    if not (params.a1 > 0.0 and params.a2 > 0.0):
        raise ValueError(
            f"endpoint exponents must be positive, got a1={params.a1!r}, a2={params.a2!r}"
        )


@dataclass(frozen=True)
class ClassI:
    """Two moving boundaries: reduced domain [z1, z2], both endpoints scale.

    Subclasses by sign pattern: (i) endpoints of one sign, (ii) one endpoint
    at the origin, (iii) straddling the origin.  The z1 = 0 case coincides
    with the fixed-origin family at beta = 0.
    """

    z1: float
    z2: float
    a1: float
    a2: float

    def __post_init__(self) -> None:
        _check_params(self)
        if not self.z1 < self.z2:
            raise ValueError(f"need z1 < z2, got z1={self.z1!r}, z2={self.z2!r}")

    @property
    def subclass(self) -> str:
        if self.z1 == 0.0 or self.z2 == 0.0:
            return "ii"
        if self.z1 < 0.0 < self.z2:
            return "iii"
        return "i"

    def linear_factors(self):
        """Pearson form: (factors, rate, z_lo, z_hi) of (z - z1)^a1 (z2 - z)^a2."""
        return ((self.z1, 1.0, self.a1), (self.z2, -1.0, self.a2)), 0.0, self.z1, self.z2


@dataclass(frozen=True)
class ClassII:
    """One moving boundary at z2 t^alpha with the origin a fixed endpoint."""

    z2: float
    a1: float
    a2: float
    beta: float

    def __post_init__(self) -> None:
        _check_params(self)
        if not self.z2 > 0.0:
            raise ValueError(f"need z2 > 0, got {self.z2!r}")

    def linear_factors(self):
        """Pearson form: (factors, rate, z_lo, z_hi) of z^a1 (z2 - z)^a2 e^(beta z)."""
        return ((0.0, 1.0, self.a1), (self.z2, -1.0, self.a2)), self.beta, 0.0, self.z2


@dataclass(frozen=True)
class ClassIII:
    """Half line [z1 t^alpha, inf) with a moving left edge.

    Restricted to z1 >= 0: for z1 < 0 the factor z^{a2} changes sign inside
    the domain and the diffusion profile vanishes at the interior point
    z = 0, so the density is no longer positive and normalizable.
    """

    z1: float
    a1: float
    a2: float
    beta: float

    def __post_init__(self) -> None:
        _check_params(self)
        if self.z1 < 0.0:
            raise ValueError(f"need z1 >= 0, got {self.z1!r}")
        if not self.beta > 0.0:
            raise ValueError(f"need beta > 0 for a normalizable tail, got {self.beta!r}")

    def linear_factors(self):
        """Pearson form: (factors, rate, z_lo, z_hi) of (z - z1)^a1 z^a2 e^(-beta z)."""
        return ((self.z1, 1.0, self.a1), (0.0, 1.0, self.a2)), -self.beta, self.z1, math.inf


SolutionClass = Union[ClassI, ClassII, ClassIII]


def mirror(params: SolutionClass) -> SolutionClass:
    """Parameters of the model reflected through the origin (x -> -x).

    Only the two-boundary family is closed under reflection in this
    parameterization.  Reflections of the half-line families live on the
    negative axis; evaluate the unreflected model at -x instead.
    """
    if isinstance(params, ClassI):
        return ClassI(z1=-params.z2, z2=-params.z1, a1=params.a2, a2=params.a1)
    raise ValueError(
        "only two-boundary models reflect onto the same parameter family; "
        "for half-line models evaluate the density at -x"
    )


@dataclass(frozen=True)
class SimilaritySolution:
    """A fully constructed solvable model: plain numbers, immutable and hashable.

    The reduced density is y = norm_A l1^a1 l2^a2 e^(rate z) on
    (z_lo, z_hi).  Each entry of ``factors`` is a linear factor
    (root r, orientation s, exponent a), with l(z) = z - r for s = +1 and
    r - z for s = -1; the first factor vanishes at z_lo.  ``drift_coefs``
    and ``diffusion_coefs`` are the coefficients of the quadratics
    q = f rho2 + rho2' and rho2 = l1 l2 in ascending powers of z, generated
    from the factors at build time; they are the drift and diffusion of the
    reduced process, and the only representation of the two profiles.
    Neither depends on ``alpha``, the scaling exponent of x = z t^alpha.
    ``norm_A`` is the normalization in use (``norm_A_source`` says which
    route produced it); both routes are retained so their agreement can be
    asserted independently.
    """

    alpha: float
    class_params: SolutionClass
    factors: tuple[tuple[float, float, float], tuple[float, float, float]]
    rate: float
    z_lo: float
    z_hi: float
    drift_coefs: tuple[float, float, float]
    diffusion_coefs: tuple[float, float, float]
    norm_A: float
    norm_A_source: str
    norm_A_closed: float
    norm_A_quadrature: float


_NORM_RTOL = 1e-12
_MASS_RTOL = 1e-11
# analytic mass beyond the cut of a half line (see ``effective_upper``)
TAIL_MASS = 1e-9
_BUILD_AGREEMENT_GUARD = 1e-6


def _linear(factor: tuple[float, float, float], z):
    root, orientation, _ = factor
    return z - root if orientation > 0.0 else root - z


def _log_y(sol: SimilaritySolution, z: np.ndarray):
    """``log_y`` at points of the open domain, where no factor vanishes."""
    f1, f2 = sol.factors
    out = f1[2] * np.log(_linear(f1, z)) + f2[2] * np.log(_linear(f2, z))
    return out + sol.rate * z if sol.rate else out


def log_y(sol: SimilaritySolution, z):
    """Unnormalized log density a1 log l1 + a2 log l2 + rate z (-inf at a root)."""
    with np.errstate(divide="ignore"):
        return _log_y(sol, np.asarray(z, dtype=float))


def f(sol: SimilaritySolution, z):
    """Shape function f = y'/y = a1 l1'/l1 + a2 l2'/l2 + rate."""
    z = np.asarray(z, dtype=float)
    f1, f2 = sol.factors
    return f1[1] * f1[2] / _linear(f1, z) + f2[1] * f2[2] / _linear(f2, z) + sol.rate


def f_prime(sol: SimilaritySolution, z):
    """Derivative of the shape function, -a1 / l1^2 - a2 / l2^2."""
    z = np.asarray(z, dtype=float)
    f1, f2 = sol.factors
    return -f1[2] / _linear(f1, z) ** 2 - f2[2] / _linear(f2, z) ** 2


def _quadratic(coefs: tuple[float, float, float], z):
    c0, c1, c2 = coefs
    return c0 + z * (c1 + z * c2)


def rho2(sol: SimilaritySolution, z):
    """Diffusion profile rho2(z), in Horner form from ``sol.diffusion_coefs``.

    The one evaluator of the profile.  Where a root is rounded into the
    constant term (Class I, c0 = -z1 z2) it can dip an ulp-sized amount
    below zero next to a finite endpoint; ``coefficients`` clamps it there.
    """
    return _quadratic(sol.diffusion_coefs, np.asarray(z, dtype=float))


def _quadratic_prime(coefs: tuple[float, float, float], z):
    _, c1, c2 = coefs
    return c1 + 2.0 * c2 * z


def _tail_start(sol: SimilaritySolution, weight_power: int = 0) -> float:
    """A point on the half line past the peak of z^k y, k = weight_power."""
    (_, _, a1), (_, _, a2) = sol.factors
    return sol.z_lo + max(1.0, (a1 + a2 + 2.0 + weight_power) / -sol.rate)


def _domain_quadrature(sol: SimilaritySolution, g, scale: float, k: int,
                       rtol: float) -> QuadratureResult:
    """Quadrature of g over the reduced domain mapped by z -> scale z, scale > 0.

    Splits at an interior point (the tail start of z^k y on a half line) and
    integrates each half with the endpoint behavior made explicit, reflecting
    the upper half so both singular endpoints sit at a lower limit.  Near a
    finite endpoint e the integrand goes like (z - e)^p, p the exponents of
    the factors with root e, plus k when e = 0 (g carries the weight z^k).
    """

    def endpoint_power(e: float) -> float:
        p = sum(a for root, _, a in sol.factors if root == e)
        return p + k if e == 0.0 else p

    lo = sol.z_lo * scale
    if math.isinf(sol.z_hi):
        split = _tail_start(sol, k) * scale
        left = integrate_adaptive(g, lo, split, 0.0, rtol=rtol,
                                  endpoint_power=endpoint_power(sol.z_lo))
        right = integrate_adaptive(g, split, math.inf, 0.0, rtol=rtol)
        return _combine(left, right)

    hi = sol.z_hi * scale
    mid = 0.5 * (sol.z_lo + sol.z_hi) * scale
    left = integrate_adaptive(g, lo, mid, 0.0, rtol=rtol,
                              endpoint_power=endpoint_power(sol.z_lo))

    def reflected(u):
        return g(hi - np.asarray(u, dtype=float))

    right = integrate_adaptive(reflected, 0.0, hi - mid, 0.0, rtol=rtol,
                               endpoint_power=endpoint_power(sol.z_hi))
    return _combine(left, right)


def _reduced_mass(sol: SimilaritySolution, weight_power: int = 0) -> QuadratureResult:
    """Quadrature of z^k * exp(log_y) over the reduced domain, k = weight_power."""
    k = weight_power

    def integrand(z):
        z = np.asarray(z, dtype=float)
        return z**k * np.exp(log_y(sol, z))

    return _domain_quadrature(sol, integrand, 1.0, k, _NORM_RTOL)


def _quadratic_tuple(coefs) -> tuple[float, float, float]:
    """Ascending coefficients as plain floats, padded to length 3."""
    return tuple(map(float, coefs)) + (0.0,) * (3 - len(coefs))


def _closed_form_norm(sol: SimilaritySolution) -> float:
    """Closed-form normalization 1 / int y / A dz, read off the Pearson form.

    The first factor vanishes at z_lo.  A finite domain of width w maps onto
    [0, 1], giving e^(b z_lo) w^(a1+a2+1) B(a1+1, a2+1) 1F1(a1+1; a1+a2+2; b w),
    with 1F1 = 1 at b = 0.  On a half line the second factor is z itself and
    beta = -b > 0: the integral is the Whittaker form with argument
    beta * z_lo, and its Gamma limit at z_lo = 0.
    """
    (_, _, a1), (_, _, a2) = sol.factors
    s = a1 + a2
    z_lo = sol.z_lo
    if math.isinf(sol.z_hi):
        beta = -sol.rate
        if z_lo == 0.0:
            return math.exp((s + 1.0) * math.log(beta) - ln_gamma(s + 1.0))
        w_val = whittaker_w(0.5 * (a2 - a1), 0.5 * (s + 1.0), beta * z_lo)
        log_inv = (
            -0.5 * (s + 2.0) * math.log(beta)
            + 0.5 * s * math.log(z_lo)
            + ln_gamma(a1 + 1.0)
            - 0.5 * beta * z_lo
            + math.log(w_val)
        )
        return math.exp(-log_inv)
    width = sol.z_hi - z_lo
    log_inv = sol.rate * z_lo + (s + 1.0) * math.log(width)
    log_inv += ln_beta(a1 + 1.0, a2 + 1.0)
    log_inv += math.log(kummer_1f1(a1 + 1.0, s + 2.0, sol.rate * width))
    return math.exp(-log_inv)


def build_solution(alpha: float, params: SolutionClass) -> SimilaritySolution:
    """Construct a solvable model for the given scaling exponent and family.

    rho2 = l1 l2 and f rho2 = a1 l1' l2 + a2 l2' l1 + b l1 l2 are multiplied
    out exactly, and the reduced drift comes from ``drift_from_f``; the
    normalization is computed both in closed form and by quadrature and the
    two are required to agree.  The closed form is authoritative for the
    finite-domain families; the half-line family keeps the quadrature value
    (its closed form is retained as a cross-check only).
    """
    alpha = check_alpha(alpha)
    factors, rate, z_lo, z_hi = params.linear_factors()
    (r1, s1, a1), (r2, s2, a2) = factors
    l1 = np.array([-s1 * r1, s1])
    l2 = np.array([-s2 * r2, s2])
    rho2_coefs = P.polymul(l1, l2)
    f_rho2 = P.polyadd(P.polyadd(a1 * s1 * l2, a2 * s2 * l1), rate * rho2_coefs)
    shape = SimilaritySolution(
        alpha=alpha,
        class_params=params,
        factors=factors,
        rate=rate,
        z_lo=z_lo,
        z_hi=z_hi,
        drift_coefs=_quadratic_tuple(drift_from_f(f_rho2, rho2_coefs)),
        diffusion_coefs=_quadratic_tuple(rho2_coefs),
        norm_A=math.nan,
        norm_A_source="",
        norm_A_closed=math.nan,
        norm_A_quadrature=math.nan,
    )

    quad = _reduced_mass(shape)
    if not quad.converged:
        raise RuntimeError(
            f"normalization quadrature failed for {params!r}: "
            f"error estimate {quad.abs_error_estimate:.3e}"
        )
    norm_quad = 1.0 / quad.value
    norm_closed = _closed_form_norm(shape)
    if not math.isfinite(norm_closed):
        raise ValueError(
            f"closed-form normalization of {params!r} is not finite: {norm_closed!r}"
        )
    rel = abs(norm_closed - norm_quad) / norm_quad
    if not rel <= _BUILD_AGREEMENT_GUARD:  # NaN fails too
        raise RuntimeError(
            f"normalization routes disagree for {params!r}: closed {norm_closed!r} "
            f"vs quadrature {norm_quad!r} (rel {rel:.3e})"
        )

    if math.isinf(z_hi):
        norm_a, source = norm_quad, "quadrature"
    else:
        norm_a, source = norm_closed, "closed_form"
    return dataclasses.replace(
        shape,
        norm_A=norm_a,
        norm_A_source=source,
        norm_A_closed=norm_closed,
        norm_A_quadrature=norm_quad,
    )


def _check_time(t: float) -> float:
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"densities are defined for t > 0 only, got t={t!r}")
    return t


def _interior_anchor(sol: SimilaritySolution) -> float:
    return sol.z_lo + 1.0 if math.isinf(sol.z_hi) else 0.5 * (sol.z_lo + sol.z_hi)


def reduced_density(sol: SimilaritySolution, z):
    """Normalized reduced density y(z); zero outside the open domain."""
    z = np.asarray(z, dtype=float)
    inside = (z > sol.z_lo) & (z < sol.z_hi)
    z_safe = np.where(inside, z, _interior_anchor(sol))
    out = np.where(inside, sol.norm_A * np.exp(_log_y(sol, z_safe)), 0.0)
    return float(out) if out.ndim == 0 else out


def density(sol: SimilaritySolution, x, t: float):
    """Density W(x, t) = t^{-alpha} y(x / t^alpha); zero outside the moving domain."""
    t = _check_time(t)
    t_alpha = t**sol.alpha
    x = np.asarray(x, dtype=float)
    out = np.asarray(reduced_density(sol, x / t_alpha)) / t_alpha
    return float(out) if out.ndim == 0 else out


def current(sol: SimilaritySolution, x, t: float, w=None):
    """Probability current J(x, t) = (alpha / t) x W(x, t).

    ``w``, if given, must be ``density(sol, x, t)`` for the same arguments;
    a caller that already has W passes it so W is not evaluated twice.
    """
    t = _check_time(t)
    x = np.asarray(x, dtype=float)
    if w is None:
        w = density(sol, x, t)
    out = (sol.alpha / t) * x * np.asarray(w)
    return float(out) if out.ndim == 0 else out


def _physical_drift(sol: SimilaritySolution) -> tuple[float, float, float]:
    """Coefficients of the physical drift profile rho1 = q + alpha z."""
    q0, q1, q2 = sol.drift_coefs
    return q0, q1 + sol.alpha, q2


def current_from_definition(sol: SimilaritySolution, x, t: float):
    """Current from its defining combination D1 W - d/dx (D2 W).

    rho1 = q + alpha z and rho2 come from ``sol.drift_coefs`` and
    ``sol.diffusion_coefs``, y' from f; agreement with ``current`` is a
    consistency check, and breaks if the coefficients of either profile
    are tampered with.
    """
    t = _check_time(t)
    t_alpha = t**sol.alpha
    x = np.asarray(x, dtype=float)
    z = x / t_alpha
    inside = (z > sol.z_lo) & (z < sol.z_hi)
    z_safe = np.where(inside, z, _interior_anchor(sol))
    y = sol.norm_A * np.exp(_log_y(sol, z_safe))
    y_prime = f(sol, z_safe) * y
    rho1 = _quadratic(_physical_drift(sol), z_safe)
    drift = rho1 - _quadratic_prime(sol.diffusion_coefs, z_safe)
    val = drift * y - rho2(sol, z_safe) * y_prime
    out = np.where(inside, val / t, 0.0)
    return float(out) if out.ndim == 0 else out


def coefficients(sol: SimilaritySolution, x, t: float):
    """Drift and diffusion coefficients (D1, D2) at (x, t); zero off-domain.

    Both profiles are quadratics in the reduced coordinate z = x / t^alpha,
    evaluated in Horner form from rho1 = q + alpha z and
    ``sol.diffusion_coefs``.  On the closed domain D1 = t^(alpha-1) rho1(z):
    finite at every endpoint, with no removable 0 * inf left to dodge.
    D2 = t^(2 alpha - 1) rho2(z) on the open domain, clamped at 0 against
    the rounding of rho2 next to an endpoint, and exactly 0 at the
    endpoints, where the profile vanishes.
    """
    t = _check_time(t)
    t_alpha = t**sol.alpha
    x = np.asarray(x, dtype=float)
    z = x / t_alpha
    inside = (z >= sol.z_lo) & (z <= sol.z_hi)
    z_safe = np.where(inside, z, _interior_anchor(sol))
    rho1 = _quadratic(_physical_drift(sol), z_safe)
    d1 = np.where(inside, t ** (sol.alpha - 1.0) * rho1, 0.0)
    rho2_z = np.maximum(rho2(sol, z_safe), 0.0)
    d2 = np.where((z > sol.z_lo) & (z < sol.z_hi), t ** (2.0 * sol.alpha - 1.0) * rho2_z, 0.0)
    if d1.ndim == 0:
        return float(d1), float(d2)
    return d1, d2


def boundary_positions(sol: SimilaritySolution, t: float) -> tuple[float, float]:
    """Instantaneous domain endpoints (z_lo t^alpha, z_hi t^alpha)."""
    t = _check_time(t)
    t_alpha = t**sol.alpha
    hi = sol.z_hi
    return sol.z_lo * t_alpha, math.inf if math.isinf(hi) else hi * t_alpha


def truncated_positions(sol: SimilaritySolution, t: float) -> tuple[float, float]:
    """Domain endpoints at t, a half line cut at ``effective_upper``."""
    t_alpha = _check_time(t) ** sol.alpha
    return sol.z_lo * t_alpha, effective_upper(sol) * t_alpha


def moment(sol: SimilaritySolution, k: int, t: float) -> float:
    """k-th moment of W(., t): equals t^{k alpha} times the reduced moment."""
    if k < 0 or k != int(k):
        raise ValueError(f"moment order must be a non-negative integer, got {k!r}")
    t = _check_time(t)
    res = _reduced_mass(sol, weight_power=int(k))
    if not res.converged:
        raise RuntimeError(f"moment quadrature failed: error {res.abs_error_estimate:.3e}")
    return t ** (int(k) * sol.alpha) * sol.norm_A * res.value


def mass(sol: SimilaritySolution, t: float) -> float:
    """Integral of W(., t) over the instantaneous domain (should be 1).

    Deliberately integrates in the physical coordinate so the time
    prefactor and the coordinate map are exercised, not just the reduced
    profile.  The split and the endpoint powers are those of the
    normalization quadrature (``_domain_quadrature``), mapped to x by
    t^alpha; a half line is integrated to infinity.
    """
    t = _check_time(t)

    def w_of_x(x):
        return density(sol, x, t)

    res = _domain_quadrature(sol, w_of_x, t**sol.alpha, 0, _MASS_RTOL)
    if not res.converged:
        raise RuntimeError(f"mass quadrature failed: error {res.abs_error_estimate:.3e}")
    return res.value


def first_integral_residual(sol: SimilaritySolution, z):
    """Residual and local scale of rho2 y' + (rho2' - q) y = 0.

    q, rho2 and rho2' come from the coefficients, y' = f y from the factors.
    """
    z = np.asarray(z, dtype=float)
    y = reduced_density(sol, z)
    term1 = rho2(sol, z) * f(sol, z) * y
    term2 = (_quadratic_prime(sol.diffusion_coefs, z) - _quadratic(sol.drift_coefs, z)) * y
    return term1 + term2, np.abs(term1) + np.abs(term2)


def reduced_ode_residual(sol: SimilaritySolution, z):
    """Residual and local scale of the second-order reduced equation.

    rho2 y'' + (2 rho2' - q) y' + (rho2'' - q') y = 0,
    with q, rho2 and their derivatives from the coefficients and
    y' = f y, y'' = (f^2 + f') y from the factors.
    """
    z = np.asarray(z, dtype=float)
    y = reduced_density(sol, z)
    fz = f(sol, z)
    drift, diffusion = sol.drift_coefs, sol.diffusion_coefs
    t1 = rho2(sol, z) * (fz * fz + f_prime(sol, z)) * y
    t2 = (2.0 * _quadratic_prime(diffusion, z) - _quadratic(drift, z)) * fz * y
    t3 = (2.0 * diffusion[2] - _quadratic_prime(drift, z)) * y
    return t1 + t2 + t3, np.abs(t1) + np.abs(t2) + np.abs(t3)


def interior_points(sol: SimilaritySolution, n: int) -> np.ndarray:
    """n cell midpoints inside the reduced domain, a half line cut at ``effective_upper``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    step = (effective_upper(sol) - sol.z_lo) / n
    return sol.z_lo + (np.arange(n) + 0.5) * step


# the tail search aims just inside the budget, so that the quadrature's
# error cannot push the mass beyond the cut above TAIL_MASS; it stops once
# ln T is within _TAIL_LOG_TOL of ln T*, ten times the quadrature's rtol
_TAIL_TARGET = TAIL_MASS * (1.0 - 1e-8)
_TAIL_RTOL = 1e-10
_TAIL_LOG_TOL = 1e-9
_TAIL_MAX_STEPS = 60


@functools.lru_cache(maxsize=256)
def effective_upper(sol: SimilaritySolution) -> float:
    """Upper end of the reduced domain, with a half line cut at ``TAIL_MASS``.

    The one place a half line is truncated: eval tables, histograms, the
    PDE grid, the identity sample points and the Monte Carlo step cap all
    end here.  Returns the finite endpoint unchanged for bounded domains;
    otherwise a z whose analytic tail mass T(z) lies within 1e-9 relative
    of ``TAIL_MASS (1 - 1e-8)``, so never above ``TAIL_MASS``.  The search
    is Newton on g = ln T - ln T* with g' = -y / T, from ``_tail_start``:
    y is log-concave, so is its tail, and a handful of tail quadratures
    suffice.  A bracket on the root is kept, and a step that leaves it is
    replaced by bisection.  Cached: solutions are immutable values.
    """
    if not math.isinf(sol.z_hi):
        return sol.z_hi

    def integrand(z):
        return np.exp(_log_y(sol, z))

    log_target = math.log(_TAIL_TARGET / sol.norm_A)
    lo, hi = sol.z_lo, math.inf
    z = _tail_start(sol)
    for _ in range(_TAIL_MAX_STEPS):
        tail = integrate_adaptive(integrand, z, math.inf, 0.0, rtol=_TAIL_RTOL).value
        g = math.log(tail) - log_target if tail > 0.0 else -math.inf
        if abs(g) <= _TAIL_LOG_TOL:
            return z
        if g > 0.0:
            lo = z
        else:
            hi = z
        with np.errstate(divide="ignore", invalid="ignore"):
            z_new = float(z + g * tail / integrand(z))
        if not lo < z_new < hi:
            z_new = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * z - sol.z_lo
        z = z_new
    raise RuntimeError("failed to locate the tail truncation point")


@dataclass(frozen=True)
class Preset:
    """A named model configuration with its reference evaluation times."""

    alpha: float
    params: SolutionClass
    times: tuple[float, ...]


PRESETS: dict[str, Preset] = {
    "fig1": Preset(2.0, ClassI(z1=1.0, z2=4.0, a1=1.0, a2=0.5), (0.3, 0.4, 0.5)),
    "fig2": Preset(-2.0, ClassI(z1=1.0, z2=4.0, a1=1.0 / 3.0, a2=0.5), (1.0, 1.2, 1.4)),
    "fig3": Preset(2.0, ClassI(z1=-2.0, z2=4.0, a1=1.0, a2=1.0), (0.6, 0.8, 1.0)),
    "fig4": Preset(2.0, ClassII(z2=1.0, a1=1.0, a2=0.5, beta=-1.0), (0.4, 0.6, 0.8)),
    "fig5": Preset(2.0, ClassIII(z1=0.5, a1=1.0, a2=0.5, beta=1.0), (0.5, 0.8, 1.0)),
}


def preset_solution(name: str) -> SimilaritySolution:
    """Build the model behind a named preset ("fig1" ... "fig5")."""
    try:
        spec = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    return build_solution(spec.alpha, spec.params)
