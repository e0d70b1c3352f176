"""The three exactly solvable families of moving-domain drift-diffusion models.

All three are one Pearson family (the Pearson diffusions of Forman and
Sorensen, Scand. J. Stat. 35, 2008): the reduced density is

    y(z) = A l1(z)^a1 l2(z)^a2 e^(b z),

with linear factors l1, l2 that are positive on the open domain (each
finite endpoint is a root of one of them), and the diffusion profile is
the quadratic rho2 = l1 l2.  A solution is stored as plain numbers: the
factors, the rate b, the domain, the coefficients of both profiles and
alpha.  The shape function f = y'/y gives the quadratic
f rho2 = a1 l1' l2 + a2 l2' l1 + b l1 l2, and the reduced drift
q = f rho2 + rho2' is *generated* from it by ``scaling.drift_from_f`` on
float triples, never written out by hand.  q and rho2 are the drift and
diffusion of the reduced process dZ = q(Z) ds + sqrt(2 rho2(Z)) dB_s in
s = ln t; neither contains alpha.  Both profiles are evaluated only from
their coefficients, so the residual checks below, which hold them against
f pointwise, detect a mistranscribed or corrupted coefficient of either.

alpha enters only through the map x = z t^alpha: the physical density is
W(x, t) = t^{-alpha} y(x / t^alpha) with y normalized to unit mass, domain
endpoints move as z_k t^alpha, and the physical drift profile is
rho1 = q + alpha z, formed only where D1 is.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .scaling import _is_real, check_alpha, drift_from_f
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
    """Checks every family shares: each parameter is a finite real, stored as
    a float (the error names the first that is not), and a1, a2 > 0."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if not (_is_real(value) and math.isfinite(value)):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        object.__setattr__(params, f.name, float(value))
    if not (params.a1 > 0.0 and params.a2 > 0.0):
        raise ValueError(
            f"endpoint exponents must be positive, got a1={params.a1!r}, a2={params.a2!r}"
        )


@dataclass(frozen=True)
class ClassI:
    """Class I: two moving boundaries, reduced domain z1 <= z <= z2 (z1 < z2).

      f(z)    = a1/(z - z1) - a2/(z2 - z)            (a1, a2 > 0)
      rho2(z) = (z - z1)(z2 - z)
      rho1(z) = (alpha - a1 - a2 - 2) z + (a1 + 1) z2 + (a2 + 1) z1
      y(z)    = A (z - z1)^a1 (z2 - z)^a2
      A       = 1 / [ (z2 - z1)^(a1+a2+1) B(a1+1, a2+1) ]
    Physical domain [z1 t^alpha, z2 t^alpha]; boundaries move away from the
    origin for alpha > 0 and toward it for alpha < 0.  Subclasses by sign
    pattern: (i) endpoints of one sign, (ii) one endpoint at the origin,
    (iii) straddling the origin; z1 = 0 coincides with Class II at beta = 0.
    Reflected variants come from mirror(): swap (a1, a2) and negate/swap (z1, z2).
    """

    z1: float
    z2: float
    a1: float
    a2: float

    def __post_init__(self) -> None:
        _check_params(self)
        if not self.z1 < self.z2:
            raise ValueError(f"need z1 < z2, got z1={self.z1!r}, z2={self.z2!r}")

    def linear_factors(self):
        """Pearson form: (factors, rate, z_lo, z_hi) of (z - z1)^a1 (z2 - z)^a2."""
        return ((self.z1, 1.0, self.a1), (self.z2, -1.0, self.a2)), 0.0, self.z1, self.z2


@dataclass(frozen=True)
class ClassII:
    """Class II: one moving boundary, the origin is a fixed endpoint; 0 <= z <= z2.

      f(z)    = a1/z - a2/(z2 - z) + beta            (a1, a2 > 0, beta real)
      rho2(z) = z (z2 - z)
      rho1(z) = -beta z^2 + (alpha - a1 - a2 - 2 + beta z2) z + (a1 + 1) z2
      y(z)    = A z^a1 (z2 - z)^a2 e^(beta z)
      A       = 1 / [ z2^(a1+a2+1) B(a1+1, a2+1) 1F1(a1+1; a1+a2+2; beta z2) ]
    Physical domain [0, z2 t^alpha].  The negative half-line variant is the
    mirror image: evaluate the density at -x with swapped exponents and
    negated beta.
    """

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
    """Class III: half line with a moving left edge; z1 <= z < inf, z1 >= 0, beta > 0.

      y(z)    = A (z - z1)^a1 z^a2 e^(-beta z)       (the defining object)
      f(z)    = y'/y = a1/(z - z1) + a2/z - beta     (derived, not transcribed)
      rho2(z) = (z - z1) z
      rho1(z) = -beta z^2 + (alpha + a1 + a2 + 2 + beta z1) z - (a2 + 1) z1
      A       : quadrature of y is the primary source; the closed form
                1 / [ beta^-((a1+a2+2)/2) z1^((a1+a2)/2) Gamma(a1+1)
                      e^(-beta z1 / 2) W_{(a2-a1)/2, (a1+a2+1)/2}(beta z1) ]
                (Whittaker argument beta*z1; Gamma-form limit at z1 = 0) is a
                cross-check only.
    Derivation notes: f and the Whittaker argument are regenerated from y
    itself here; transcribed variants of this family circulate with a2/z2 in
    f and argument beta*z2, which are inconsistent with y and rho1.
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
    ``norm_A`` is the normalization in use: ``norm_A_closed`` on a finite
    domain, ``norm_A_quadrature`` on a half line; both routes are retained
    so their agreement can be asserted independently.
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
    """Unnormalized log density a1 log l1 + a2 log l2 + rate z on the open
    domain; -inf at a root, where numpy warns of a divide by zero."""
    f1, f2 = sol.factors
    out = f1[2] * np.log(_linear(f1, z)) + f2[2] * np.log(_linear(f2, z))
    return out + sol.rate * z if sol.rate else out


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
        left = integrate_adaptive(g, lo, split, rtol, endpoint_power=endpoint_power(sol.z_lo))
        right = integrate_adaptive(g, split, math.inf, rtol)
        return _combine(left, right)

    hi = sol.z_hi * scale
    mid = 0.5 * (sol.z_lo + sol.z_hi) * scale
    left = integrate_adaptive(g, lo, mid, rtol, endpoint_power=endpoint_power(sol.z_lo))

    def reflected(u):
        return g(hi - np.asarray(u, dtype=float))

    right = integrate_adaptive(reflected, 0.0, hi - mid, rtol,
                               endpoint_power=endpoint_power(sol.z_hi))
    return _combine(left, right)


def _reduced_mass(sol: SimilaritySolution, weight_power: int = 0) -> QuadratureResult:
    """Quadrature of z^k * y over the reduced domain, k = weight_power; y is
    0 at a root and inf where it overflows, without numpy warnings."""
    k = weight_power

    def integrand(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return z**k * np.exp(_log_y(sol, z))

    return _domain_quadrature(sol, integrand, 1.0, k, _NORM_RTOL)


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
    out into float triples, and the reduced drift comes from ``drift_from_f``;
    the normalization is computed both in closed form and by quadrature and
    the two are required to agree.  The closed form is authoritative for the
    finite-domain families; the half-line family keeps the quadrature value
    (its closed form is retained as a cross-check only).
    """
    alpha = check_alpha(alpha)
    factors, rate, z_lo, z_hi = params.linear_factors()
    (r1, s1, a1), (r2, s2, a2) = factors
    u1, u2 = -s1 * r1, -s2 * r2  # l_k = u_k + s_k z
    # the sums that can meet signed zeros start from +0.0, as numpy's
    # polynomial products do, so no coefficient of either profile is -0.0
    c0, c1, c2 = rho2_coefs = (0.0 + u1 * u2, 0.0 + u1 * s2 + s1 * u2, s1 * s2)
    f_rho2 = (rate * c0 + (a1 * s1 * u2 + a2 * s2 * u1),
              rate * c1 + (a1 * s1 * s2 + a2 * s2 * s1),
              0.0 + rate * c2)
    shape = SimilaritySolution(
        alpha=alpha,
        class_params=params,
        factors=factors,
        rate=rate,
        z_lo=z_lo,
        z_hi=z_hi,
        drift_coefs=drift_from_f(f_rho2, rho2_coefs),
        diffusion_coefs=rho2_coefs,
        norm_A=math.nan,
        norm_A_closed=math.nan,
        norm_A_quadrature=math.nan,
    )

    quad = _reduced_mass(shape)
    if not quad.converged:
        raise RuntimeError(
            f"normalization quadrature failed for {params!r}: "
            f"error estimate {quad.abs_error_estimate:.3e}"
        )
    if not 0.0 < quad.value < math.inf:  # NaN fails too
        raise RuntimeError(
            f"normalization quadrature of {params!r} is not finite and positive: "
            f"{quad.value!r}"
        )
    norm_quad = 1.0 / quad.value
    try:
        norm_closed = _closed_form_norm(shape)
    except OverflowError:  # 1/A past the largest float
        norm_closed = math.inf
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

    return dataclasses.replace(
        shape,
        norm_A=norm_quad if math.isinf(z_hi) else norm_closed,
        norm_A_closed=norm_closed,
        norm_A_quadrature=norm_quad,
    )


def _positive(name: str, value) -> float:
    """``value`` as a float if a real (not a bool), finite and > 0; else a ValueError naming it."""
    if _is_real(value) and 0.0 < value < math.inf:  # NaN fails too
        return float(value)
    raise ValueError(f"need a finite {name} > 0, got {value!r}")


def _count(name: str, value, minimum: int) -> int:
    """``value`` if a whole number (not a bool) >= ``minimum``; else a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"need a whole number {name} >= {minimum}, got {value!r}")
    return int(value)


def _time_power(name: str, t: float, alpha: float, p: float, power: str = "alpha") -> float:
    """t ** p, which the message writes t^``power``, if it and its reciprocal
    are finite and nonzero; else a ValueError naming t."""
    try:
        value = t**p
    except OverflowError:
        value = math.inf
    if not (0.0 < value < math.inf and 1.0 / value < math.inf):
        raise ValueError(f"need {name}^{power} in float range, got {name}={t!r}, alpha={alpha!r}")
    return value


def _time_scale(name: str, t, alpha: float) -> tuple[float, float]:
    """``(t, t ** alpha)`` for a time t that ``_positive`` takes, with t^alpha
    and 1 / t^alpha finite and nonzero; else a ValueError naming it."""
    t = _positive(name, t)
    return t, _time_power(name, t, alpha, alpha)


def _coefficient_scales(name: str, t: float, alpha: float) -> tuple[float, float]:
    """The time factors t^(alpha - 1) of D1 and t^(2 alpha - 1) of D2."""
    return (_time_power(name, t, alpha, alpha - 1.0, "(alpha - 1)"),
            _time_power(name, t, alpha, 2.0 * alpha - 1.0, "(2 alpha - 1)"))


def _current_scale(name: str, t, alpha: float) -> tuple[float, float]:
    """``_time_scale(name, t, alpha)`` for a t whose 1 / t, the time factor
    of J, is in float range too (with t^alpha in range, so is alpha / t)."""
    t, t_alpha = _time_scale(name, t, alpha)
    _time_power(name, t, alpha, -1.0, "(-1)")
    return t, t_alpha


def _in_range(what: str, t: float, alpha: float, values: np.ndarray) -> np.ndarray:
    """``values`` if all are finite; else a ValueError naming t, for a product
    of a power of t and a profile that leaves float range on the domain."""
    if not np.isfinite(values).all():
        raise ValueError(f"need {what} in float range on the domain, got t={t!r}, alpha={alpha!r}")
    return values


def _reduced(x, t_alpha: float) -> np.ndarray:
    """z = x / t^alpha, where an x too large for the quotient goes to +-inf, warning-free."""
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=float) / t_alpha


def _on_domain(sol: SimilaritySolution, z, closed: bool = False, profiles: bool = False):
    """Mask of the points of z on the open domain (with ``closed``, on the
    domain with its finite endpoints), and z with every other point, NaN
    and +-inf among them, moved to an interior anchor, where every
    profile is finite.  A half line ends where rate z leaves float range,
    past which y is 0; with ``profiles``, for a caller that forms rho1 and
    rho2, also where either leaves float range."""
    z = np.asarray(z, dtype=float)
    # float_max / beta is inf for beta < 1, where rate z cannot overflow
    z_hi = sol.z_hi if math.isfinite(sol.z_hi) else sys.float_info.max / -sol.rate
    if closed:
        inside = (z >= sol.z_lo) & (z <= min(z_hi, sys.float_info.max))
    else:
        inside = (z > sol.z_lo) & (z < z_hi)
    if profiles and math.isinf(sol.z_hi):
        with np.errstate(over="ignore"):
            inside &= np.isfinite(_quadratic(_physical_drift(sol), z)) & np.isfinite(rho2(sol, z))
    anchor = sol.z_lo + 1.0 if math.isinf(sol.z_hi) else 0.5 * (sol.z_lo + sol.z_hi)
    return inside, np.where(inside, z, anchor)


def _value(out):
    """A 0-d result as a float, any other as the array."""
    return float(out) if np.ndim(out) == 0 else out


def reduced_density(sol: SimilaritySolution, z):
    """Normalized reduced density y(z); zero outside the open domain."""
    inside, z = _on_domain(sol, z)
    return _value(np.where(inside, sol.norm_A * np.exp(_log_y(sol, z)), 0.0))


def density(sol: SimilaritySolution, x, t: float):
    """Density W(x, t) = t^{-alpha} y(x / t^alpha); zero outside the moving domain."""
    _, t_alpha = _time_scale("t", t, sol.alpha)
    return _value(np.asarray(reduced_density(sol, _reduced(x, t_alpha))) / t_alpha)


def current(sol: SimilaritySolution, x, t: float, w=None):
    """Probability current J(x, t) = (alpha / t) x W(x, t); zero wherever W is.

    ``w``, if given, must be ``density(sol, x, t)`` for the same arguments;
    a caller that already has W passes it so W is not evaluated twice.
    A J out of float range at a point of the domain raises a ValueError
    naming t, as ``current_from_definition`` does.
    """
    t, _ = _current_scale("t", t, sol.alpha)
    x = np.asarray(x, dtype=float)
    w = np.asarray(density(sol, x, t) if w is None else w)
    # J is a zero of the sign of x where W is 0, even where (alpha / t) x is not finite
    x = np.where(w == 0.0, np.copysign(0.0, x), x)
    with np.errstate(over="ignore"):
        j = (sol.alpha / t) * x * w
    return _value(_in_range("J", t, sol.alpha, j))


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
    t, t_alpha = _current_scale("t", t, sol.alpha)
    inside, z = _on_domain(sol, _reduced(x, t_alpha), profiles=True)
    y = sol.norm_A * np.exp(_log_y(sol, z))
    y_prime = f(sol, z) * y
    rho1 = _quadratic(_physical_drift(sol), z)
    drift = rho1 - _quadratic_prime(sol.diffusion_coefs, z)
    val = drift * y - rho2(sol, z) * y_prime
    with np.errstate(over="ignore"):
        j = np.where(inside, val / t, 0.0)
    return _value(_in_range("J", t, sol.alpha, j))


def coefficients(sol: SimilaritySolution, x, t: float):
    """Drift and diffusion coefficients (D1, D2) at (x, t); zero off-domain.

    Both profiles are quadratics in the reduced coordinate z = x / t^alpha,
    evaluated in Horner form from rho1 = q + alpha z and
    ``sol.diffusion_coefs``.  On the closed domain D1 = t^(alpha-1) rho1(z):
    finite at every endpoint, with no removable 0 * inf left to dodge.
    D2 = t^(2 alpha - 1) rho2(z) on the open domain, clamped at 0 against
    the rounding of rho2 next to an endpoint, and exactly 0 at the
    endpoints, where the profile vanishes.  A D1 or D2 out of float range
    at a point of the domain raises a ValueError naming t.
    """
    t, t_alpha = _time_scale("t", t, sol.alpha)
    t_d1, t_d2 = _coefficient_scales("t", t, sol.alpha)
    z = _reduced(x, t_alpha)
    closed, z_safe = _on_domain(sol, z, closed=True, profiles=True)
    interior = closed & (z_safe > sol.z_lo) & (z_safe < sol.z_hi)
    rho1 = _quadratic(_physical_drift(sol), z_safe)
    rho2_z = np.maximum(rho2(sol, z_safe), 0.0)
    with np.errstate(over="ignore"):
        d1 = np.where(closed, t_d1 * rho1, 0.0)
        d2 = np.where(interior, t_d2 * rho2_z, 0.0)
    return _value(_in_range("D1", t, sol.alpha, d1)), _value(_in_range("D2", t, sol.alpha, d2))


def boundary_positions(sol: SimilaritySolution, t: float) -> tuple[float, float]:
    """Instantaneous domain endpoints (z_lo t^alpha, z_hi t^alpha)."""
    _, t_alpha = _time_scale("t", t, sol.alpha)
    return sol.z_lo * t_alpha, math.inf if math.isinf(sol.z_hi) else sol.z_hi * t_alpha


def truncated_positions(sol: SimilaritySolution, t: float) -> tuple[float, float]:
    """Domain endpoints at t, a half line cut at ``effective_upper``."""
    _, t_alpha = _time_scale("t", t, sol.alpha)
    return sol.z_lo * t_alpha, effective_upper(sol) * t_alpha


def moment(sol: SimilaritySolution, k: int, t: float) -> float:
    """k-th moment of W(., t): equals t^{k alpha} times the reduced moment."""
    k = _count("k", k, 0)
    t, _ = _time_scale("t", t, sol.alpha)
    res = _reduced_mass(sol, weight_power=k)
    if not res.converged:
        raise RuntimeError(f"moment quadrature failed: error {res.abs_error_estimate:.3e}")
    return _time_power("t", t, sol.alpha, k * sol.alpha, f"({k} alpha)") * sol.norm_A * res.value


def mass(sol: SimilaritySolution, t: float) -> float:
    """Integral of W(., t) over the instantaneous domain (should be 1).

    Deliberately integrates in the physical coordinate so the time
    prefactor and the coordinate map are exercised, not just the reduced
    profile.  The split and the endpoint powers are those of the
    normalization quadrature (``_domain_quadrature``), mapped to x by
    t^alpha; a half line is integrated to infinity.
    """
    t, t_alpha = _time_scale("t", t, sol.alpha)

    def w_of_x(x):
        return density(sol, x, t)

    res = _domain_quadrature(sol, w_of_x, t_alpha, 0, _MASS_RTOL)
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
    n = _count("n", n, 1)
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
    PDE grid and the identity sample points all end here.  Returns the
    finite endpoint unchanged for bounded domains; otherwise a z whose
    analytic tail mass T(z) lies within 1e-9 relative
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
        tail = integrate_adaptive(integrand, z, math.inf, _TAIL_RTOL).value
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
