"""The three exactly solvable families of moving-domain drift-diffusion models.

Each family is defined by the shape function f (log-derivative of the
reduced density y) together with a quadratic diffusion profile rho2 that
vanishes at the finite endpoints of the reduced domain.  The drift profile
rho1 is always *generated* from (f, rho2) through ``scaling.drift_from_f``,
never written out by hand: the self-consistency identities then hold by
construction, and mistranscribed or corrupted coefficients are detectable
by the residual checks below.

The physical density is W(x, t) = t^{-alpha} y(x / t^alpha) with y
normalized to unit mass; domain endpoints move as z_k t^alpha.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .scaling import (
    ScaleInvariantProfile,
    ScalingExponents,
    drift_from_f,
    make_exponents,
)
from .specfun import (
    QuadratureResult,
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
]


def _check_positive_exponents(a1: float, a2: float) -> None:
    if not (a1 > 0.0 and a2 > 0.0):
        raise ValueError(f"endpoint exponents must be positive, got a1={a1!r}, a2={a2!r}")


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
        _check_positive_exponents(self.a1, self.a2)
        if not self.z1 < self.z2:
            raise ValueError(f"need z1 < z2, got z1={self.z1!r}, z2={self.z2!r}")

    @property
    def subclass(self) -> str:
        if self.z1 == 0.0 or self.z2 == 0.0:
            return "ii"
        if self.z1 < 0.0 < self.z2:
            return "iii"
        return "i"


@dataclass(frozen=True)
class ClassII:
    """One moving boundary at z2 t^alpha with the origin a fixed endpoint."""

    z2: float
    a1: float
    a2: float
    beta: float

    def __post_init__(self) -> None:
        _check_positive_exponents(self.a1, self.a2)
        if not self.z2 > 0.0:
            raise ValueError(f"need z2 > 0, got {self.z2!r}")
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")


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
        _check_positive_exponents(self.a1, self.a2)
        if self.z1 < 0.0:
            raise ValueError(f"need z1 >= 0, got {self.z1!r}")
        if not self.beta > 0.0:
            raise ValueError(f"need beta > 0 for a normalizable tail, got {self.beta!r}")


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
class _Pieces:
    f: Callable
    f_prime: Callable
    rho2: Callable
    rho2_prime: Callable
    rho2_second: Callable
    log_y: Callable
    z_lo: float
    z_hi: float


def _pieces_class_i(p: ClassI) -> _Pieces:
    z1, z2, a1, a2 = p.z1, p.z2, p.a1, p.a2

    def f(z):
        return a1 / (z - z1) - a2 / (z2 - z)

    def f_prime(z):
        return -a1 / (z - z1) ** 2 - a2 / (z2 - z) ** 2

    def rho2(z):
        return (z - z1) * (z2 - z)

    def rho2_prime(z):
        return (z1 + z2) - 2.0 * np.asarray(z, dtype=float)

    def rho2_second(z):
        return -2.0 + 0.0 * np.asarray(z, dtype=float)

    def log_y(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore"):
            return a1 * np.log(z - z1) + a2 * np.log(z2 - z)

    return _Pieces(f, f_prime, rho2, rho2_prime, rho2_second, log_y, z1, z2)


def _pieces_class_ii(p: ClassII) -> _Pieces:
    z2, a1, a2, beta = p.z2, p.a1, p.a2, p.beta

    def f(z):
        return a1 / z - a2 / (z2 - z) + beta

    def f_prime(z):
        return -a1 / z**2 - a2 / (z2 - z) ** 2

    def rho2(z):
        return z * (z2 - z)

    def rho2_prime(z):
        return z2 - 2.0 * np.asarray(z, dtype=float)

    def rho2_second(z):
        return -2.0 + 0.0 * np.asarray(z, dtype=float)

    def log_y(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore"):
            return a1 * np.log(z) + a2 * np.log(z2 - z) + beta * z

    return _Pieces(f, f_prime, rho2, rho2_prime, rho2_second, log_y, 0.0, z2)


def _pieces_class_iii(p: ClassIII) -> _Pieces:
    z1, a1, a2, beta = p.z1, p.a1, p.a2, p.beta

    def f(z):
        return a1 / (z - z1) + a2 / z - beta

    def f_prime(z):
        return -a1 / (z - z1) ** 2 - a2 / z**2

    def rho2(z):
        return (z - z1) * z

    def rho2_prime(z):
        return 2.0 * np.asarray(z, dtype=float) - z1

    def rho2_second(z):
        return 2.0 + 0.0 * np.asarray(z, dtype=float)

    def log_y(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore"):
            return a1 * np.log(z - z1) + a2 * np.log(z) - beta * z

    return _Pieces(f, f_prime, rho2, rho2_prime, rho2_second, log_y, z1, math.inf)


def _pieces(params: SolutionClass) -> _Pieces:
    if isinstance(params, ClassI):
        return _pieces_class_i(params)
    if isinstance(params, ClassII):
        return _pieces_class_ii(params)
    if isinstance(params, ClassIII):
        return _pieces_class_iii(params)
    raise TypeError(f"unsupported parameter set: {params!r}")


@dataclass(frozen=True)
class SimilaritySolution:
    """A fully constructed solvable model, immutable after build.

    ``norm_A`` is the normalization in use (``norm_A_source`` says which
    route produced it); both routes are retained so their agreement can be
    asserted independently.  ``drift_coefs`` and ``diffusion_coefs`` are the
    coefficients of the quadratics rho1 and rho2 in ascending powers of z,
    derived from the generated profiles at build time.
    """

    exponents: ScalingExponents
    class_params: SolutionClass
    profile: ScaleInvariantProfile
    norm_A: float
    norm_A_source: str
    norm_A_closed: float
    norm_A_quadrature: float
    log_y: Callable
    drift_coefs: tuple[float, float, float]
    diffusion_coefs: tuple[float, float, float]

    @property
    def alpha(self) -> float:
        return self.exponents.alpha


_NORM_RTOL = 1e-12
_BUILD_AGREEMENT_GUARD = 1e-6

# Nodes, in units of a node step from z_lo that keeps them all inside the
# domain: profiles are interpolated at the first three and checked at the rest.
_PROFILE_NODES = np.array([1.0, 2.0, 3.0, 0.5, 1.5, 2.5, 3.5])
_PROFILE_FIT_RTOL = 1e-12
# a fitted coefficient whose share of the profile is below this fraction of
# its scale is rounding noise and is set to exactly zero
_PROFILE_ZERO_RTOL = 1e-14


def _reduced_mass(params: SolutionClass, pieces: _Pieces, weight_power: int = 0) -> QuadratureResult:
    """Quadrature of z^k * exp(log_y) over the reduced domain.

    Splits at an interior point and integrates each half with the endpoint
    behavior made explicit, reflecting the upper half so both singular
    endpoints sit at a lower limit.
    """
    k = weight_power

    def integrand(z):
        z = np.asarray(z, dtype=float)
        return z**k * np.exp(pieces.log_y(z))

    z_lo = pieces.z_lo
    if isinstance(params, ClassIII):
        split = z_lo + max(1.0, (params.a1 + params.a2 + 2.0 + k) / params.beta)
        p_lo = params.a1 + (params.a2 + k if z_lo == 0.0 else 0.0)
        left = integrate_adaptive(integrand, z_lo, split, 0.0, rtol=_NORM_RTOL,
                                  endpoint_power=p_lo)
        right = integrate_adaptive(integrand, split, math.inf, 0.0, rtol=_NORM_RTOL)
        return _sum_results(left, right)

    z_hi = pieces.z_hi
    mid = 0.5 * (z_lo + z_hi)
    a1 = params.a1
    a2 = params.a2
    p_lo = a1 + (k if z_lo == 0.0 else 0)
    p_hi = a2 + (k if z_hi == 0.0 else 0)
    left = integrate_adaptive(integrand, z_lo, mid, 0.0, rtol=_NORM_RTOL,
                              endpoint_power=p_lo)

    def reflected(u):
        return integrand(z_hi - np.asarray(u, dtype=float))

    right = integrate_adaptive(reflected, 0.0, z_hi - mid, 0.0, rtol=_NORM_RTOL,
                               endpoint_power=p_hi)
    return _sum_results(left, right)


def _sum_results(r1: QuadratureResult, r2: QuadratureResult) -> QuadratureResult:
    return QuadratureResult(
        r1.value + r2.value,
        r1.abs_error_estimate + r2.abs_error_estimate,
        r1.evaluations + r2.evaluations,
        r1.converged and r2.converged,
    )


def _quadratic_coefs(
    name: str, z: np.ndarray, values: np.ndarray, term_scale: float = 0.0
) -> tuple[float, float, float]:
    """Coefficients, ascending, of the quadratic through a profile's values.

    The quadratic interpolates the first three of the nodes ``z`` (Newton
    divided differences) and is checked at the others.  The profile's scale
    is the larger of ``term_scale``, the size of the terms the profile is
    computed from, and the size of the monomials c_k z^k at the nodes:
    either bounds how well the quadratic can be evaluated.  Coefficients
    whose monomials stay below _PROFILE_ZERO_RTOL of it are rounding noise
    and set to exactly zero.  Raises RuntimeError unless the quadratic
    reproduces the checked values to _PROFILE_FIT_RTOL of the scale.
    """
    zs, vs = z.tolist(), values.tolist()
    (z0, z1, z2), (v0, v1, v2) = zs[:3], vs[:3]
    d01 = (v1 - v0) / (z1 - z0)
    c2 = ((v2 - v1) / (z2 - z1) - d01) / (z2 - z0)
    coefs = [v0 - z0 * (d01 - c2 * z1), d01 - c2 * (z0 + z1), c2]
    monomials = [[abs(c * zk**k) for k, c in enumerate(coefs)] for zk in zs]
    scale = max(term_scale, max(sum(m) for m in monomials))
    c0, c1, c2 = (
        0.0 if max(m[k] for m in monomials) <= _PROFILE_ZERO_RTOL * scale else c
        for k, c in enumerate(coefs)
    )
    err = max(abs(c0 + zk * (c1 + zk * c2) - vk) for zk, vk in zip(zs[3:], vs[3:]))
    if not err <= _PROFILE_FIT_RTOL * scale:
        raise RuntimeError(
            f"generated {name} profile is not quadratic: off by {err:.3e} "
            f"at a check node (scale {scale:.3e})"
        )
    return c0, c1, c2


def _closed_form_norm(alpha: float, params: SolutionClass) -> float:
    """Closed-form normalization constant for each family.

    For the half-line family with z1 > 0 this is the Whittaker form with
    argument beta * z1 (derived from the density itself); at z1 = 0 the
    Whittaker form degenerates and the Gamma form of the limit is used.
    """
    if isinstance(params, ClassI):
        log_inv = (params.a1 + params.a2 + 1.0) * math.log(params.z2 - params.z1)
        log_inv += ln_beta(params.a1 + 1.0, params.a2 + 1.0)
        return math.exp(-log_inv)
    if isinstance(params, ClassII):
        log_inv = (params.a1 + params.a2 + 1.0) * math.log(params.z2)
        log_inv += ln_beta(params.a1 + 1.0, params.a2 + 1.0)
        log_inv += math.log(
            kummer_1f1(params.a1 + 1.0, params.a1 + params.a2 + 2.0, params.beta * params.z2)
        )
        return math.exp(-log_inv)
    if isinstance(params, ClassIII):
        s = params.a1 + params.a2
        if params.z1 == 0.0:
            return math.exp((s + 1.0) * math.log(params.beta) - ln_gamma(s + 1.0))
        w_val = whittaker_w(
            0.5 * (params.a2 - params.a1), 0.5 * (s + 1.0), params.beta * params.z1
        )
        log_inv = (
            -0.5 * (s + 2.0) * math.log(params.beta)
            + 0.5 * s * math.log(params.z1)
            + ln_gamma(params.a1 + 1.0)
            - 0.5 * params.beta * params.z1
            + math.log(w_val)
        )
        return math.exp(-log_inv)
    raise TypeError(f"unsupported parameter set: {params!r}")


def build_solution(alpha: float, params: SolutionClass) -> SimilaritySolution:
    """Construct a solvable model for the given scaling exponent and family.

    The drift profile comes from ``drift_from_f``; the normalization is
    computed both in closed form and by quadrature and the two are required
    to agree.  The closed form is authoritative for the finite-domain
    families; the half-line family keeps the quadrature value (its closed
    form is retained as a cross-check only).
    """
    exponents = make_exponents(alpha)
    pieces = _pieces(params)

    rho1 = drift_from_f(pieces.f, pieces.rho2, pieces.rho2_prime, alpha)

    def rho1_prime(z):
        z = np.asarray(z, dtype=float)
        out = (
            pieces.f_prime(z) * pieces.rho2(z)
            + pieces.f(z) * pieces.rho2_prime(z)
            + pieces.rho2_second(z)
            + alpha
        )
        return float(out) if out.ndim == 0 else out

    quad = _reduced_mass(params, pieces)
    if not quad.converged:
        raise RuntimeError(
            f"normalization quadrature failed for {params!r}: "
            f"error estimate {quad.abs_error_estimate:.3e}"
        )
    norm_quad = 1.0 / quad.value
    norm_closed = _closed_form_norm(alpha, params)
    rel = abs(norm_closed - norm_quad) / norm_quad
    if rel > _BUILD_AGREEMENT_GUARD:
        raise RuntimeError(
            f"normalization routes disagree for {params!r}: closed {norm_closed!r} "
            f"vs quadrature {norm_quad!r} (rel {rel:.3e})"
        )

    if isinstance(params, ClassIII):
        norm_a, source = norm_quad, "quadrature"
    else:
        norm_a, source = norm_closed, "closed_form"

    # rho2 is quadratic and rho1 = f rho2 + rho2' + alpha z has degree <= 2 in
    # every family; the coefficients are read off the generated profiles,
    # with a node step that needs no tail search on the half line
    z_lo = pieces.z_lo
    if math.isinf(pieces.z_hi):
        step = max(1.0, (params.a1 + params.a2 + 2.0) / params.beta)
    else:
        step = 0.25 * (pieces.z_hi - z_lo)
    z = z_lo + step * _PROFILE_NODES
    rho1_z = rho1(z)
    # |f rho2| <= |rho1| + |rho2'| + |alpha z| bounds every term rho1 is
    # generated from
    drift_terms = np.abs(rho1_z) + np.abs(pieces.rho2_prime(z)) + np.abs(alpha * z)
    drift_coefs = _quadratic_coefs("drift", z, rho1_z, float(np.max(drift_terms)))
    diffusion_coefs = _quadratic_coefs("diffusion", z, pieces.rho2(z))

    profile = ScaleInvariantProfile(
        rho1=rho1,
        rho2=pieces.rho2,
        f=pieces.f,
        z_lo=pieces.z_lo,
        z_hi=pieces.z_hi,
        rho1_prime=rho1_prime,
        rho2_prime=pieces.rho2_prime,
        rho2_second=pieces.rho2_second,
        f_prime=pieces.f_prime,
    )
    return SimilaritySolution(
        exponents=exponents,
        class_params=params,
        profile=profile,
        norm_A=norm_a,
        norm_A_source=source,
        norm_A_closed=norm_closed,
        norm_A_quadrature=norm_quad,
        log_y=pieces.log_y,
        drift_coefs=drift_coefs,
        diffusion_coefs=diffusion_coefs,
    )


def _check_time(t: float) -> float:
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"densities are defined for t > 0 only, got t={t!r}")
    return t


def _interior_anchor(sol: SimilaritySolution) -> float:
    z_lo, z_hi = sol.profile.z_lo, sol.profile.z_hi
    return z_lo + 1.0 if math.isinf(z_hi) else 0.5 * (z_lo + z_hi)


def reduced_density(sol: SimilaritySolution, z):
    """Normalized reduced density y(z); zero outside the open domain."""
    z = np.asarray(z, dtype=float)
    inside = (z > sol.profile.z_lo) & (z < sol.profile.z_hi)
    z_safe = np.where(inside, z, _interior_anchor(sol))
    out = np.where(inside, sol.norm_A * np.exp(sol.log_y(z_safe)), 0.0)
    return float(out) if out.ndim == 0 else out


def density(sol: SimilaritySolution, x, t: float):
    """Density W(x, t) = t^{-alpha} y(x / t^alpha); zero outside the moving domain."""
    t = _check_time(t)
    t_alpha = t**sol.alpha
    x = np.asarray(x, dtype=float)
    out = np.asarray(reduced_density(sol, x / t_alpha)) / t_alpha
    return float(out) if out.ndim == 0 else out


def current(sol: SimilaritySolution, x, t: float):
    """Probability current J(x, t) = (alpha / t) x W(x, t)."""
    t = _check_time(t)
    x = np.asarray(x, dtype=float)
    out = (sol.alpha / t) * x * np.asarray(density(sol, x, t))
    return float(out) if out.ndim == 0 else out


def current_from_definition(sol: SimilaritySolution, x, t: float):
    """Current from its defining combination D1 W - d/dx (D2 W).

    Evaluated with analytic derivatives of the profile pieces; agreement
    with ``current`` is a consistency check, and breaks if any profile is
    tampered with.
    """
    t = _check_time(t)
    t_alpha = t**sol.alpha
    x = np.asarray(x, dtype=float)
    z = x / t_alpha
    p = sol.profile
    inside = (z > p.z_lo) & (z < p.z_hi)
    z_safe = np.where(inside, z, _interior_anchor(sol))
    y = sol.norm_A * np.exp(sol.log_y(z_safe))
    y_prime = p.f(z_safe) * y
    val = (p.rho1(z_safe) - p.rho2_prime(z_safe)) * y - p.rho2(z_safe) * y_prime
    out = np.where(inside, val / t, 0.0)
    return float(out) if out.ndim == 0 else out


def coefficients(sol: SimilaritySolution, x, t: float):
    """Drift and diffusion coefficients (D1, D2) at (x, t); zero off-domain.

    Both profiles are quadratics in the reduced coordinate z = x / t^alpha,
    so on the closed domain D1 = t^(alpha-1) rho1(z) is evaluated in Horner
    form from ``sol.drift_coefs``: finite at every endpoint, with no
    removable 0 * inf left to dodge.  D2 = t^(2 alpha - 1) rho2(z) comes
    from the diffusion profile's factored form, which vanishes exactly at
    finite endpoints.
    """
    t = _check_time(t)
    t_alpha = t**sol.alpha
    x = np.asarray(x, dtype=float)
    z = x / t_alpha
    p = sol.profile
    inside = (z >= p.z_lo) & (z <= p.z_hi)
    z_safe = np.where(inside, z, _interior_anchor(sol))
    c0, c1, c2 = sol.drift_coefs
    d1 = np.where(inside, t ** (sol.alpha - 1.0) * (c0 + z_safe * (c1 + z_safe * c2)), 0.0)
    d2 = np.where(inside, t ** (2.0 * sol.alpha - 1.0) * p.rho2(z_safe), 0.0)
    if d1.ndim == 0:
        return float(d1), float(d2)
    return d1, d2


def boundary_positions(sol: SimilaritySolution, t: float) -> tuple[float, float]:
    """Instantaneous domain endpoints (z_lo t^alpha, z_hi t^alpha)."""
    t = _check_time(t)
    t_alpha = t**sol.alpha
    hi = sol.profile.z_hi
    return sol.profile.z_lo * t_alpha, math.inf if math.isinf(hi) else hi * t_alpha


def moment(sol: SimilaritySolution, k: int, t: float) -> float:
    """k-th moment of W(., t): equals t^{k alpha} times the reduced moment."""
    if k < 0 or k != int(k):
        raise ValueError(f"moment order must be a non-negative integer, got {k!r}")
    t = _check_time(t)
    res = _reduced_mass(sol.class_params, _pieces(sol.class_params), weight_power=int(k))
    if not res.converged:
        raise RuntimeError(f"moment quadrature failed: error {res.abs_error_estimate:.3e}")
    return t ** (int(k) * sol.alpha) * sol.norm_A * res.value


def mass(sol: SimilaritySolution, t: float, *, rtol: float = 1e-11) -> float:
    """Integral of W(., t) over the instantaneous domain (should be 1).

    Deliberately integrates in the physical coordinate so the time
    prefactor and the coordinate map are exercised, not just the reduced
    profile.
    """
    t = _check_time(t)
    x_lo, x_hi = boundary_positions(sol, t)

    def w_of_x(x):
        return density(sol, x, t)

    if math.isinf(x_hi):
        split = effective_upper(sol, tail_mass=1e-6) * t**sol.alpha
        left = integrate_adaptive(w_of_x, x_lo, split, 0.0, rtol=rtol)
        right = integrate_adaptive(w_of_x, split, math.inf, 0.0, rtol=rtol)
        res = _sum_results(left, right)
    else:
        mid = 0.5 * (x_lo + x_hi)
        left = integrate_adaptive(w_of_x, x_lo, mid, 0.0, rtol=rtol)
        right = integrate_adaptive(w_of_x, mid, x_hi, 0.0, rtol=rtol)
        res = _sum_results(left, right)
    if not res.converged:
        raise RuntimeError(f"mass quadrature failed: error {res.abs_error_estimate:.3e}")
    return res.value


def first_integral_residual(sol: SimilaritySolution, z):
    """Residual and local scale of rho2 y' + (rho2' - rho1 + alpha z) y = 0."""
    p = sol.profile
    z = np.asarray(z, dtype=float)
    y = reduced_density(sol, z)
    term1 = p.rho2(z) * p.f(z) * y
    term2 = (p.rho2_prime(z) - p.rho1(z) + sol.alpha * z) * y
    return term1 + term2, np.abs(term1) + np.abs(term2)


def reduced_ode_residual(sol: SimilaritySolution, z):
    """Residual and local scale of the second-order reduced equation.

    rho2 y'' + (2 rho2' - rho1 + alpha z) y' + (rho2'' - rho1' + alpha) y = 0,
    with all derivatives analytic (y' = f y, y'' = (f^2 + f') y).
    """
    p = sol.profile
    z = np.asarray(z, dtype=float)
    y = reduced_density(sol, z)
    f = p.f(z)
    t1 = p.rho2(z) * (f * f + p.f_prime(z)) * y
    t2 = (2.0 * p.rho2_prime(z) - p.rho1(z) + sol.alpha * z) * f * y
    t3 = (p.rho2_second(z) - p.rho1_prime(z) + sol.alpha) * y
    return t1 + t2 + t3, np.abs(t1) + np.abs(t2) + np.abs(t3)


def interior_points(sol: SimilaritySolution, n: int, *, tail_mass: float = 1e-9) -> np.ndarray:
    """n points strictly inside the reduced domain (cell midpoints)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z_lo = sol.profile.z_lo
    z_hi = sol.profile.z_hi
    if math.isinf(z_hi):
        z_hi = effective_upper(sol, tail_mass=tail_mass)
    step = (z_hi - z_lo) / n
    return z_lo + (np.arange(n) + 0.5) * step


@functools.lru_cache(maxsize=256)
def effective_upper(sol: SimilaritySolution, *, tail_mass: float = 1e-12) -> float:
    """Upper truncation point for the half-line family.

    Returns the finite endpoint unchanged for bounded domains; otherwise a
    z beyond which the analytic density holds less than ``tail_mass``.
    Cached: solutions are immutable and the search costs many quadratures.
    """
    z_hi = sol.profile.z_hi
    if not math.isinf(z_hi):
        return z_hi
    params = sol.class_params
    assert isinstance(params, ClassIII)

    def integrand(z):
        return np.exp(sol.log_y(z))

    def tail(z: float) -> float:
        res = integrate_adaptive(integrand, z, math.inf, 0.0, rtol=1e-6)
        return sol.norm_A * res.value

    lo = sol.profile.z_lo + max(1.0, (params.a1 + params.a2 + 2.0) / params.beta)
    hi = lo
    width = max(1.0, lo - sol.profile.z_lo)
    while tail(hi) > tail_mass:
        hi += width
        width *= 2.0
        if width > 1e12:
            raise RuntimeError("failed to locate the tail truncation point")
    if hi == lo:
        return hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if tail(mid) > tail_mass:
            lo = mid
        else:
            hi = mid
    return hi


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
