"""Monte Carlo verification channel: paths of the Ito process

    dX = D1(X, t) dt + sqrt(2 D2(X, t)) dB

with mirror reflection at the instantaneous domain endpoints.  Under the
Ito convention with noise amplitude sqrt(2 D2), the forward equation for
the path density is exactly the one the analytic models solve (diffusion
inside two derivatives), so histograms of a propagated ensemble must
converge to the analytic density at the usual 1/sqrt(N) rate.  Reflection
realizes the zero-flux boundaries at path level: no particle is ever
absorbed or created.

Every family's profiles are quadratics in the reduced coordinate, so at a
fixed time D1 and D2 are quadratics in x whose three coefficients depend
on t alone.  A step folds the solution's ``drift_coefs`` and
``diffusion_coefs`` with the powers of t into three scalars each and
evaluates both in Horner form, in place, over the whole ensemble.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .solutions import (
    SimilaritySolution,
    boundary_positions,
    effective_upper,
    reduced_density,
)

__all__ = [
    "PathEnsemble",
    "StepSizeError",
    "init_ensemble",
    "step_ensemble",
    "propagate",
    "histogram_table",
    "histogram_distance",
]


class StepSizeError(ValueError):
    """A step was so large that a particle would cross both boundaries."""


@dataclass(frozen=True)
class PathEnsemble:
    """Particle positions at a common time, plus reflection bookkeeping.

    The generator is stream state shared across the functional updates;
    a fixed ``seed`` makes the whole trajectory reproducible bit for bit.
    """

    positions: np.ndarray
    t: float
    n_reflections: int
    seed: int
    rng: np.random.Generator = field(repr=False)


_CDF_TABLE_POINTS = 10_001


@functools.lru_cache(maxsize=64)
def _cdf_table(sol: SimilaritySolution, *, tail_mass: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    z_hi = effective_upper(sol, tail_mass=tail_mass)
    z = np.linspace(sol.profile.z_lo, z_hi, _CDF_TABLE_POINTS)
    y = reduced_density(sol, z)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(z))])
    cdf /= cdf[-1]
    return z, cdf


def init_ensemble(
    sol: SimilaritySolution, n_paths: int, t0: float, seed: int
) -> PathEnsemble:
    """Ensemble drawn from the analytic density at t0 by inverse-CDF sampling."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    if t0 <= 0.0:
        raise ValueError("need t0 > 0")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z_tab, cdf = _cdf_table(sol)
    u = rng.uniform(size=n_paths)
    z = np.interp(u, cdf, z_tab)
    return PathEnsemble(
        positions=z * t0**sol.alpha,
        t=float(t0),
        n_reflections=0,
        seed=int(seed),
        rng=rng,
    )


def _horner(
    x: np.ndarray, coefs: tuple[float, float, float], out: np.ndarray | None = None
) -> np.ndarray:
    """c0 + x (c1 + x c2), built in place in ``out`` (a new array if None)."""
    c0, c1, c2 = coefs
    out = np.multiply(x, c2, out=out)
    out += c1
    out *= x
    out += c0
    return out


def _folded(
    coefs: tuple[float, float, float], t: float, power: float, alpha: float, factor: float
) -> tuple[float, float, float]:
    """Coefficients in x of factor * t^power * q(x / t^alpha), q given by ``coefs``."""
    return tuple(factor * c * t ** (power - k * alpha) for k, c in enumerate(coefs))


def step_ensemble(
    ens: PathEnsemble, sol: SimilaritySolution, dt: float, *, noise_scale: float = 1.0
) -> PathEnsemble:
    """One Euler-Maruyama step of size dt with reflection at t + dt boundaries.

    D1 and D2 are quadratics in x at fixed t: the profile coefficients and
    the powers of t and dt fold into three scalars each, and the Horner
    forms run in place on the step's output array and the noise buffer.
    Positions are taken to lie in the closed domain at ``ens.t``, as every
    ensemble from ``init_ensemble`` and ``step_ensemble`` does.

    ``noise_scale=0`` switches off the diffusion term, turning the update
    into a forward-Euler step of the deterministic drift flow (used by the
    zero-noise verification against an ODE integrator).
    """
    if dt <= 0.0:
        raise ValueError(f"need dt > 0, got {dt!r}")
    t, alpha = ens.t, sol.alpha
    t_new = t + dt
    x = ens.positions
    drift = _folded(sol.drift_coefs, t, alpha - 1.0, alpha, dt)
    if noise_scale == 0.0:
        x_new = _horner(x, drift)
    else:
        # sqrt(2 max(D2, 0) dt) noise_scale noise, then the drift D1 dt
        # evaluated into the spent noise buffer
        x_new = _horner(x, _folded(sol.diffusion_coefs, t, 2.0 * alpha - 1.0, alpha, 2.0 * dt))
        np.maximum(x_new, 0.0, out=x_new)
        np.sqrt(x_new, out=x_new)
        if noise_scale != 1.0:
            x_new *= noise_scale
        noise = ens.rng.standard_normal(x.shape[0])
        x_new *= noise
        x_new += _horner(x, drift, out=noise)
    x_new += x

    lo, hi = boundary_positions(sol, t_new)
    mask = x_new < lo
    reflections = int(np.count_nonzero(mask))
    if reflections:
        np.subtract(2.0 * lo, x_new, out=x_new, where=mask)
    if math.isfinite(hi):
        np.greater(x_new, hi, out=mask)
        above = int(np.count_nonzero(mask))
        if above:
            np.subtract(2.0 * hi, x_new, out=x_new, where=mask)
            reflections += above
    if x_new.size and (x_new.min() < lo or x_new.max() > hi):
        n_out = int(np.count_nonzero((x_new < lo) | (x_new > hi)))
        raise StepSizeError(
            f"{n_out} paths crossed both boundaries in one "
            f"step of dt={dt!r}; reduce the step size"
        )
    return replace(
        ens, positions=x_new, t=t_new, n_reflections=ens.n_reflections + reflections
    )


def propagate(
    ens: PathEnsemble,
    sol: SimilaritySolution,
    t_end: float,
    *,
    dt_max: float = 1e-3,
    boundary_motion_fraction: float = 0.1,
) -> PathEnsemble:
    """March the ensemble to ``t_end`` in substeps.

    Substeps are capped so the boundary moves by less than
    ``boundary_motion_fraction`` of the domain width per step, on top of the
    ``dt_max`` accuracy cap.  Half-line domains are measured up to where
    the analytic tail mass falls below 1e-6.
    """
    if t_end <= ens.t:
        raise ValueError("t_end must exceed the ensemble time")
    alpha = sol.alpha
    z_lo, z_hi = sol.profile.z_lo, effective_upper(sol, tail_mass=1e-6)
    reduced_speed = max(abs(alpha * z_lo), abs(alpha * z_hi))
    while ens.t < t_end - 1e-15 * t_end:
        t_alpha = ens.t**alpha
        width = z_hi * t_alpha - z_lo * t_alpha
        speed = reduced_speed * ens.t ** (alpha - 1.0)
        dt = dt_max if speed == 0.0 else min(dt_max, boundary_motion_fraction * width / speed)
        dt = min(dt, t_end - ens.t)
        ens = step_ensemble(ens, sol, dt)
    return ens


def _binned_densities(
    ens: PathEnsemble, sol: SimilaritySolution, n_bins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin edges, empirical bin-averaged density, analytic bin-averaged density."""
    if n_bins < 10:
        raise ValueError("need at least 10 bins")
    if ens.positions.size == 0:
        raise ValueError("empty ensemble")
    lo, hi = boundary_positions(sol, ens.t)
    if math.isinf(hi):
        hi = effective_upper(sol, tail_mass=1e-9) * ens.t**sol.alpha
    edges = np.linspace(lo, hi, n_bins + 1)
    width = edges[1] - edges[0]
    counts, _ = np.histogram(ens.positions, bins=edges)
    empirical = counts / (ens.positions.size * width)

    # analytic bin masses from a fine trapezoid table of the reduced density
    t_alpha = ens.t**sol.alpha
    z_tab, cdf = _cdf_table(sol)
    cdf_at_edges = np.interp(edges / t_alpha, z_tab, cdf, left=0.0, right=1.0)
    analytic = np.diff(cdf_at_edges) / width
    return edges, empirical, analytic


def histogram_table(
    ens: PathEnsemble, sol: SimilaritySolution, n_bins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin centers, empirical bin-averaged density, analytic bin-averaged density.

    Bins span the instantaneous domain (half-line domains truncated where
    the analytic tail mass is negligible).
    """
    edges, empirical, analytic = _binned_densities(ens, sol, n_bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, empirical, analytic


def histogram_distance(ens: PathEnsemble, sol: SimilaritySolution, n_bins: int) -> float:
    """L1 distance between bin-averaged empirical and analytic densities."""
    edges, empirical, analytic = _binned_densities(ens, sol, n_bins)
    # linspace puts both end edges exactly on the domain ends
    width = (edges[-1] - edges[0]) / n_bins
    return float(np.abs(empirical - analytic).sum() * width)
