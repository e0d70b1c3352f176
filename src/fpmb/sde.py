"""Monte Carlo verification channel: paths of the Ito process

    dX = D1(X, t) dt + sqrt(2 D2(X, t)) dB

with mirror reflection at the instantaneous domain endpoints.  Under the
Ito convention with noise amplitude sqrt(2 D2), the forward equation for
the path density is exactly the one the analytic models solve (diffusion
inside two derivatives), so histograms of a propagated ensemble must
converge to the analytic density at the usual 1/sqrt(N) rate.  Reflection
realizes the zero-flux boundaries at path level: no particle is ever
absorbed or created.

Paths are stepped in the reduced coordinates Z = X / t^alpha, s = ln t,
where Ito's formula gives the time-homogeneous process

    dZ = q(Z) ds + sqrt(2 rho2(Z)) dB_s

on the static interval [z_lo, z_hi], with q = rho1 - alpha z the reduced
drift that ``sol.drift_coefs`` holds: alpha enters only through the map
back to x.  Both profiles are quadratics, so a step is two Horner forms
over the ensemble: the variance 2 rho2 ds, and Z plus the drift q ds.  The
increment is that of the simplified weak Euler scheme (Kloeden & Platen,
"Numerical Solution of SDEs", 1992, section 14.1): sqrt(2 rho2 ds) times a
sign of +-1, one bit of the generator's raw stream per path, in place of a
Gaussian draw.  It has the Gaussian's mean and variance, so the scheme
keeps weak order 1, and every check on the paths is a check of their law.
Reflection mirrors at the fixed endpoints.  Near an endpoint rho2 vanishes
linearly while the drift points inward, so a bounded increment leaves a
path inside to first order in ds: on ``propagate``'s default grid no path
reflects, and the mirror acts only on coarse steps.  A step that mirrors a
path beyond the other endpoint (on a half line, beyond the truncation cut)
is rejected.  Positions are mapped back as z t^alpha, the product
``boundary_positions`` forms, so every returned path lies in the domain at
its time.

The ensemble is cut into chunks of ``CHUNK_PATHS`` paths.  Each chunk gets
its own generator from ``ens.rng.spawn`` and is advanced over the whole
time grid in place, with buffers small enough to stay in cache; chunks run
on a thread pool as large as the CPUs the process may use (numpy releases
the GIL in the generator and the ufuncs).  Results depend on the seed and
the chunk size, never on the number of threads.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .solutions import (
    SimilaritySolution,
    effective_upper,
    reduced_density,
    truncated_positions,
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

CHUNK_PATHS = 2**15


class StepSizeError(ValueError):
    """A step was so large that a particle would cross both boundaries, or,
    on a half line, be mirrored beyond the truncation cut."""


@dataclass(frozen=True)
class PathEnsemble:
    """Particle positions at a common time, plus reflection bookkeeping.

    The generator is stream state shared across the functional updates;
    the seed ``init_ensemble`` starts it from makes the whole trajectory
    reproducible bit for bit.
    """

    positions: np.ndarray
    t: float
    n_reflections: int
    rng: np.random.Generator = field(repr=False)


_CDF_TABLE_POINTS = 10_001


@functools.lru_cache(maxsize=64)
def _cdf_table(sol: SimilaritySolution) -> tuple[np.ndarray, np.ndarray]:
    z = np.linspace(sol.z_lo, effective_upper(sol), _CDF_TABLE_POINTS)
    y = reduced_density(sol, z)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(z))])
    cdf /= cdf[-1]
    return z, cdf


def _require(name: str, value: float) -> float:
    """``value`` as a float if finite and > 0; else ValueError."""
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"need a finite positive {name}, got {value!r}")
    return value


def init_ensemble(
    sol: SimilaritySolution, n_paths: int, t0: float, seed: int
) -> PathEnsemble:
    """Ensemble drawn from the analytic density at t0 by inverse-CDF sampling.

    The uniforms are drawn and mapped ``CHUNK_PATHS`` at a time, so memory
    peaks at one ensemble plus a few chunks.  The generator hands out its
    stream in order, and each uniform maps to its position whatever the
    order it is looked up in, so the positions are those of one full-size
    draw, to the bit.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"need a non-negative integer seed, got {seed!r}")
    t0 = _require("t0", t0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z_tab, cdf = _cdf_table(sol)
    z = np.empty(n_paths)
    for start in range(0, n_paths, CHUNK_PATHS):
        chunk = z[start : start + CHUNK_PATHS]
        u = rng.uniform(size=chunk.size)
        # sorted queries let np.interp start each search at the last knot
        o = np.argsort(u)
        u = u[o]
        chunk[o] = np.interp(u, cdf, z_tab)
    z *= t0**sol.alpha
    return PathEnsemble(positions=z, t=t0, n_reflections=0, rng=rng)


def _horner(x: np.ndarray, c0: float, c1: float, c2: float, out: np.ndarray) -> np.ndarray:
    """c0 + x (c1 + x c2), built in place in ``out``."""
    np.multiply(x, c2, out=out)
    out += c1
    out *= x
    out += c0
    return out


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _crossed_both(ds: float) -> StepSizeError:
    return StepSizeError(
        f"a path crossed both boundaries in one step of log-time ds={ds!r}; "
        "reduce the step size"
    )


def _advance(
    z: np.ndarray,
    rng: np.random.Generator,
    log_steps: list[float],
    drift: tuple[float, float, float],
    variance: tuple[float, float, float],
    z_lo: float,
    z_hi: float,
    z_cut: float,
) -> int:
    """Step one chunk of reduced positions in place; return its reflections.

    ``drift`` holds the ascending coefficients of q(z) and ``variance``
    those of 2 rho2(z).  Each step of log-time ``ds`` folds ds (and the
    identity, for the drift) into the Horner coefficients, and moves each
    path by sqrt(2 rho2 ds) with a sign from one bit of ``rng``'s raw
    stream: ceil(m / 64) words per step for m paths, bit k of their
    little-endian bytes for path k, 1 meaning +1.  A path mirrored at
    ``z_lo`` must land at or below ``z_cut``: ``z_hi`` on a finite domain,
    the truncation cut on a half line.
    """
    d0, d1, d2 = drift
    v0, v1, v2 = variance
    work = np.empty_like(z)
    noise = np.empty_like(z)
    mask = np.empty(z.shape, dtype=bool)
    n_words = -(-z.size // 64)
    reflections = 0
    for ds in log_steps:
        _horner(z, v0 * ds, v1 * ds, v2 * ds, work)
        np.maximum(work, 0.0, out=work)
        np.sqrt(work, out=work)
        raw = rng.bit_generator.random_raw(n_words).astype("<u8", copy=False)
        np.copyto(noise, np.unpackbits(raw.view(np.uint8), count=z.size, bitorder="little"))
        # bits minus a half carry the signs; the amplitude is >= 0
        noise -= 0.5
        np.copysign(work, noise, out=work)
        # noise is spent: z + q ds goes into it
        np.add(_horner(z, d0 * ds, 1.0 + d1 * ds, d2 * ds, noise), work, out=z)
        # each path is mirrored at most once: an image beyond the other
        # endpoint (the cut, on a half line) means the step crossed both.
        # Both tests fail on NaN, and a NaN position makes the minimum NaN
        z_min = z.min()
        if not z_min >= z_lo:
            if math.isnan(z_min):
                raise RuntimeError(f"a path position became NaN in a step of log-time ds={ds!r}")
            np.less(z, z_lo, out=mask)
            reflections += int(np.count_nonzero(mask))
            np.subtract(2.0 * z_lo, z, out=z, where=mask)
            if np.max(z, where=mask, initial=-math.inf) > z_cut:
                raise _crossed_both(ds)
        if not z.max() <= z_hi:
            np.greater(z, z_hi, out=mask)
            reflections += int(np.count_nonzero(mask))
            np.subtract(2.0 * z_hi, z, out=z, where=mask)
            if np.min(z, where=mask, initial=math.inf) < z_lo:
                raise _crossed_both(ds)
    return reflections


def _march(ens: PathEnsemble, sol: SimilaritySolution, times: list[float]) -> PathEnsemble:
    """Advance the ensemble over the time grid ``times`` (``times[0] == ens.t``)."""
    alpha = sol.alpha
    log_steps = [math.log(b / a) for a, b in zip(times, times[1:])]
    variance = tuple(2.0 * c for c in sol.diffusion_coefs)
    z_cut = effective_upper(sol)

    z = ens.positions / ens.t**alpha
    n_chunks = -(-z.size // CHUNK_PATHS)
    rngs = ens.rng.spawn(n_chunks)

    def run(k: int) -> int:
        chunk = z[k * CHUNK_PATHS : (k + 1) * CHUNK_PATHS]
        return _advance(chunk, rngs[k], log_steps, sol.drift_coefs, variance,
                        sol.z_lo, sol.z_hi, z_cut)

    workers = min(_worker_count(), n_chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reflections = sum(pool.map(run, range(n_chunks)))
    else:
        reflections = sum(map(run, range(n_chunks)))
    t_end = times[-1]
    z *= t_end**alpha
    return replace(
        ens, positions=z, t=t_end, n_reflections=ens.n_reflections + reflections
    )


def step_ensemble(ens: PathEnsemble, sol: SimilaritySolution, dt: float) -> PathEnsemble:
    """One weak Euler step from ``ens.t`` to ``ens.t + dt``, with reflection.

    The step is taken in the reduced coordinates over ds = ln((t + dt) / t).
    Positions are taken to lie in the closed domain at ``ens.t``, as every
    ensemble from ``init_ensemble``, ``step_ensemble`` and ``propagate``
    does.
    """
    t = _require("ensemble time t", ens.t)
    dt = _require("dt", dt)
    return _march(ens, sol, [t, t + dt])


def propagate(
    ens: PathEnsemble, sol: SimilaritySolution, t_end: float, *, dt_max: float = 1e-3
) -> PathEnsemble:
    """March the ensemble to ``t_end`` in substeps.

    Substeps are capped at ``dt_max`` and so that the boundary moves by
    less than a tenth of the domain width per step.  Width and boundary
    speed both scale as t^alpha / t, so that cap is a fixed relative step
    dt <= c t, with c from the reduced domain (a half line measured up to
    ``effective_upper``).  The whole grid is built first, then every chunk
    of paths runs over it in log-time.
    """
    t = _require("ensemble time t", ens.t)
    t_end = _require("t_end", t_end)
    dt_max = _require("dt_max", dt_max)
    if t_end <= t:
        raise ValueError("t_end must exceed the ensemble time")
    z_lo, z_hi = sol.z_lo, effective_upper(sol)
    reduced_speed = max(abs(sol.alpha * z_lo), abs(sol.alpha * z_hi))
    c = math.inf if reduced_speed == 0.0 else 0.1 * (z_hi - z_lo) / reduced_speed
    times = [t]
    while t < t_end - 1e-15 * t_end:
        t += min(dt_max, c * t, t_end - t)
        times.append(t)
    return _march(ens, sol, times)


def _binned_densities(
    ens: PathEnsemble, sol: SimilaritySolution, n_bins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin edges, empirical bin-averaged density, analytic bin-averaged density."""
    if n_bins < 10:
        raise ValueError("need at least 10 bins")
    if ens.positions.size == 0:
        raise ValueError("empty ensemble")
    lo, hi = truncated_positions(sol, ens.t)
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
