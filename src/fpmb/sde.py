"""Monte Carlo verification channel: paths of the Ito process

    dX = D1(X, t) dt + sqrt(2 D2(X, t)) dB

inside the instantaneous domain.  Under the Ito convention with noise
amplitude sqrt(2 D2), the forward equation for the path density is exactly
the one the analytic models solve (diffusion inside two derivatives), so
histograms of a propagated ensemble must converge to the analytic density at
the usual 1/sqrt(N) rate.  No path is ever absorbed, created or mirrored:
the scheme's own flows keep every path in the domain.

Paths are stepped in the reduced coordinates Z = X / t^alpha, s = ln t,
where Ito's formula gives the time-homogeneous process

    dZ = q(Z) ds + sqrt(2 rho2(Z)) dB_s

on the static interval [z_lo, z_hi], with q = rho1 - alpha z the reduced
drift that ``sol.drift_coefs`` holds: alpha enters only through the map
back to x.  The process is split into the Stratonovich drift field
V0 = q - rho2'/2 and the diffusion field V1 = sqrt(2 rho2), and each step of
log-time ds is the Strang step

    exp(ds/2 V0) exp(sqrt(ds) xi V1) exp(ds/2 V0),

the Ninomiya-Victoir scheme (Appl. Math. Finance 15, 2008) for one Brownian
motion, which Alfonsi (Math. Comp. 79, 2010) applies to the same square-root
field.  Both flows are exact.  V0 is a quadratic, a Riccati field, so its
flow is a Moebius map; two consecutive half steps merge into one map.  With
rho2 = kappa ((z - m)^2 - R^2) and w = z - m, the flow of V1 solves
w'' = 2 kappa w: a path runs along a circle (kappa < 0) or a hyperbola
(kappa > 0) through the domain's endpoints, so it passes an endpoint as a
mirror would, with no test.  V0 points into the domain at both endpoints,
so its flow keeps every path inside too.  xi takes +-sqrt(1 + sqrt 6) with
probability 1/8 each and +-sqrt(1 - sqrt(2/3)) with probability 3/8 each,
from three bits of the generator's raw stream per path.  Its moments match
the Gaussian's up to the fifth, so the scheme has weak order 2 for smooth
fields (sqrt(rho2) is not smooth at an endpoint: fig2's a1 = 1/3 converges
more slowly), and every check on the paths is a check of their law.
``propagate`` takes k equal steps of log-time no longer than ``ds_max``
(``DS_MAX`` by default).  Positions are clamped to [z_lo, z_hi] once at the
end, which absorbs rounding, and mapped back as z t^alpha, the product
``boundary_positions`` forms, so every returned path lies in the domain at
its time.

The ensemble is cut into ceil(n / ``CHUNK_PATHS``) chunks whose sizes
differ by one path at most.  Each chunk gets its own generator from
``ens.rng.spawn``, is mapped into the output, advanced over the whole grid
and mapped back while it stays in cache.  The path state w = z - m is
stepped in ``PATH_DTYPE``, float32.  Its rounding, about 1e-7 of the
domain's width per step, lies far below the Monte Carlo noise of any
ensemble that fits in memory, and it takes half the bytes of float64, so
each numpy call moves twice the paths for the same cache.  The maps'
coefficients are formed in float64, and the positions are read and
written in float64, where the clamp and the map back to x act.  Chunks run
on a thread pool as large as the CPUs the process may use (numpy releases
the GIL in the generator and the ufuncs).  Results depend on the seed and
the number of paths, never on the number of threads.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
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
    "init_ensemble",
    "step_ensemble",
    "propagate",
    "histogram_table",
    "histogram_distance",
]

# most paths in one chunk: 256 kB of float32 path state
CHUNK_PATHS = 2**16
PATH_DTYPE = np.float32
# uniforms that init_ensemble draws and maps at a time, as many bytes in
# float64
DRAW_PATHS = 2**15
DS_MAX = 0.0075
MIN_BINS = 10  # fewest bins of a histogram

# xi: +-_XI[0] with probability 1/8 each, +-_XI[1] with 3/8 each, so that
# E xi^2 = 1 and E xi^4 = 3
_XI = (math.sqrt(1.0 + math.sqrt(6.0)), math.sqrt(1.0 - math.sqrt(2.0 / 3.0)))


@dataclass(frozen=True)
class PathEnsemble:
    """Particle positions at a common time.

    The generator is stream state shared across the functional updates;
    the seed ``init_ensemble`` starts it from makes the whole trajectory
    reproducible bit for bit.
    """

    positions: np.ndarray
    t: float
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

    The uniforms are drawn and mapped ``DRAW_PATHS`` at a time, so memory
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
    for start in range(0, n_paths, DRAW_PATHS):
        chunk = z[start : start + DRAW_PATHS]
        u = rng.uniform(size=chunk.size)
        # sorted queries let np.interp start each search at the last knot
        o = np.argsort(u)
        u = u[o]
        chunk[o] = np.interp(u, cdf, z_tab)
    z *= t0**sol.alpha
    return PathEnsemble(positions=z, t=t0, rng=rng)


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


_Moebius = tuple[float, float, float, float]


def _drift_map(a: float, b: float, c: float, h: float) -> _Moebius:
    """The flow over h of dw/ds = a + b w + c w^2, as w -> (A w + B) / (C w + D).

    With w = u / v the Riccati equation becomes linear, (u, v)' = G (u, v)
    with G = [[b/2, a], [-c, -b/2]], so (A, B, C, D) is exp(h G) up to a
    factor.  G^2 = delta I with delta = b^2/4 - a c, so exp(h G) is
    ch I + sh G; for delta > 0 it is divided by cosh(h sqrt(delta)), so
    that no entry overflows.
    """
    delta = 0.25 * b * b - a * c
    r = math.sqrt(abs(delta))
    if delta > 0.0:
        ch, sh = 1.0, math.tanh(h * r) / r
    elif delta < 0.0:
        ch, sh = math.cos(h * r), math.sin(h * r) / r
    else:
        ch, sh = 1.0, h
    return (ch + 0.5 * b * sh, a * sh, -c * sh, ch - 0.5 * b * sh)


def _moebius(p: _Moebius, x: np.ndarray, out: np.ndarray, den: np.ndarray) -> None:
    """out = (A x + B) / (C x + D); ``den`` is scratch, ``out`` may be ``x``."""
    a, b, c, d = p
    np.multiply(x, c, out=den)
    den += d
    np.multiply(x, a, out=out)
    out += b
    out /= den


def _advance(
    z: np.ndarray,
    rng: np.random.Generator,
    maps: list[_Moebius],
    m: float,
    kappa: float,
    r2: float,
    rotation: tuple[tuple[float, float], tuple[float, float]],
) -> None:
    """Step one chunk of reduced positions ``z`` in place by the split step.

    The path state is w = z - m in ``PATH_DTYPE``; ``z`` stays float64, is
    read at the start and written at the end, and holds a scratch buffer
    in between.  ``maps[0]`` is the first half drift step.  Each later map
    follows one flow of V1: the next two half drift steps merged, or, for
    the last, the final half step.  The flow of V1 is
    w C + sqrt(rho2 / |kappa|) S, with rho2 = kappa (w^2 - r2), where C and
    S are the cos and sin (cosh and sinh for kappa > 0) of
    xi sqrt(2 |kappa| ds); ``rotation`` holds (C large, C small) and
    (S large, S small), for |xi| large and small, with S for xi > 0.  Path
    k's xi comes from byte k of ``rng``'s raw stream, little-endian,
    ceil(n / 8) words per step for n paths: bit 0 set makes xi positive,
    and bits 1 and 2 both set make |xi| large.
    """
    n = z.size
    w = np.empty(n, PATH_DTYPE)
    amp = np.empty_like(w)
    coef = z.view(PATH_DTYPE)[:n]
    large = np.empty(n, dtype=bool)
    low = np.empty(n, dtype=np.uint8)
    n_words = -(-n // 8)
    # rho2 / |kappa| is (R - w)(R + w), or (w - R)(w + R) for kappa > 0, so
    # that the factor that vanishes at an endpoint keeps its digits.  With
    # r2 < 0 rho2 has no real root: for kappa > 0 it is w^2 + gap, for
    # kappa < 0 never positive
    root = math.sqrt(max(r2, 0.0))
    gap = max(-r2, 0.0) if kappa > 0.0 else 0.0
    # typed constants keep the byte-by-float products in PATH_DTYPE; S is
    # doubled to meet its sign as +-1/2
    f = w.dtype.type
    (c_large, c_small), (s_large, s_small) = rotation
    c_step, c_small = f(c_large - c_small), f(c_small)
    s_step, s_small = f(2.0 * (s_large - s_small)), f(2.0 * s_small)
    np.subtract(z, m, out=w)
    _moebius(maps[0], w, w, coef)
    for p in maps[1:]:
        raw = rng.bit_generator.random_raw(n_words).astype("<u8", copy=False)
        bits = raw.view(np.uint8)[:n]
        np.bitwise_and(bits, 6, out=low)
        np.equal(low, 6, out=large)
        # amp = sqrt(rho2 / |kappa|) S
        if kappa < 0.0:
            np.subtract(root, w, out=amp)
        else:
            np.subtract(w, root, out=amp)
        np.add(w, root, out=coef)
        amp *= coef
        if gap:
            amp += gap
        np.maximum(amp, 0.0, out=amp)
        np.sqrt(amp, out=amp)
        np.bitwise_and(bits, 1, out=low)
        np.subtract(low, f(0.5), out=coef)
        amp *= coef
        np.multiply(large, s_step, out=coef)
        coef += s_small
        amp *= coef
        np.multiply(large, c_step, out=coef)
        coef += c_small
        w *= coef
        w += amp
        _moebius(p, w, w, coef)
    # back to z in float64, which keeps m's digits
    np.add(w, m, out=z, dtype=z.dtype)


def _march(ens: PathEnsemble, sol: SimilaritySolution, t_end: float, k: int) -> PathEnsemble:
    """Advance the ensemble to ``t_end`` in k equal steps of log-time."""
    r0, r1, kappa = sol.diffusion_coefs
    if kappa == 0.0:
        raise ValueError("the split step needs a diffusion profile of degree two, "
                         f"got diffusion_coefs {sol.diffusion_coefs!r}")
    ds = math.log(t_end / ens.t) / k
    # rho2 = kappa ((z - m)^2 - r2); V0 = q - rho2'/2 in w = z - m
    m = -0.5 * r1 / kappa
    r2 = m * m - r0 / kappa
    q0, q1, q2 = sol.drift_coefs
    drift = (q0 + m * (q1 + m * q2), q1 + 2.0 * m * q2 - kappa, q2)
    half = _drift_map(*drift, 0.5 * ds)
    maps = [half] + [_drift_map(*drift, ds)] * (k - 1) + [half]
    omega = math.sqrt(2.0 * abs(kappa) * ds)
    cos, sin = (math.cos, math.sin) if kappa < 0.0 else (math.cosh, math.sinh)
    rotation = tuple((f(omega * _XI[0]), f(omega * _XI[1])) for f in (cos, sin))
    z_lo, z_hi = sol.z_lo, sol.z_hi
    scale_in, scale_out = ens.t**-sol.alpha, t_end**sol.alpha

    x = ens.positions
    out = np.empty_like(x)
    n_chunks = -(-x.size // CHUNK_PATHS)
    # chunk sizes differ by one path at most, and depend on x.size alone
    starts = [x.size * i // n_chunks for i in range(n_chunks)] + [x.size]
    rngs = ens.rng.spawn(n_chunks)
    # np.errstate does not reach pool threads: each chunk runs under the
    # caller's settings
    errors = np.geterr()

    def run(i: int) -> None:
        part = slice(starts[i], starts[i + 1])
        z = out[part]
        with np.errstate(**errors):
            np.multiply(x[part], scale_in, out=z)
            _advance(z, rngs[i], maps, m, kappa, r2, rotation)
            # rounding can leave a path an ulp outside; NaN only from the input
            np.clip(z, z_lo, z_hi, out=z)
            if math.isnan(z.min()):
                raise RuntimeError("a path position became NaN")
            z *= scale_out

    workers = min(_worker_count(), n_chunks)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(n_chunks)))
    else:
        for i in range(n_chunks):
            run(i)
    return replace(ens, positions=out, t=t_end)


def step_ensemble(ens: PathEnsemble, sol: SimilaritySolution, dt: float) -> PathEnsemble:
    """One split step from ``ens.t`` to ``ens.t + dt``.

    The step is taken in the reduced coordinates over ds = ln((t + dt) / t).
    """
    t = _require("ensemble time t", ens.t)
    dt = _require("dt", dt)
    return _march(ens, sol, t + dt, 1)


def propagate(
    ens: PathEnsemble, sol: SimilaritySolution, t_end: float, *, ds_max: float = DS_MAX
) -> PathEnsemble:
    """March the ensemble to ``t_end`` by the split step.

    The grid is uniform in log-time: k = ceil(ln(t_end / t) / ds_max) equal
    steps.  The step's flows keep every path in the domain whatever ds is,
    so ds_max bounds only the bias, which is of order ds^2.
    """
    t = _require("ensemble time t", ens.t)
    t_end = _require("t_end", t_end)
    ds_max = _require("ds_max", ds_max)
    if t_end <= t:
        raise ValueError("t_end must exceed the ensemble time")
    return _march(ens, sol, t_end, math.ceil(math.log(t_end / t) / ds_max))


def _binned_densities(
    ens: PathEnsemble, sol: SimilaritySolution, n_bins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin edges, empirical bin-averaged density, analytic bin-averaged density."""
    if n_bins < MIN_BINS:
        raise ValueError(f"need at least {MIN_BINS} bins")
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
