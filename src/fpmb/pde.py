"""Fixed-domain PDE verification channel.

Substituting W = t^{-alpha} u(z, s) with z = x / t^alpha and s = ln t turns
the moving-boundary forward equation into a conservation law on a static
interval,

    du/ds = d/dz [ -q u + d/dz (rho2 u) ],

with q = rho1 - alpha z = f rho2 + rho2' the reduced drift, which does
not depend on alpha; its stationary state is the reduced density y (the
zero-flux first integral).  The flux F = (rho2' - q) u + rho2 u' is
discretized in finite-volume form with exponentially fitted
(Chang-Cooper / Scharfetter-Gummel type) face weights, zero flux hard-set
at the two boundary faces, and implicit Euler stepping in s.  The drift
to diffusion ratio (rho2' - q) / rho2 is exactly -f = -y'/y, so the
Peclet number integrated across a face is a difference of log y and needs
no quadrature.  Evolution must conserve mass to roundoff and
relax onto y; that is the verification.

``transformed_operator(sol, n_cells)`` builds its grid with ``make_grid``
and stores the two weights of each of the n - 1 interior faces, which are
the off-diagonals of the tridiagonal operator.  A field is a plain array
of cell values.  ``evolve`` takes a whole number of steps from s = 0 with
one factorization and returns the final values with the worst one-step
relative mass drift it measured.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np
# the implicit steps use LAPACK's tridiagonal solver, taken from scipy's
# _flapack extension on first use without importing scipy.linalg (see
# ``_tridiagonal_lapack``).  The bare package stays imported so that its
# version is readable from sys.modules (perfbench)
import scipy

from .solutions import (
    SimilaritySolution,
    _count,
    _log_y,
    _positive,
    _value,
    coefficients,
    density,
    effective_upper,
    reduced_density,
    rho2,
    truncated_positions,
)

__all__ = [
    "ZGrid",
    "DiscreteOperator",
    "make_grid",
    "transformed_operator",
    "evolve",
    "stationary_field",
    "uniform_field",
    "l1_distance",
    "fpe_residual_at",
    "probe_window",
    "MASS_DRIFT_TOL",
    "MIN_CELLS",
]

MIN_CELLS = 3  # fewest cells of a grid, on every domain


@dataclass(frozen=True)
class ZGrid:
    """Uniform cell-centered grid on a finite reduced interval; grids
    compare by their endpoints and cell count."""

    z_lo: float
    z_hi: float
    n_cells: int
    faces: np.ndarray = field(init=False, repr=False, compare=False)
    centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.z_lo) and math.isfinite(self.z_hi)):
            raise ValueError("grid endpoints must be finite")
        if not self.z_lo < self.z_hi:
            raise ValueError(f"need z_lo < z_hi, got [{self.z_lo!r}, {self.z_hi!r}]")
        _count("n_cells", self.n_cells, MIN_CELLS)
        faces = np.linspace(self.z_lo, self.z_hi, self.n_cells + 1)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "centers", 0.5 * (faces[:-1] + faces[1:]))

    @property
    def h(self) -> float:
        return (self.z_hi - self.z_lo) / self.n_cells


def make_grid(sol: SimilaritySolution, n_cells: int) -> ZGrid:
    """Grid covering the reduced domain.

    Half-line domains end at ``effective_upper``, where the analytic tail
    mass beyond the last face drops below ``TAIL_MASS``; zero flux is then
    applied at the truncation face.
    """
    return ZGrid(sol.z_lo, effective_upper(sol), n_cells)


def _bernoulli(x: np.ndarray) -> np.ndarray:
    """B(x) = x / (e^x - 1), the exponential-fitting weight."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-10
    out[small] = 1.0 - 0.5 * x[small]
    big = x > 700.0
    out[big] = 0.0
    rest = ~(small | big)
    out[rest] = x[rest] / np.expm1(x[rest])
    return out


@dataclass(frozen=True)
class DiscreteOperator:
    """Tridiagonal action u -> du/ds of the transformed conservation law.

    ``lower`` and ``upper`` hold n - 1 entries, one per interior face: the
    flux through the face between cells i and i + 1 is
    h (upper[i] u_{i+1} - lower[i] u_i), and the two boundary faces carry
    zero flux.  They are the sub- and super-diagonal of the matrix as they
    stand; ``diag`` is built from them, so each column sums to zero up to
    rounding.
    """

    grid: ZGrid
    lower: np.ndarray
    upper: np.ndarray

    @property
    def diag(self) -> np.ndarray:
        return -(np.append(self.lower, 0.0) + np.append(0.0, self.upper))

    def apply(self, u: np.ndarray) -> np.ndarray:
        """du/ds as the difference of the face fluxes, which telescope."""
        return np.diff(self.face_flux(u)) / self.grid.h

    def face_flux(self, u: np.ndarray) -> np.ndarray:
        """Numerical flux at every face (identically zero at the boundary faces)."""
        flux = np.zeros(self.grid.n_cells + 1)
        flux[1:-1] = self.grid.h * (self.upper * u[1:] - self.lower * u[:-1])
        return flux


def transformed_operator(sol: SimilaritySolution, n_cells: int) -> DiscreteOperator:
    """Assemble the finite-volume operator for a solution on ``make_grid(sol, n_cells)``.

    The operator carries that grid as ``op.grid``.  The face flux is
    F = (rho2' - q) u + rho2 u'.  Face conductances use the diffusion rho2
    at the face, evaluated from ``sol.diffusion_coefs``; the exponential
    weights use the Peclet number integrated across the face's cell-center
    interval.  The drift to diffusion ratio (rho2' - q) / rho2 is
    -f = -(log y)', so that integral is exactly log y(c_i) - log y(c_{i+1}),
    which stays accurate where the ratio varies fast across a cell, next to
    the degenerate-diffusion endpoints.  Only interior faces get
    coefficients: the two boundary faces have zero flux, which matches the
    impenetrable-boundary condition exactly and avoids 0/0 in the fitting
    where rho2 degenerates.
    """
    grid = make_grid(sol, n_cells)
    d_face = rho2(sol, grid.faces[1:-1])
    if not np.all(d_face > 0.0):  # NaN fails too
        raise ValueError("diffusion profile must be positive at interior faces")

    log_y_centers = _log_y(sol, grid.centers)
    peclet = log_y_centers[:-1] - log_y_centers[1:]
    lower = d_face * _bernoulli(peclet) / grid.h**2
    upper = d_face * _bernoulli(-peclet) / grid.h**2
    return DiscreteOperator(grid, lower, upper)


# largest relative mass change one implicit step may make; also the bound of
# the pde_mass_drift check
MASS_DRIFT_TOL = 1e-12


def _load_flapack():
    """scipy's ``_flapack`` extension, loaded from its file.

    The module is named ``fpmb.pde._flapack``, since an extension's init
    symbol follows the last component of its name.  Only that private name
    enters ``sys.modules``, so scipy.linalg, imported later or not at all,
    loads its own copy.
    """
    base = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.exists(base + suffix):
            spec = importlib.util.spec_from_file_location(f"{__name__}._flapack", base + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no _flapack extension at {base}")


@functools.cache
def _tridiagonal_lapack():
    """LAPACK's (dgttrf, dgttrs), from ``_load_flapack``, or from
    scipy.linalg.lapack if that fails in any way.

    Importing scipy.linalg would load its whole package, numpy.f2py
    included, for two routines: with scipy 1.17 that is about 25 MiB of
    resident memory, against under 3 MiB for the extension alone.
    """
    try:
        flapack = _load_flapack()
        return flapack.dgttrf, flapack.dgttrs
    except Exception:
        from scipy.linalg.lapack import dgttrf, dgttrs

        return dgttrf, dgttrs


def splu(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> SimpleNamespace:
    """LU factorization of a tridiagonal step matrix, with ``.solve(rhs)``.

    LAPACK ``dgttrf`` factors once and ``dgttrs`` solves; both come from
    ``_tridiagonal_lapack``, loaded on the first factorization.  The name is
    kept from the sparse LU it replaced: ``evolve`` looks it up as a module
    global once per call, so that perfbench's tracer can rebind it to
    count factorizations and the solves of what it returns.
    """
    dgttrf, dgttrs = _tridiagonal_lapack()
    *factors, info = dgttrf(lower, diag, upper)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular step matrix (dgttrf info {info})")
    return SimpleNamespace(solve=lambda rhs: dgttrs(*factors, rhs)[0])


# most cell values in one block of plain implicit steps (about 128 kB): larger
# blocks cost more to allocate and fall out of cache before their reductions
_BLOCK_VALUES = 16_000


def evolve(
    op: DiscreteOperator,
    u0: np.ndarray,
    n_steps: int,
    ds: float,
    *,
    on_step: Callable[[float, float, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, float]:
    """Implicit-Euler evolution of the cell values ``u0`` over ``n_steps``
    steps of logarithmic time ``ds``, from s = 0.

    Returns the final cell values and the worst relative one-step mass
    drift |m_k - m_{k-1}| / m_{k-1}, each step's drift taken after its
    refinement.  Each step solves (I - ds L) u_new = u_old with the one
    factorization of the call.  A step whose drift exceeds
    ``0.1 * MASS_DRIFT_TOL`` gets one pass of iterative refinement in
    double, its residual taken in flux form (``DiscreteOperator.apply``); a
    drift beyond ``MASS_DRIFT_TOL`` after it, or a negative cell value,
    aborts with an error since both indicate a misconfigured operator.  The
    face fluxes telescope, so no column-sum defect of the double assembly
    enters the residual's sum and no extended precision is needed.
    ``on_step`` receives (s, mass, values) after every step, in order, with
    each step's own array.

    The steps run in blocks of plain solves whose masses and minima are
    taken in one reduction each.  A block keeps every step up to the first
    whose drift needs refinement; that step is refined from its plain solve
    and the next block starts from it.  Blocks start at one step and double
    after a block without refinement, so stiff runs, which refine most
    steps, solve little more than step by step.  Steps, masses, errors and
    the final field are those of refining step by step, to the bit.
    """
    ds = _positive("ds", ds)
    n_steps = _count("n_steps", n_steps, 1)
    u = np.asarray(u0, dtype=float).copy()
    if u.shape != (op.grid.n_cells,):
        raise ValueError("field does not match the grid")
    if not np.all(u >= 0.0):  # NaN fails too
        raise ValueError("initial field must be non-negative")

    n = op.grid.n_cells
    h = op.grid.h
    lu = splu(-ds * op.lower, 1.0 - ds * op.diag, -ds * op.upper)
    mass_before = u.sum() * h
    s = worst = 0.0
    count = n_steps
    size, max_size = 1, max(1, _BLOCK_VALUES // n)
    while count:
        # a fresh block per run of plain solves, since on_step callers may
        # keep rows; a run of one step, as in stiff runs, needs no copy
        if size == 1:
            block = lu.solve(u)[None]
        else:
            block = np.empty((min(size, count), n))
            prev = u
            for row in block:
                row[:] = prev = lu.solve(prev)
        masses = block.sum(axis=1) * h
        minima = None
        for k, (v, mass_after) in enumerate(zip(block, masses)):
            drift = abs(mass_after - mass_before) / max(abs(mass_before), 1e-300)
            refined = not drift <= 0.1 * MASS_DRIFT_TOL
            if refined:
                # refine this step from its plain solve; the rows after it
                # were solved from its unrefined value and are dropped
                v += lu.solve(u - v + ds * op.apply(v))
                mass_after = v.sum() * h
                drift = abs(mass_after - mass_before) / max(abs(mass_before), 1e-300)
                if not drift <= MASS_DRIFT_TOL:  # NaN fails too
                    raise RuntimeError(
                        f"mass drift {drift:.3e} exceeds {MASS_DRIFT_TOL} in one step"
                    )
                v_min = v.min()
            else:
                # taken once a kept step needs them: a block of one step
                # that refines never does
                if minima is None:
                    minima = block.min(axis=1)
                v_min = minima[k]
            # a non-negative minimum needs no maximum
            if v_min < 0.0 and v_min < -1e-12 * max(v.max(), 1e-300):
                raise RuntimeError("positivity violated; the operator is misconfigured")
            u = v
            mass_before = mass_after
            worst = max(worst, drift)
            s += ds
            count -= 1
            if on_step is not None:
                on_step(s, mass_after, u)
            if refined:
                break
        size = 1 if refined else min(2 * size, max_size)
    return u, float(worst)


def stationary_field(sol: SimilaritySolution, grid: ZGrid) -> np.ndarray:
    """Analytic reduced density sampled at cell centers."""
    return reduced_density(sol, grid.centers)


def uniform_field(grid: ZGrid) -> np.ndarray:
    """Unit-mass uniform initial condition."""
    return np.full(grid.n_cells, 1.0 / (grid.z_hi - grid.z_lo))


def l1_distance(a: np.ndarray, b: np.ndarray, grid: ZGrid) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).sum() * grid.h)


def fpe_residual_at(sol: SimilaritySolution, x, t: float, h: float, dt: float):
    """Central-difference residual of the forward equation at x (a point or an array).

    R = d_t W + d_x (D1 W) - d_xx (D2 W), all derivatives second-order
    central on the analytic density; O(h^2 + dt^2) at interior points.
    The coefficients and the density are evaluated once on the stacked
    stencil [x - h, x, x + h].
    """
    h, dt = _positive("h", h), _positive("dt", dt)
    if t - dt <= 0.0:
        raise ValueError("need t - dt > 0")
    x = np.asarray(x, dtype=float)
    stencil = np.stack([x - h, x, x + h])
    d1, d2 = coefficients(sol, stencil, t)
    w = density(sol, stencil, t)
    flux1, flux2 = d1 * w, d2 * w
    dw_dt = (density(sol, x, t + dt) - density(sol, x, t - dt)) / (2.0 * dt)
    d_flux1 = (flux1[2] - flux1[0]) / (2.0 * h)
    d2_flux2 = (flux2[2] - 2.0 * flux2[1] + flux2[0]) / h**2
    return _value(dw_dt + d_flux1 - d2_flux2)


def probe_window(sol: SimilaritySolution, t: float, h: float, dt: float) -> tuple[float, float]:
    """Interval staying strictly inside the moving domain for t-dt..t+dt."""
    h, dt = _positive("h", h), _positive("dt", dt)
    los, his = [], []
    for tt in (t - dt, t, t + dt):
        lo, hi = truncated_positions(sol, tt)
        los.append(lo)
        his.append(hi)
    lo = max(los)
    hi = min(his)
    # generous margin: near the degenerate endpoints the higher derivatives
    # grow fast and the stencil leaves its asymptotic regime
    margin = max(3.0 * h, 0.15 * (hi - lo))
    if lo + margin >= hi - margin:
        raise ValueError("probe steps too large for the domain at this time")
    return lo + margin, hi - margin

