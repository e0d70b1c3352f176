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
    _log_y,
    coefficients,
    density,
    effective_upper,
    reduced_density,
    rho2,
    truncated_positions,
)

__all__ = [
    "ZGrid",
    "FieldOnGrid",
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
]


@dataclass(frozen=True)
class ZGrid:
    """Uniform cell-centered grid on a finite reduced interval."""

    z_lo: float
    z_hi: float
    n_cells: int
    faces: np.ndarray = field(init=False, repr=False)
    centers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.z_lo) and math.isfinite(self.z_hi)):
            raise ValueError("grid endpoints must be finite")
        if not self.z_lo < self.z_hi:
            raise ValueError(f"need z_lo < z_hi, got [{self.z_lo!r}, {self.z_hi!r}]")
        if self.n_cells < 3:
            raise ValueError("need at least 3 cells")
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


@dataclass(frozen=True)
class FieldOnGrid:
    """Cell densities at logarithmic time s = ln t."""

    values: np.ndarray
    time_s: float

    def mass(self, grid: ZGrid) -> float:
        return float(self.values.sum() * grid.h)


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

    ``coeff_right[j]`` / ``coeff_left[j]`` scale the right / left cell value
    in the flux through face j, so F_j = h (coeff_right[j] u_j -
    coeff_left[j] u_{j-1}); boundary faces carry zeros.
    """

    grid: ZGrid
    coeff_right: np.ndarray
    coeff_left: np.ndarray

    @property
    def lower(self) -> np.ndarray:
        return self.coeff_left[: self.grid.n_cells]

    @property
    def diag(self) -> np.ndarray:
        n = self.grid.n_cells
        return -(self.coeff_left[1 : n + 1] + self.coeff_right[:n])

    @property
    def upper(self) -> np.ndarray:
        return self.coeff_right[1 : self.grid.n_cells + 1]

    def apply(self, u: np.ndarray) -> np.ndarray:
        """du/ds as the difference of the face fluxes, which telescope."""
        return np.diff(self.face_flux(u)) / self.grid.h

    def face_flux(self, u: np.ndarray) -> np.ndarray:
        """Numerical flux at every face (identically zero at the boundary faces)."""
        h = self.grid.h
        flux = np.zeros(self.grid.n_cells + 1)
        flux[1:-1] = h * (self.coeff_right[1:-1] * u[1:] - self.coeff_left[1:-1] * u[:-1])
        return flux


def transformed_operator(sol: SimilaritySolution, grid: ZGrid) -> DiscreteOperator:
    """Assemble the finite-volume operator for a solution on its grid.

    The face flux is F = (rho2' - q) u + rho2 u'.  Face conductances use the
    diffusion rho2 at the face, evaluated from ``sol.diffusion_coefs``; the
    exponential weights use the Peclet number integrated across the face's
    cell-center interval.  The drift to diffusion ratio
    (rho2' - q) / rho2 is -f = -(log y)', so that integral is exactly
    log y(c_j) - log y(c_{j+1}), which stays accurate where the ratio
    varies fast across a cell, next to the degenerate-diffusion endpoints.
    The two boundary faces are hard-set to zero flux rather than evaluated,
    which matches the impenetrable-boundary condition exactly and avoids
    0/0 in the fitting where rho2 degenerates.
    """
    if abs(grid.z_lo - sol.z_lo) > 1e-12 * max(1.0, abs(sol.z_lo)):
        raise ValueError("grid does not start at the domain's lower endpoint")
    if not math.isinf(sol.z_hi) and abs(grid.z_hi - sol.z_hi) > 1e-12 * max(1.0, abs(sol.z_hi)):
        raise ValueError("grid does not end at the domain's upper endpoint")
    if math.isinf(sol.z_hi) and grid.z_hi <= grid.z_lo + 10 * grid.h:
        raise ValueError("truncated grid is too short for the half-line domain")

    n = grid.n_cells
    d_face = rho2(sol, grid.faces[1:-1])
    if not np.all(d_face > 0.0):  # NaN fails too
        raise ValueError("diffusion profile must be positive at interior faces")

    log_y_centers = _log_y(sol, grid.centers)
    peclet = log_y_centers[:-1] - log_y_centers[1:]
    coeff_right = np.zeros(n + 1)
    coeff_left = np.zeros(n + 1)
    coeff_right[1:-1] = d_face * _bernoulli(-peclet) / grid.h**2
    coeff_left[1:-1] = d_face * _bernoulli(peclet) / grid.h**2
    return DiscreteOperator(grid=grid, coeff_right=coeff_right, coeff_left=coeff_left)


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
    global once per step size, so that perfbench's tracer can rebind it to
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
    u0: FieldOnGrid,
    s_end: float,
    ds: float,
    *,
    on_step: Callable[[float, float, np.ndarray], None] | None = None,
) -> FieldOnGrid:
    """Implicit-Euler evolution of ``u0`` up to logarithmic time ``s_end``.

    Each step solves (I - ds L) u_new = u_old.  A step whose relative mass
    drift exceeds ``0.1 * MASS_DRIFT_TOL`` gets one pass of iterative
    refinement in double, its residual taken in flux form
    (``DiscreteOperator.apply``); a drift beyond ``MASS_DRIFT_TOL`` after
    it, or a negative cell value, aborts with an error since both indicate
    a misconfigured operator.  The face fluxes telescope, so no column-sum
    defect of the double assembly enters the residual's sum and no
    extended precision is needed.  ``on_step`` receives (s, mass, values)
    after every step, in order, with each step's own array.

    The steps run in blocks of plain solves whose masses and minima are
    taken in one reduction each.  A block keeps every step up to the first
    whose drift needs refinement; that step is refined from its plain solve
    and the next block starts from it.  Blocks start at one step and double
    after a block without refinement, so stiff runs, which refine most
    steps, solve little more than step by step.  Steps, masses, errors and
    the final field are those of refining step by step, to the bit.
    """
    if not 0.0 < ds < math.inf:
        raise ValueError(f"need a finite ds > 0, got {ds!r}")
    if not math.isfinite(s_end):
        raise ValueError(f"need a finite s_end, got {s_end!r}")
    if s_end < u0.time_s:
        raise ValueError("s_end lies before the initial time")
    u = np.asarray(u0.values, dtype=float).copy()
    if u.shape != (op.grid.n_cells,):
        raise ValueError("field does not match the grid")
    if not np.all(u >= 0.0):  # NaN fails too
        raise ValueError("initial field must be non-negative")

    s = u0.time_s
    remaining = s_end - s
    n_full = int(math.floor(remaining / ds + 1e-12))
    tail = remaining - n_full * ds
    plan: list[tuple[float, int]] = []
    if n_full:
        plan.append((ds, n_full))
    if tail > 1e-12 * max(1.0, abs(s_end)):
        plan.append((tail, 1))

    n = op.grid.n_cells
    h = op.grid.h
    lower, diag, upper = op.lower[1:], op.diag, op.upper[:-1]
    mass_before = u.sum() * h

    for step_ds, count in plan:
        lu = splu(-step_ds * lower, 1.0 - step_ds * diag, -step_ds * upper)
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
                    v += lu.solve(u - v + step_ds * op.apply(v))
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
                s += step_ds
                count -= 1
                if on_step is not None:
                    on_step(s, mass_after, u)
                if refined:
                    break
            size = 1 if refined else min(2 * size, max_size)
    return FieldOnGrid(values=u, time_s=s_end)


def stationary_field(sol: SimilaritySolution, grid: ZGrid) -> FieldOnGrid:
    """Analytic reduced density sampled at cell centers."""
    return FieldOnGrid(values=reduced_density(sol, grid.centers), time_s=0.0)


def uniform_field(grid: ZGrid) -> FieldOnGrid:
    """Unit-mass uniform initial condition."""
    values = np.full(grid.n_cells, 1.0 / (grid.z_hi - grid.z_lo))
    return FieldOnGrid(values=values, time_s=0.0)


def l1_distance(a: np.ndarray, b: np.ndarray, grid: ZGrid) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).sum() * grid.h)


def fpe_residual_at(sol: SimilaritySolution, x, t: float, h: float, dt: float):
    """Central-difference residual of the forward equation at x (a point or an array).

    R = d_t W + d_x (D1 W) - d_xx (D2 W), all derivatives second-order
    central on the analytic density; O(h^2 + dt^2) at interior points.
    The coefficients and the density are evaluated once on the stacked
    stencil [x - h, x, x + h].
    """
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
    out = dw_dt + d_flux1 - d2_flux2
    return float(out) if out.ndim == 0 else out


def probe_window(sol: SimilaritySolution, t: float, h: float, dt: float) -> tuple[float, float]:
    """Interval staying strictly inside the moving domain for t-dt..t+dt."""
    for name, value in (("h", h), ("dt", dt)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"need a finite {name} > 0, got {value!r}")
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

