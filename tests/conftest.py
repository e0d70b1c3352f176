import heapq
import math

import numpy as np
import pytest

from fpmb import PRESETS, ClassI, ClassII, ClassIII, build_solution, preset_solution
from fpmb.specfun import QuadratureResult, kummer_1f1, ln_beta, ln_gamma, whittaker_w


@pytest.fixture(scope="session")
def built_presets():
    """Every named preset built once for the whole run."""
    return {name: preset_solution(name) for name in PRESETS}


@pytest.fixture(scope="session")
def random_models():
    """20 admissible parameter sets per family, fixed seed."""
    rng = np.random.default_rng(20260808)
    models = []
    for _ in range(20):
        alpha = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
        z1 = rng.uniform(-3.0, 2.0)
        models.append(build_solution(alpha, ClassI(
            z1=z1, z2=z1 + rng.uniform(0.5, 4.0),
            a1=rng.uniform(0.4, 4.0), a2=rng.uniform(0.4, 4.0))))
    for _ in range(20):
        alpha = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
        models.append(build_solution(alpha, ClassII(
            z2=rng.uniform(0.5, 5.0), a1=rng.uniform(0.4, 4.0),
            a2=rng.uniform(0.4, 4.0), beta=rng.uniform(-3.0, 3.0))))
    for _ in range(20):
        alpha = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
        models.append(build_solution(alpha, ClassIII(
            z1=rng.uniform(0.0, 2.0), a1=rng.uniform(0.4, 4.0),
            a2=rng.uniform(0.4, 4.0), beta=rng.uniform(0.3, 3.0))))
    return models


def _transcribed_profiles(alpha, params):
    """(rho1, rho2) coefficients in ascending powers of z, as `fpmb info` prints them."""
    a1, a2 = params.a1, params.a2
    if isinstance(params, ClassI):
        z1, z2 = params.z1, params.z2
        return (((a1 + 1.0) * z2 + (a2 + 1.0) * z1, alpha - a1 - a2 - 2.0, 0.0),
                (-z1 * z2, z1 + z2, -1.0))
    if isinstance(params, ClassII):
        z2, beta = params.z2, params.beta
        return (((a1 + 1.0) * z2, alpha - a1 - a2 - 2.0 + beta * z2, -beta),
                (0.0, z2, -1.0))
    z1, beta = params.z1, params.beta
    return ((-(a2 + 1.0) * z1, alpha + a1 + a2 + 2.0 + beta * z1, -beta),
            (0.0, -z1, 1.0))


@pytest.fixture(scope="session")
def transcribed_profiles():
    """Hand-transcribed profile coefficients, independent of the generator."""
    return _transcribed_profiles


def _reference_closed_norm(params):
    """Closed-form normalization written out per family, as `fpmb info` prints it."""
    a1, a2 = params.a1, params.a2
    if isinstance(params, ClassI):
        log_inv = (a1 + a2 + 1.0) * math.log(params.z2 - params.z1)
        log_inv += ln_beta(a1 + 1.0, a2 + 1.0)
        return math.exp(-log_inv)
    if isinstance(params, ClassII):
        log_inv = (a1 + a2 + 1.0) * math.log(params.z2)
        log_inv += ln_beta(a1 + 1.0, a2 + 1.0)
        log_inv += math.log(kummer_1f1(a1 + 1.0, a1 + a2 + 2.0, params.beta * params.z2))
        return math.exp(-log_inv)
    s, beta, z1 = a1 + a2, params.beta, params.z1
    if z1 == 0.0:
        return math.exp((s + 1.0) * math.log(beta) - ln_gamma(s + 1.0))
    log_inv = (
        -0.5 * (s + 2.0) * math.log(beta)
        + 0.5 * s * math.log(z1)
        + ln_gamma(a1 + 1.0)
        - 0.5 * beta * z1
        + math.log(whittaker_w(0.5 * (a2 - a1), 0.5 * (s + 1.0), beta * z1))
    )
    return math.exp(-log_inv)


@pytest.fixture(scope="session")
def reference_closed_norm():
    """Per-family closed-form normalizations, independent of the Pearson-form reader."""
    return _reference_closed_norm


def _reference_evolve(op, u0, n_steps, ds, *, on_step=None):
    """Implicit Euler one step at a time, refining each step on its own.

    The plain loop that ``pde.evolve`` does in blocks: the same
    factorization through ``pde.splu``, the same flux-form refinement pass
    and the same drift bookkeeping, so its steps, masses, errors, solves and
    (final values, worst drift) are the ones ``evolve`` must reproduce.
    """
    from fpmb import pde

    u = np.asarray(u0, dtype=float).copy()
    s = worst = 0.0
    h = op.grid.h
    mass_before = u.sum() * h
    lu = pde.splu(-ds * op.lower, 1.0 - ds * op.diag, -ds * op.upper)
    for _ in range(n_steps):
        v = lu.solve(u)
        mass_after = v.sum() * h
        drift = abs(mass_after - mass_before) / max(abs(mass_before), 1e-300)
        if not drift <= 0.1 * pde.MASS_DRIFT_TOL:
            v = v + lu.solve(u - v + ds * op.apply(v))
            mass_after = v.sum() * h
            drift = abs(mass_after - mass_before) / max(abs(mass_before), 1e-300)
        if not drift <= pde.MASS_DRIFT_TOL:
            raise RuntimeError(
                f"mass drift {drift:.3e} exceeds {pde.MASS_DRIFT_TOL} in one step"
            )
        if v.min() < -1e-12 * max(v.max(), 1e-300):
            raise RuntimeError("positivity violated; the operator is misconfigured")
        u = v
        mass_before = mass_after
        worst = max(worst, drift)
        s += ds
        if on_step is not None:
            on_step(s, mass_after, u)
    return u, float(worst)


@pytest.fixture(scope="session")
def reference_evolve():
    """Step-by-step implicit Euler, the oracle of the blocked ``pde.evolve``."""
    return _reference_evolve


def _triangle_field(grid, *, peak="left"):
    """Unit-mass triangular initial condition peaked at one end."""
    x = (grid.centers - grid.z_lo) / (grid.z_hi - grid.z_lo)
    if peak == "left":
        values = 2.0 * (1.0 - x)
    elif peak == "right":
        values = 2.0 * x
    else:
        raise ValueError(f"peak must be 'left' or 'right', got {peak!r}")
    return values / (values.sum() * grid.h)


@pytest.fixture(scope="session")
def triangle_field():
    """A second and third initial condition for ``pde.evolve``."""
    return _triangle_field


def _residual_original_coordinates(sol, x_grid_step, t, dt):
    """Max-norm of the discrete forward-equation residual on an interior grid.

    The 41 evaluation points are fixed fractions of ``pde.probe_window``, so
    halving (x_grid_step, dt) together measures the stencil's convergence
    order without sampling jitter.
    """
    from fpmb.pde import fpe_residual_at, probe_window

    if x_grid_step <= 0.0 or dt <= 0.0:
        raise ValueError("steps must be positive")
    lo, hi = probe_window(sol, t, x_grid_step, dt)
    xs = np.linspace(lo, hi, 41)
    return float(np.max(np.abs(fpe_residual_at(sol, xs, t, x_grid_step, dt))))


@pytest.fixture(scope="session")
def residual_original_coordinates():
    """Central-difference residual of the analytic density in physical coordinates."""
    return _residual_original_coordinates


def _reference_adapt(g, lo, hi, rtol):
    """Greedy GK15 subdivision with one integrand call per panel.

    The oracle of ``specfun._adapt``, which evaluates both halves of a split
    in one call: same heap order, same accumulation order.
    """
    from fpmb import specfun
    from fpmb.specfun import _G_IDX, _WG, _WGK, _XGK

    def gk15(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        fx = np.asarray(g(mid + half * _XGK), dtype=float)
        kron = half * float(fx @ _WGK)
        return kron, abs(kron - half * float(fx[_G_IDX] @ _WG))

    value, err = gk15(lo, hi)
    panels = [(-err, lo, hi, value, err)]
    total, total_err, evals, n_panels = value, err, 15, 1
    while total_err > rtol * abs(total) and n_panels < specfun._MAX_PANELS:
        _, a, b, v, e = heapq.heappop(panels)
        m = 0.5 * (a + b)
        v1, e1 = gk15(a, m)
        v2, e2 = gk15(m, b)
        evals += 30
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heapq.heappush(panels, (-e1, a, m, v1, e1))
        heapq.heappush(panels, (-e2, m, b, v2, e2))
        n_panels += 1
    return QuadratureResult(total, total_err, evals, total_err <= rtol * abs(total))


@pytest.fixture
def adapt_against_reference(monkeypatch):
    """Route every ``specfun._adapt`` call through the one-call-per-panel oracle too.

    Each call asserts that both give an identical ``QuadratureResult``; the
    fixture's value is the list of results compared so far.
    """
    from fpmb import specfun

    adapt = specfun._adapt
    compared = []

    def checked(g, lo, hi, rtol):
        out = adapt(g, lo, hi, rtol)
        assert out == _reference_adapt(g, lo, hi, rtol)
        compared.append(out)
        return out

    monkeypatch.setattr(specfun, "_adapt", checked)
    return compared
