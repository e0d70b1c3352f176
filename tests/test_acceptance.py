"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here, not calibrated at run time.
"""

import math
import time

import numpy as np
import pytest

from fpmb import (
    ClassIII,
    PRESETS,
    boundary_positions,
    density,
    first_integral_residual,
    interior_points,
    kummer_1f1,
    ln_gamma,
    mass,
    preset_solution,
    reduced_ode_residual,
    tricomi_u,
)
from fpmb import integrate_adaptive
from fpmb.solutions import truncated_positions
from fpmb.specfun import ln_beta
from fpmb.pde import (
    fpe_residual_at,
    l1_distance,
    stationary_field,
    transformed_operator,
    uniform_field,
    evolve,
    probe_window,
)
from fpmb.sde import histogram_distance, init_ensemble, propagate

PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5")


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def presets():
    return {name: preset_solution(name) for name in PRESET_NAMES}


def test_criterion_1_normalization(presets, random_models):
    """Unit mass at t in {0.3, 1, 3} for presets and random models, < 10 s."""
    start = time.perf_counter()
    worst = 0.0
    for sol in list(presets.values()) + random_models:
        for t in (0.3, 1.0, 3.0):
            worst = max(worst, abs(mass(sol, t) - 1.0))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-8 and elapsed < 10.0
    report("criterion 1 (normalization)", passed,
           f"max |mass - 1| = {worst:.3e} (<= 1e-8), runtime {elapsed:.1f}s (< 10s)")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_closed_form_constants(presets, random_models):
    """Closed-form vs quadrature normalization agreement per family."""
    worst_finite = 0.0
    worst_half_line = 0.0
    for sol in list(presets.values()) + random_models:
        rel = abs(sol.norm_A_closed - sol.norm_A_quadrature) / sol.norm_A_quadrature
        if isinstance(sol.class_params, ClassIII):
            worst_half_line = max(worst_half_line, rel)
        else:
            worst_finite = max(worst_finite, rel)
    passed = worst_finite <= 1e-10 and worst_half_line <= 1e-8
    report("criterion 2 (closed-form constants)", passed,
           f"finite-domain rel = {worst_finite:.3e} (<= 1e-10), "
           f"half-line rel = {worst_half_line:.3e} (<= 1e-8)")
    assert worst_finite <= 1e-10
    assert worst_half_line <= 1e-8


def test_criterion_3_analytic_identities(presets):
    """First-integral and reduced-equation residuals at 1000 interior points."""
    worst = 0.0
    for sol in presets.values():
        z = interior_points(sol, 1000)
        for residual_fn in (first_integral_residual, reduced_ode_residual):
            res, scale = residual_fn(sol, z)
            worst = max(worst, float(np.max(np.abs(res) / np.maximum(scale, 1e-300))))
    passed = worst <= 1e-10
    report("criterion 3 (analytic identities)", passed,
           f"max residual / local scale = {worst:.3e} (<= 1e-10)")
    assert worst <= 1e-10


def test_criterion_4_fpe_residual_convergence(presets):
    """Central-difference residual ratios 4.0 +/- 0.4 at two probes per model."""
    ratios = {}
    for name, sol in presets.items():
        times = PRESETS[name].times
        t = times[len(times) // 2]
        lo, hi = truncated_positions(sol, t)
        h = 0.01 * (hi - lo)
        dt = 0.01 * t
        window = probe_window(sol, t, h, dt)
        for frac in (0.35, 0.62):
            x = window[0] + frac * (window[1] - window[0])
            r1 = fpe_residual_at(sol, x, t, h, dt)
            r2 = fpe_residual_at(sol, x, t, 0.5 * h, 0.5 * dt)
            ratios[(name, frac)] = abs(r1 / r2)
    worst = max(ratios.values(), key=lambda r: abs(r - 4.0))
    passed = all(3.6 <= r <= 4.4 for r in ratios.values())
    report("criterion 4 (residual convergence)", passed,
           f"ratios in [{min(ratios.values()):.2f}, {max(ratios.values()):.2f}] "
           f"(target 4.0 +/- 0.4), worst {worst:.2f}")
    assert passed


def test_criterion_5_pde_attractor(presets):
    """Uniform start relaxes onto the reduced density; mass conserved, < 30 s."""
    start = time.perf_counter()
    sol = presets["fig1"]
    op = transformed_operator(sol, 400)
    grid = op.grid
    drifts = []
    masses = [uniform_field(grid).sum() * grid.h]

    def record(s, m, values):
        drifts.append(abs(m - masses[-1]))
        masses.append(m)

    final, _ = evolve(op, uniform_field(grid), 200, 0.05, on_step=record)
    dist = l1_distance(final, stationary_field(sol, grid), grid)
    worst_drift = max(drifts)
    elapsed = time.perf_counter() - start
    passed = dist <= 1e-3 and worst_drift <= 1e-12 and elapsed < 30.0
    report("criterion 5 (PDE attractor)", passed,
           f"L1 = {dist:.3e} (<= 1e-3), max step mass drift = {worst_drift:.3e} "
           f"(<= 1e-12), runtime {elapsed:.1f}s (< 30s)")
    assert dist <= 1e-3
    assert worst_drift <= 1e-12
    assert elapsed < 30.0


def test_criterion_6_figure_geometry(presets):
    """Peak location tracks t^alpha and support endpoints scale exactly."""
    sol3 = presets["fig3"]
    peak_ok = True
    for t in (0.6, 0.8, 1.0):
        lo, hi = boundary_positions(sol3, t)
        xs = np.linspace(lo, hi, 400)
        x_star = xs[int(np.argmax(density(sol3, xs, t)))]
        peak_ok &= abs(x_star - t**2) <= (hi - lo) / 400

    support_ok = True
    for name in ("fig1", "fig2"):
        sol = presets[name]
        z1 = sol.class_params.z1
        z2 = sol.class_params.z2
        for t in PRESETS[name].times:
            lo, hi = boundary_positions(sol, t)
            support_ok &= lo == z1 * t**sol.alpha and hi == z2 * t**sol.alpha
    # away from the origin for positive exponent, toward it for negative
    grow = [boundary_positions(presets["fig1"], t) for t in PRESETS["fig1"].times]
    motion_ok = all(a[0] < b[0] and a[1] < b[1] for a, b in zip(grow, grow[1:]))
    shrink = [boundary_positions(presets["fig2"], t) for t in PRESETS["fig2"].times]
    motion_ok &= all(a[0] > b[0] and a[1] > b[1] for a, b in zip(shrink, shrink[1:]))

    passed = peak_ok and support_ok and motion_ok
    report("criterion 6 (figure geometry)", passed,
           f"peak within one cell: {peak_ok}, exact support endpoints: {support_ok}, "
           f"motion direction: {motion_ok}")
    assert passed


def test_criterion_7_monte_carlo(presets):
    """Histogram L1 <= 0.05 at 2e5 paths and ~N^-1/2 scaling, < 60 s."""
    start = time.perf_counter()
    sol = presets["fig1"]
    ens = init_ensemble(sol, 200_000, 0.3, seed=20260808)
    ens = propagate(ens, sol, 0.5, ds_max=0.0025)
    dist_big = histogram_distance(ens, sol, 60)

    means = {}
    for n_paths in (10_000, 40_000, 160_000):
        vals = []
        for seed in (1, 2, 3):
            e = init_ensemble(sol, n_paths, 0.3, seed=seed)
            e = propagate(e, sol, 0.5, ds_max=0.0025)
            vals.append(histogram_distance(e, sol, 60))
        means[n_paths] = float(np.mean(vals))
    ns = sorted(means)
    slope = float(np.polyfit(np.log(ns), np.log([means[n] for n in ns]), 1)[0])
    elapsed = time.perf_counter() - start
    passed = dist_big <= 0.05 and abs(slope + 0.5) <= 0.1 and elapsed < 60.0
    report("criterion 7 (Monte Carlo)", passed,
           f"L1 at 2e5 paths = {dist_big:.4f} (<= 0.05), scaling slope = {slope:.3f} "
           f"(-0.5 +/- 0.1), runtime {elapsed:.1f}s (< 60s)")
    assert dist_big <= 0.05
    assert abs(slope + 0.5) <= 0.1
    assert elapsed < 60.0


def test_criterion_8_special_functions():
    """Special-function examples at stated tolerances plus property suites."""
    ok = True
    ok &= abs(ln_gamma(1.0)) <= 1e-14
    ok &= abs(ln_gamma(5.0) - math.log(24.0)) <= 1e-13
    ok &= abs(ln_gamma(0.5) - 0.5 * math.log(math.pi)) <= 1e-13
    ok &= abs(math.exp(ln_beta(1.0, 1.0)) - 1.0) <= 1e-12
    ok &= abs(math.exp(ln_beta(2.0, 2.0)) - 1.0 / 6.0) <= 1e-12
    ok &= abs(math.exp(ln_beta(2.0, 1.5)) - 4.0 / 15.0) <= 1e-12
    ok &= kummer_1f1(2.0, 3.0, 0.0) == 1.0
    ok &= abs(kummer_1f1(1.0, 1.0, 2.0) / math.exp(2.0) - 1.0) <= 1e-10
    ok &= abs(kummer_1f1(1.0, 2.0, 1.0) / (math.e - 1.0) - 1.0) <= 1e-10
    for x in (0.5, 1.0, 2.0):
        ok &= abs(tricomi_u(1.0, 2.0, x) * x - 1.0) <= 1e-9

    rng = np.random.default_rng(321)
    kummer_worst = 0.0
    for _ in range(50):
        a = rng.uniform(0.05, 5.0)
        b = rng.uniform(a + 0.05, 10.0)
        x = rng.uniform(0.05, 20.0)
        lhs = kummer_1f1(a, b, -x) * math.exp(x)
        rhs = kummer_1f1(b - a, b, x)
        kummer_worst = max(kummer_worst, abs(lhs - rhs) / abs(rhs))
    ok &= kummer_worst <= 1e-9

    tricomi_worst = 0.0
    for _ in range(50):
        a = rng.uniform(0.3, 5.0)
        b = rng.uniform(a - 2.0, a + 4.0)
        x = rng.uniform(0.1, 20.0)
        val = tricomi_u(a, b, x)

        def integrand(t, a=a, b=b, x=x):
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore"):
                return np.exp(-x * t + (a - 1.0) * np.log(t) + (b - a - 1.0) * np.log1p(t))

        ref = integrate_adaptive(integrand, 0.0, math.inf, 1e-12,
                                 endpoint_power=a - 1.0)
        ref_val = ref.value * math.exp(-ln_gamma(a))
        tricomi_worst = max(tricomi_worst, abs(val - ref_val) / abs(ref_val))
    ok &= tricomi_worst <= 1e-9

    report("criterion 8 (special functions)", bool(ok),
           f"examples pass; transform self-test worst rel = {kummer_worst:.2e} (<= 1e-9), "
           f"kernel-vs-quadrature worst rel = {tricomi_worst:.2e} (<= 1e-9)")
    assert ok
