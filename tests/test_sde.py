import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.stats import chi2

from fpmb import (
    PRESETS,
    ClassI,
    ClassII,
    ClassIII,
    boundary_positions,
    build_solution,
    coefficients,
)
from fpmb import sde
from fpmb.cli import load_preset_config
from fpmb.solutions import truncated_positions
from fpmb.sde import (
    CHUNK_PATHS,
    PathEnsemble,
    StepSizeError,
    histogram_distance,
    histogram_table,
    init_ensemble,
    propagate,
    step_ensemble,
)


class TestInit:
    def test_positions_inside_domain(self, built_presets):
        for name in ("fig1", "fig3", "fig5"):
            sol = built_presets[name]
            ens = init_ensemble(sol, 5000, 0.3, seed=3)
            lo, hi = boundary_positions(sol, 0.3)
            assert ens.positions.min() >= lo
            assert ens.positions.max() <= hi
            assert ens.t == 0.3
            assert ens.n_reflections == 0

    def test_sampling_self_consistency(self, built_presets):
        # histogram straight after inverse-CDF sampling: multinomial noise only
        sol = built_presets["fig1"]
        ens = init_ensemble(sol, 100_000, 0.3, seed=11)
        assert histogram_distance(ens, sol, 60) <= 3.0 * 0.8 * math.sqrt(60 / 100_000)

    def test_validation(self, built_presets):
        with pytest.raises(ValueError):
            init_ensemble(built_presets["fig1"], 0, 0.3, seed=1)
        with pytest.raises(ValueError):
            init_ensemble(built_presets["fig1"], 10, 0.0, seed=1)


class TestInitChunks:
    """``init_ensemble`` draws and maps one chunk of uniforms at a time."""

    @pytest.mark.parametrize("n", [1, CHUNK_PATHS, 3 * CHUNK_PATHS + 7])
    def test_positions_match_one_full_draw(self, built_presets, n):
        for name in ("fig1", "fig5"):
            sol, t0 = built_presets[name], PRESETS[name].times[0]
            z_tab, cdf = sde._cdf_table(sol)
            rng = np.random.default_rng(np.random.SeedSequence(5))
            expected = np.interp(rng.uniform(size=n), cdf, z_tab) * t0**sol.alpha
            ens = init_ensemble(sol, n, t0, seed=5)
            assert ens.positions.tobytes() == expected.tobytes()
            # the ensemble's generator continues from the same stream state
            assert ens.rng.bit_generator.state == rng.bit_generator.state

    @staticmethod
    def _traced_peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_init_peak_is_one_ensemble_plus_chunks(self, built_presets):
        sol, n = built_presets["fig1"], 10**6
        init_ensemble(sol, 10, 0.3, seed=1)  # one-time allocations and the CDF table
        _, peak = self._traced_peak(lambda: init_ensemble(sol, n, 0.3, seed=1))
        assert peak <= 8 * n + 4 * 8 * CHUNK_PATHS

    def test_propagate_peak_is_two_ensembles_plus_worker_buffers(self, built_presets):
        """The input ensemble, its reduced copy, and per worker two float
        buffers and a mask of one chunk each (counted as a third buffer)."""
        sol, n = built_presets["fig1"], 10**6
        propagate(init_ensemble(sol, 3 * CHUNK_PATHS, 0.3, seed=1), sol, 0.302)

        def run():
            ens = init_ensemble(sol, n, 0.3, seed=1)
            tracemalloc.reset_peak()
            return propagate(ens, sol, 0.302)

        out, peak = self._traced_peak(run)
        assert out.t == 0.302
        workers = min(sde._worker_count(), -(-n // CHUNK_PATHS))
        assert peak <= 2 * 8 * n + workers * 3 * 8 * CHUNK_PATHS


class TestStep:
    def test_containment_and_count_invariant(self, built_presets):
        sol = built_presets["fig1"]
        ens = init_ensemble(sol, 20_000, 0.3, seed=5)
        n0 = ens.positions.size
        for _ in range(50):
            ens = step_ensemble(ens, sol, 5e-4)
            lo, hi = boundary_positions(sol, ens.t)
            assert ens.positions.size == n0
            assert ens.positions.min() >= lo
            assert ens.positions.max() <= hi

    def test_reflection_counter_monotone(self, built_presets):
        # steps of 0.15 t mirror paths at fig5's finite end (the default
        # grid mirrors none)
        sol = built_presets["fig5"]
        ens = init_ensemble(sol, 5000, 0.5, seed=6)
        counts = [ens.n_reflections]
        for _ in range(40):
            ens = step_ensemble(ens, sol, 0.15 * ens.t)
            counts.append(ens.n_reflections)
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] > 0

    def test_particle_at_boundary_moves_inward(self, built_presets):
        sol = built_presets["fig1"]
        lo, hi = boundary_positions(sol, 0.3)
        ens = PathEnsemble(
            positions=np.array([lo, hi]),
            t=0.3,
            n_reflections=0,
            seed=0,
            rng=np.random.default_rng(0),
        )
        # relative drift at the endpoints points into the domain for this family
        d1_lo, d2_lo = coefficients(sol, lo, 0.3)
        assert d2_lo == 0.0
        assert d1_lo - sol.alpha * lo / 0.3 > 0.0
        d1_hi, _ = coefficients(sol, hi, 0.3)
        assert d1_hi - sol.alpha * hi / 0.3 < 0.0
        stepped = step_ensemble(ens, sol, 1e-4)
        lo2, hi2 = boundary_positions(sol, stepped.t)
        assert stepped.positions[0] >= lo2
        assert stepped.positions[1] <= hi2

    def test_zero_noise_matches_ode_oracle(self, built_presets):
        sol = built_presets["fig1"]
        x0 = np.array([0.15, 0.225, 0.32])
        ens = PathEnsemble(
            positions=x0.copy(), t=0.3, n_reflections=0, seed=0,
            rng=np.random.default_rng(0),
        )
        n_steps = 2000
        dt = (0.5 - 0.3) / n_steps
        for _ in range(n_steps):
            ens = step_ensemble(ens, sol, dt, noise_scale=0.0)

        def rhs(t, x):
            d1, _ = coefficients(sol, x, t)
            return d1

        ref = solve_ivp(rhs, (0.3, 0.5), x0, rtol=1e-11, atol=1e-13).y[:, -1]
        assert float(np.abs(ens.positions - ref).max()) <= 2e-4

    def test_oversized_step_rejected(self, built_presets):
        sol = built_presets["fig2"]
        ens = PathEnsemble(
            positions=np.array([3.9]), t=1.0, n_reflections=0, seed=0,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(StepSizeError):
            step_ensemble(ens, sol, 4.0, noise_scale=0.0)

    def test_rejects_nonpositive_dt(self, built_presets):
        ens = init_ensemble(built_presets["fig1"], 10, 0.3, seed=1)
        with pytest.raises(ValueError):
            step_ensemble(ens, built_presets["fig1"], 0.0)


def reference_step(ens, sol, dt):
    """Weak Euler step in z = x / t^alpha over ds = ln((t + dt) / t), with
    rho1 and rho2 read per path off coefficients(), a +-1 increment per path
    from the bits of the spawned stream (bit k of the little-endian raw words
    for path k, 1 meaning +1), and mirror reflection at the static reduced
    endpoints."""
    t, alpha = ens.t, sol.alpha
    t_new = t + dt
    ds = math.log(t_new / t)
    d1, d2 = coefficients(sol, ens.positions, t)
    rho1 = d1 * t ** (1.0 - alpha)
    rho2 = d2 * t ** (1.0 - 2.0 * alpha)
    z = ens.positions / t**alpha
    words = ens.rng.spawn(1)[0].bit_generator.random_raw(-(-z.size // 64))
    bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    noise = 2.0 * bits.ravel()[: z.size] - 1.0
    z_new = z + (rho1 - alpha * z) * ds + np.sqrt(2.0 * np.maximum(rho2, 0.0) * ds) * noise
    below = z_new < sol.z_lo
    z_new[below] = 2.0 * sol.z_lo - z_new[below]
    above = z_new > sol.z_hi
    z_new[above] = 2.0 * sol.z_hi - z_new[above]
    reflections = int(below.sum() + above.sum())
    return dataclasses.replace(ens, positions=z_new * t_new**alpha, t=t_new,
                               n_reflections=ens.n_reflections + reflections)


def equivalence_models(built_presets):
    """(solution, start time): the presets plus one random model per family."""
    models = [(built_presets[name], PRESETS[name].times[0]) for name in PRESETS]
    rng = np.random.default_rng(20261017)

    def exponents():
        return rng.uniform(0.4, 4.0), rng.uniform(0.4, 4.0)

    z1 = rng.uniform(-3.0, 2.0)
    a1, a2 = exponents()
    models.append((build_solution(-rng.uniform(0.3, 3.0), ClassI(
        z1=z1, z2=z1 + rng.uniform(0.5, 4.0), a1=a1, a2=a2)), 1.0))
    a1, a2 = exponents()
    models.append((build_solution(rng.uniform(0.3, 3.0), ClassII(
        z2=rng.uniform(0.5, 5.0), a1=a1, a2=a2, beta=rng.uniform(-3.0, 3.0))), 1.0))
    a1, a2 = exponents()
    models.append((build_solution(-rng.uniform(0.3, 3.0), ClassIII(
        z1=rng.uniform(0.0, 2.0), a1=a1, a2=a2, beta=rng.uniform(0.3, 3.0))), 1.0))
    return models


class TestQuadraticStepper:
    def test_matches_reference_step(self, built_presets):
        # 100 default steps, which mirror no path, and one step of 0.15 t on
        # fig5, which mirrors some
        runs = [(sol, t0, 1e-3, 100) for sol, t0 in equivalence_models(built_presets)]
        runs.append((built_presets["fig5"], 0.5, 0.075, 1))
        for sol, t0, dt, n_steps in runs:
            ens = init_ensemble(sol, 20_000, t0, seed=12)
            ref = init_ensemble(sol, 20_000, t0, seed=12)
            for _ in range(n_steps):
                ens = step_ensemble(ens, sol, dt)
                ref = reference_step(ref, sol, dt)
            lo, hi = truncated_positions(sol, ens.t)
            assert ens.t == ref.t
            assert float(np.abs(ens.positions - ref.positions).max()) <= 1e-12 * (hi - lo)
            assert ens.n_reflections == ref.n_reflections
        assert ens.n_reflections > 0

    def test_input_ensemble_unchanged(self, built_presets):
        # a step of 0.15 t mirrors paths at fig5's finite end; at alpha = 0.2
        # the boundary moves slowly enough that propagate takes that step too
        sol = build_solution(0.2, PRESETS["fig5"].params)
        ens = init_ensemble(sol, 5000, 1.0, seed=13)
        before = ens.positions.copy()
        stepped = step_ensemble(ens, sol, 0.15)
        propagated = propagate(ens, sol, 1.15, dt_max=0.15)
        assert stepped.n_reflections > 0 and propagated.n_reflections > 0
        assert np.array_equal(ens.positions, before)
        assert ens.t == 1.0 and ens.n_reflections == 0


class TestReproducibility:
    def test_identical_seed_identical_trajectory(self, built_presets):
        sol = built_presets["fig1"]
        runs = []
        for _ in range(2):
            ens = init_ensemble(sol, 2000, 0.3, seed=77)
            ens = propagate(ens, sol, 0.45, dt_max=1e-3)
            runs.append(ens)
        assert np.array_equal(runs[0].positions, runs[1].positions)
        assert runs[0].n_reflections == runs[1].n_reflections

    def test_different_seeds_differ(self, built_presets):
        sol = built_presets["fig1"]
        a = init_ensemble(sol, 2000, 0.3, seed=1)
        b = init_ensemble(sol, 2000, 0.3, seed=2)
        assert not np.array_equal(a.positions, b.positions)


def propagated(sol, t0, seed):
    """Three full chunks plus a ragged one, over the first 20 steps."""
    ens = init_ensemble(sol, 3 * CHUNK_PATHS + 7, t0, seed)
    return propagate(ens, sol, t0 + 0.02)


class TestChunkedEngine:
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig5"])
    def test_worker_count_does_not_change_results(self, built_presets, monkeypatch, name):
        sol, t0 = built_presets[name], PRESETS[name].times[0]
        runs = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # many thread switches per chunk step
        try:
            for workers in (1, 2, 4):
                monkeypatch.setattr(sde, "_worker_count", lambda w=workers: w)
                runs[workers] = propagated(sol, t0, seed=31)
        finally:
            sys.setswitchinterval(interval)
        for workers in (2, 4):
            assert np.array_equal(runs[workers].positions, runs[1].positions)
            assert runs[workers].n_reflections == runs[1].n_reflections
            assert runs[workers].t == runs[1].t

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig5"])
    def test_seed_fixes_results(self, built_presets, name):
        sol, t0 = built_presets[name], PRESETS[name].times[0]
        a, b = propagated(sol, t0, seed=41), propagated(sol, t0, seed=41)
        assert np.array_equal(a.positions, b.positions)
        assert a.n_reflections == b.n_reflections
        c = propagated(sol, t0, seed=42)
        assert not np.array_equal(a.positions, c.positions)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("t0", [math.nan, math.inf])
    def test_init_time(self, built_presets, t0):
        with pytest.raises(ValueError, match="t0"):
            init_ensemble(built_presets["fig1"], 10, t0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_init_seed(self, built_presets, seed):
        with pytest.raises(ValueError, match="seed"):
            init_ensemble(built_presets["fig1"], 10, 0.3, seed=seed)

    def test_step_size(self, built_presets):
        ens = init_ensemble(built_presets["fig1"], 10, 0.3, seed=1)
        with pytest.raises(ValueError, match="dt"):
            step_ensemble(ens, built_presets["fig1"], math.inf)

    @pytest.mark.parametrize("t", [math.nan, 0.0, -1.0])
    def test_ensemble_time(self, built_presets, t):
        sol = built_presets["fig2"]  # alpha < 0: t = 0 has no finite t^alpha
        ens = PathEnsemble(positions=np.array([2.0]), t=t, n_reflections=0, seed=0,
                           rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="ensemble time"):
            step_ensemble(ens, sol, 1e-3)
        with pytest.raises(ValueError, match="ensemble time"):
            propagate(ens, sol, 1.0)

    def test_noise_scale(self, built_presets):
        ens = init_ensemble(built_presets["fig1"], 10, 0.3, seed=1)
        with pytest.raises(ValueError, match="noise_scale"):
            step_ensemble(ens, built_presets["fig1"], 1e-3, noise_scale=math.nan)

    @pytest.mark.parametrize("noise_scale", [0.0, 1.0])
    def test_nan_position_fails_the_boundary_tests(self, built_presets, noise_scale):
        sol = built_presets["fig1"]
        ens = init_ensemble(sol, 100, 0.3, seed=1)
        positions = ens.positions.copy()
        positions[57] = math.nan
        ens = dataclasses.replace(ens, positions=positions)
        with pytest.raises(RuntimeError, match="NaN"):
            step_ensemble(ens, sol, 1e-3, noise_scale=noise_scale)

    @pytest.mark.parametrize("name, kwargs", [
        ("t_end", {"t_end": math.nan}),
        ("t_end", {"t_end": math.inf}),
        ("dt_max", {"dt_max": math.nan}),
        ("dt_max", {"dt_max": 0.0}),
    ])
    def test_propagate_arguments(self, built_presets, name, kwargs):
        ens = init_ensemble(built_presets["fig1"], 10, 0.3, seed=1)
        kwargs = {"t_end": 0.31} | kwargs
        with pytest.raises(ValueError, match=name):
            propagate(ens, built_presets["fig1"], kwargs.pop("t_end"), **kwargs)


def chi_square(ens, sol, n_bins):
    """Pearson's X^2 of the ensemble's counts in ``histogram_table``'s bins
    against the bin masses of ``sol``'s CDF table, over the bins with
    N p_i >= 5 (Cochran's rule): (X^2, degrees of freedom, p-value)."""
    edges, empirical, analytic = sde._binned_densities(ens, sol, n_bins)
    per_density = ens.positions.size * (edges[1] - edges[0])
    counts, expected = empirical * per_density, analytic * per_density
    kept = expected >= 5.0
    x2 = float(((counts[kept] - expected[kept]) ** 2 / expected[kept]).sum())
    df = int(kept.sum()) - 1
    return x2, df, float(chi2.sf(x2, df))


class TestHistogram:
    def test_propagated_ensemble_matches_analytic_density(self, built_presets):
        sol = built_presets["fig1"]
        ens = init_ensemble(sol, 50_000, 0.3, seed=9)
        ens = propagate(ens, sol, 0.5, dt_max=5e-4)
        assert histogram_distance(ens, sol, 60) <= 0.05

    def test_quadrupling_paths_halves_distance(self, built_presets):
        sol = built_presets["fig1"]
        dists = {}
        for n in (4000, 16000):
            vals = []
            for seed in range(5):
                ens = init_ensemble(sol, n, 0.3, seed=seed)
                ens = propagate(ens, sol, 0.5, dt_max=1e-3)
                vals.append(histogram_distance(ens, sol, 40))
            dists[n] = float(np.mean(vals))
        ratio = dists[4000] / dists[16000]
        assert 1.5 <= ratio <= 2.6

    def test_table_columns_consistent(self, built_presets):
        sol = built_presets["fig1"]
        ens = init_ensemble(sol, 5000, 0.3, seed=4)
        centers, empirical, analytic = histogram_table(ens, sol, 20)
        assert centers.shape == empirical.shape == analytic.shape == (20,)
        lo, hi = boundary_positions(sol, 0.3)
        width = (hi - lo) / 20
        assert float(empirical.sum() * width) == pytest.approx(1.0, abs=1e-12)
        assert float(analytic.sum() * width) == pytest.approx(1.0, abs=1e-6)

    def test_half_line_histogram(self, built_presets):
        sol = built_presets["fig5"]
        ens = init_ensemble(sol, 20_000, 0.5, seed=8)
        ens = propagate(ens, sol, 0.7, dt_max=1e-3)
        assert histogram_distance(ens, sol, 40) <= 0.08

    def test_validation(self, built_presets):
        sol = built_presets["fig1"]
        ens = init_ensemble(sol, 100, 0.3, seed=1)
        with pytest.raises(ValueError):
            histogram_distance(ens, sol, 5)
        empty = PathEnsemble(
            positions=np.array([]), t=0.3, n_reflections=0, seed=0,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError):
            histogram_distance(empty, sol, 20)


def verify_run(name, sol, stepping=None, **kwargs):
    """The ensemble ``verify --with-sde`` judges on preset ``name``, at its
    default paths and seed, stepped with ``stepping`` (default ``sol``)."""
    cfg = load_preset_config(name)
    ens = init_ensemble(sol, cfg.n_paths, cfg.times[0], cfg.seed)
    return propagate(ens, stepping or sol, cfg.times[-1], **kwargs)


@pytest.fixture(scope="module")
def verify_runs(built_presets):
    return {name: verify_run(name, sol) for name, sol in built_presets.items()}


class TestChiSquareJudge:
    """Pearson's X^2 on the verify ensembles: quiet on the untampered
    presets, loud on a changed diffusion profile or a coarse step."""

    def test_default_grid_reflects_no_path(self, verify_runs):
        assert {name: ens.n_reflections for name, ens in verify_runs.items()} == dict.fromkeys(
            verify_runs, 0)

    def test_untampered_runs_pass(self, built_presets, verify_runs):
        for name, ens in verify_runs.items():
            x2, df, p = chi_square(ens, built_presets[name], load_preset_config(name).n_bins)
            assert p >= 1e-6, (name, x2, df)

    @pytest.mark.parametrize("name", ["fig1", "fig3", "fig5"])
    def test_diffusion_change_fails(self, built_presets, name):
        sol = built_presets[name]
        coefs = list(sol.diffusion_coefs)
        coefs[0] += 0.1 * max(map(abs, coefs))
        ens = verify_run(name, sol, dataclasses.replace(sol, diffusion_coefs=tuple(coefs)))
        x2, df, p = chi_square(ens, sol, load_preset_config(name).n_bins)
        assert p < 1e-12, (x2, df)

    def test_coarse_step_bias_fails(self, built_presets):
        sol = built_presets["fig1"]
        ens = verify_run("fig1", sol, dt_max=8e-3)
        x2, df, p = chi_square(ens, sol, load_preset_config("fig1").n_bins)
        assert p < 1e-12, (x2, df)
