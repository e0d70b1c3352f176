import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.stats import chi2

from fpmb import (
    PRESETS,
    ClassI,
    ClassII,
    ClassIII,
    boundary_positions,
    build_solution,
    coefficients,
    effective_upper,
)
from fpmb import sde
from fpmb.cli import load_preset_config
from fpmb.solutions import truncated_positions
from fpmb.sde import (
    CHUNK_PATHS,
    DRAW_PATHS,
    PathEnsemble,
    histogram_distance,
    histogram_table,
    init_ensemble,
    propagate,
    step_ensemble,
)


def stratonovich_drift(sol):
    """V0 = q - rho2'/2 as ascending coefficients (a, b, c)."""
    slope = np.polynomial.polynomial.polyder(sol.diffusion_coefs)
    return tuple(np.array(sol.drift_coefs) - 0.5 * np.append(slope, 0.0))


class TestInit:
    def test_positions_inside_domain(self, built_presets):
        for name in ("fig1", "fig3", "fig5"):
            sol = built_presets[name]
            ens = init_ensemble(sol, 5000, 0.3, seed=3)
            lo, hi = boundary_positions(sol, 0.3)
            assert ens.positions.min() >= lo
            assert ens.positions.max() <= hi
            assert ens.t == 0.3

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

    @pytest.mark.parametrize("n", [1, DRAW_PATHS, 3 * DRAW_PATHS + 7])
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

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parts_on_the_pool_match_one_full_draw(self, built_presets, monkeypatch, workers):
        """The draw is mapped in parts on the pool: at any worker count, and
        on both sides of a part boundary, the positions and the stream state
        are those of one full-size draw."""
        monkeypatch.setattr(sde, "_worker_count", lambda: workers)
        sol, t0 = built_presets["fig1"], PRESETS["fig1"].times[0]
        z_tab, cdf = sde._cdf_table(sol)
        for n in [DRAW_PATHS // k + d for k in (8, 4, 2) for d in (-1, 0, 1)]:
            rng = np.random.default_rng(np.random.SeedSequence(5))
            expected = np.interp(rng.uniform(size=n), cdf, z_tab) * t0**sol.alpha
            ens = init_ensemble(sol, n, t0, seed=5)
            assert ens.positions.tobytes() == expected.tobytes(), n
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
        assert peak <= 8 * n + 4 * 8 * 2**15

    def test_propagate_peak_is_two_ensembles_plus_worker_buffers(self, built_presets):
        """The input ensemble, the output it is mapped into chunk by chunk,
        and per worker the path state and one scratch buffer of one chunk
        in float32 (the other scratch buffer lives in the chunk's slice of
        the output) and three byte buffers (two masks and the raw bits):
        within three float64 buffers of 2^15 paths, whatever CHUNK_PATHS
        is."""
        sol, n = built_presets["fig1"], 10**6
        propagate(init_ensemble(sol, 3 * CHUNK_PATHS, 0.3, seed=1), sol, 0.302)

        def run():
            ens = init_ensemble(sol, n, 0.3, seed=1)
            tracemalloc.reset_peak()
            return propagate(ens, sol, 0.302)

        out, peak = self._traced_peak(run)
        assert out.t == 0.302
        workers = min(sde._worker_count(), -(-n // CHUNK_PATHS))
        assert peak <= 2 * 8 * n + workers * 3 * 8 * 2**15


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

    def test_particle_at_boundary_moves_inward(self, built_presets):
        sol = built_presets["fig1"]
        lo, hi = boundary_positions(sol, 0.3)
        ens = PathEnsemble(
            positions=np.array([lo, hi]),
            t=0.3,
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
        """The drift step is the exact flow of V0 over h, and two half steps
        make one step (fig1's V0 is affine, fig4's and fig5's quadratic)."""

        def flow(p, z):
            a, b, c, d = p
            return (a * z + b) / (c * z + d)

        h = 0.3
        for name in ("fig1", "fig4", "fig5"):
            sol = built_presets[name]
            v0 = stratonovich_drift(sol)
            z0 = np.linspace(sol.z_lo, effective_upper(sol), 7)
            ref = solve_ivp(lambda s, z: np.polynomial.polynomial.polyval(z, v0), (0.0, h), z0,
                            rtol=1e-12, atol=1e-14).y[:, -1]
            full = sde._drift_map(*v0, h)
            width = effective_upper(sol) - sol.z_lo
            assert float(np.abs(flow(full, z0) - ref).max()) <= 1e-9 * width, name
            half = sde._drift_map(*v0, 0.5 * h)
            assert np.allclose(flow(half, flow(half, z0)), flow(full, z0), rtol=1e-14, atol=0.0)

    def test_noise_free_model_rejected(self, built_presets):
        # rho2 = 0 has no circle or hyperbola to run along
        sol = dataclasses.replace(built_presets["fig1"], diffusion_coefs=(0.0, 0.0, 0.0))
        ens = init_ensemble(built_presets["fig1"], 10, 0.3, seed=1)
        with pytest.raises(ValueError, match="degree two"):
            step_ensemble(ens, sol, 1e-3)

    def test_rejects_nonpositive_dt(self, built_presets):
        ens = init_ensemble(built_presets["fig1"], 10, 0.3, seed=1)
        with pytest.raises(ValueError):
            step_ensemble(ens, built_presets["fig1"], 0.0)


XI_LARGE, XI_SMALL = math.sqrt(1.0 + math.sqrt(6.0)), math.sqrt(1.0 - math.sqrt(2.0 / 3.0))


def reference_xi(rng, n):
    """xi per path from byte k of the spawned stream's raw words: bit 0 set
    means positive, bits 1 and 2 both set mean |xi| large."""
    words = rng.spawn(1)[0].bit_generator.random_raw(-(-n // 8))
    byte = (words[:, None] >> np.arange(0, 64, 8, dtype=np.uint64)).ravel()[:n] & np.uint64(7)
    table = np.array([-XI_SMALL, XI_SMALL] * 3 + [-XI_LARGE, XI_LARGE])
    return table[byte.astype(np.intp)]


def reference_step(ens, sol, dt):
    """Strang step in z = x / t^alpha over ds = ln((t + dt) / t): the drift
    V0 = q - rho2'/2 moved by the matrix exponential of its linearized
    Riccati system, and the diffusion field by the solution of
    z'' = rho2'(z) started with speed sqrt(2 rho2), rho2 read per path off
    coefficients(); then clamped to the static reduced endpoints."""
    t, alpha = ens.t, sol.alpha
    t_new = t + dt
    ds = math.log(t_new / t)
    a, b, c = stratonovich_drift(sol)
    (p, q), (r, u) = expm(0.5 * ds * np.array([[0.5 * b, a], [-c, -0.5 * b]]))

    def half_drift(z):
        return (p * z + q) / (r * z + u)

    z = half_drift(ens.positions / t**alpha)
    rho2 = coefficients(sol, z * t**alpha, t)[1] * t ** (1.0 - 2.0 * alpha)
    slope = np.polynomial.polynomial.polyval(z, np.polynomial.polynomial.polyder(
        sol.diffusion_coefs))
    kappa = sol.diffusion_coefs[2]
    omega = math.sqrt(2.0 * abs(kappa))
    tau = math.sqrt(ds) * reference_xi(ens.rng, z.size)
    cos, sin = (np.cos, np.sin) if kappa < 0 else (np.cosh, np.sinh)
    z = (z + slope / (2.0 * kappa) * (cos(omega * tau) - 1.0)
         + np.sqrt(2.0 * np.maximum(rho2, 0.0)) / omega * sin(omega * tau))
    z = np.clip(half_drift(z), sol.z_lo, sol.z_hi)
    return dataclasses.replace(ens, positions=z * t_new**alpha, t=t_new)


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
    def test_matches_reference_step(self, built_presets, monkeypatch):
        # 100 steps of dt = 1e-3, one step of 0.15 t on fig5, which carries
        # paths around the finite end, and fig5 with rho2 raised until it
        # has no real root; the stepper's own code, in float64 arithmetic
        monkeypatch.setattr(sde, "PATH_DTYPE", np.float64)
        runs = [(sol, t0, 1e-3, 100) for sol, t0 in equivalence_models(built_presets)]
        fig5 = built_presets["fig5"]
        r0, r1, kappa = fig5.diffusion_coefs
        rootless = dataclasses.replace(fig5, diffusion_coefs=(r0 + 0.1, r1, kappa))
        runs += [(fig5, 0.5, 0.075, 1), (rootless, 0.5, 1e-3, 100)]
        for sol, t0, dt, n_steps in runs:
            ens = init_ensemble(sol, 20_000, t0, seed=12)
            ref = init_ensemble(sol, 20_000, t0, seed=12)
            for _ in range(n_steps):
                ens = step_ensemble(ens, sol, dt)
                ref = reference_step(ref, sol, dt)
            lo, hi = truncated_positions(sol, ens.t)
            assert ens.t == ref.t
            assert float(np.abs(ens.positions - ref.positions).max()) <= 1e-12 * (hi - lo)

    def test_input_ensemble_unchanged(self, built_presets):
        sol = built_presets["fig5"]
        ens = init_ensemble(sol, 5000, 1.0, seed=13)
        before = ens.positions.copy()
        step_ensemble(ens, sol, 0.15)
        propagate(ens, sol, 1.15, ds_max=0.05)
        assert np.array_equal(ens.positions, before)
        assert ens.t == 1.0


def stress_models(built_presets):
    """(solution, start time): the presets, a Class III model with both
    roots of rho2 at 0, a steep Class II model and small endpoint exponents."""
    return [(built_presets[name], PRESETS[name].times[0]) for name in PRESETS] + [
        (build_solution(1.0, ClassIII(z1=0.0, a1=1.0, a2=1.0, beta=1.0)), 1.0),
        (build_solution(1.0, ClassII(z2=2.0, a1=1.0, a2=1.0, beta=40.0)), 1.0),
        (build_solution(2.0, ClassI(z1=1.0, z2=4.0, a1=0.4, a2=0.4)), 1.0),
    ]


class TestSplitStep:
    @pytest.mark.parametrize("ds", [0.5, 0.2])
    def test_coarse_steps_stay_in_domain(self, built_presets, monkeypatch, ds):
        """20 steps of log-time ds in float64 arithmetic: every path stays
        finite and, before the final clamp, inside the reduced domain up to
        rounding."""
        advance, worst = sde._advance, []

        def checked(z, *args):
            # errstate is per thread, and chunks run on the worker threads
            with np.errstate(all="raise"):
                advance(z, *args)
            assert np.isfinite(z).all()
            worst.append(max(sol.z_lo - z.min(), z.max() - sol.z_hi) / scale)

        monkeypatch.setattr(sde, "_advance", checked)
        monkeypatch.setattr(sde, "PATH_DTYPE", np.float64)
        for sol, t0 in stress_models(built_presets):
            scale = max(1.0, abs(sol.z_lo), abs(effective_upper(sol)))
            ens = init_ensemble(sol, 100_000, t0, seed=21)
            with np.errstate(all="raise"):
                for _ in range(20):
                    ens = step_ensemble(ens, sol, ens.t * math.expm1(ds))
            assert np.isfinite(ens.positions).all()
        assert max(worst) <= 1e-13

    @pytest.mark.parametrize("name", ["fig1", "fig5"])
    def test_diffusion_lowered_below_zero_near_the_ends(self, built_presets, name):
        """A tampered rho2 that is negative near the endpoints has no real
        V1 speed there: those paths get none, and no position turns NaN."""
        sol = built_presets[name]
        coefs = list(sol.diffusion_coefs)
        coefs[0] -= 0.1 * max(map(abs, coefs))
        tampered = dataclasses.replace(sol, diffusion_coefs=tuple(coefs))
        ens = init_ensemble(sol, 3 * CHUNK_PATHS, PRESETS[name].times[0], seed=8)
        out = propagate(ens, tampered, PRESETS[name].times[-1])
        lo, hi = boundary_positions(sol, out.t)
        assert lo <= out.positions.min() and out.positions.max() <= hi

    def test_order_two(self, built_presets):
        """Halving ds from 0.04 to 0.02 cuts fig1's chi-square excess by at
        least 9x, an observed order of at least 1.58, at 1e6 paths."""
        sol, cfg = built_presets["fig1"], load_preset_config("fig1")
        excess = {}
        for ds in (0.04, 0.02):
            ens = init_ensemble(sol, 10**6, cfg.times[0], cfg.seed)
            x2, df, _ = chi_square(propagate(ens, sol, cfg.times[-1], ds_max=ds), sol, cfg.n_bins)
            excess[ds] = x2 - df
        assert excess[0.04] >= 9.0 * excess[0.02], excess


class TestReproducibility:
    def test_identical_seed_identical_trajectory(self, built_presets):
        sol = built_presets["fig1"]
        runs = []
        for _ in range(2):
            ens = init_ensemble(sol, 2000, 0.3, seed=77)
            ens = propagate(ens, sol, 0.45)
            runs.append(ens)
        assert np.array_equal(runs[0].positions, runs[1].positions)

    def test_different_seeds_differ(self, built_presets):
        sol = built_presets["fig1"]
        a = init_ensemble(sol, 2000, 0.3, seed=1)
        b = init_ensemble(sol, 2000, 0.3, seed=2)
        assert not np.array_equal(a.positions, b.positions)


def propagated(sol, t0, seed):
    """Four chunks, of 49,153 or 49,154 paths, over the first 20 steps."""
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
            assert runs[workers].t == runs[1].t

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_run_under_the_callers_errstate(self, built_presets, monkeypatch, workers):
        """np.errstate does not reach pool threads by itself: every work unit
        of propagate and every part of init_ensemble's lookup, inline or
        threaded, sees the caller's settings."""
        advance, interp, seen = sde._advance, np.interp, {"units": [], "parts": []}

        def recording_advance(*args):
            seen["units"].append(np.geterr()["invalid"])
            return advance(*args)

        def recording_interp(*args):
            seen["parts"].append(np.geterr()["invalid"])
            return interp(*args)

        monkeypatch.setattr(sde, "_advance", recording_advance)
        monkeypatch.setattr(np, "interp", recording_interp)
        monkeypatch.setattr(sde, "_worker_count", lambda: workers)
        sol, n = built_presets["fig1"], 3 * CHUNK_PATHS
        with np.errstate(all="raise"):
            ens = init_ensemble(sol, n, 0.3, seed=5)
            propagate(ens, sol, 0.31)
        # three chunks make two units; parts hold DRAW_PATHS / (2 workers) paths
        assert seen == {"units": ["raise"] * 2,
                        "parts": ["raise"] * -(-n // (DRAW_PATHS // (2 * workers)))}

    @pytest.mark.parametrize("n", [1, CHUNK_PATHS, CHUNK_PATHS + 1, 200_000, 3 * CHUNK_PATHS + 7])
    def test_equal_chunks_set_by_the_path_count(self, built_presets, monkeypatch, n):
        """ceil(n / CHUNK_PATHS) streams handed to _advance, one per chunk,
        whose sizes differ by one path at most and fill each work unit."""
        advance, streams = sde._advance, []

        def recording(z, unit_streams, *args):
            assert sum(size for _, size in unit_streams) == z.size
            streams.extend(unit_streams)
            return advance(z, unit_streams, *args)

        monkeypatch.setattr(sde, "_advance", recording)
        sol = built_presets["fig1"]
        step_ensemble(init_ensemble(sol, n, 0.3, seed=3), sol, 1e-4)
        sizes = [size for _, size in streams]
        assert len(sizes) == -(-n // CHUNK_PATHS)
        assert len({id(rng) for rng, _ in streams}) == len(sizes)
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("n", [3 * CHUNK_PATHS + 7, 200_000])
    def test_units_step_like_chunks_alone(self, built_presets, monkeypatch, n):
        """Work units of one or two chunks give, at 1, 2 and 4 workers, the
        bits of each chunk stepped alone with its own stream."""
        sol, t0 = built_presets["fig1"], PRESETS["fig1"].times[0]
        t_end = t0 + 0.02
        advance, setup = sde._advance, []

        def recording(z, streams, *args):
            setup.append(args)
            return advance(z, streams, *args)

        monkeypatch.setattr(sde, "_advance", recording)
        runs = {}
        for workers in (1, 2, 4):
            monkeypatch.setattr(sde, "_worker_count", lambda w=workers: w)
            # a fresh ensemble each: the chunks' streams are spawned from ens.rng
            runs[workers] = propagate(init_ensemble(sol, n, t0, seed=31), sol, t_end)
        ens = init_ensemble(sol, n, t0, seed=31)
        n_chunks = -(-n // CHUNK_PATHS)
        starts = [n * i // n_chunks for i in range(n_chunks)] + [n]
        expected = np.empty(n)
        for rng, a, b in zip(ens.rng.spawn(n_chunks), starts, starts[1:]):
            z = ens.positions[a:b] * t0**-sol.alpha
            advance(z, [(rng, b - a)], *setup[0])
            expected[a:b] = np.clip(z, sol.z_lo, sol.z_hi) * t_end**sol.alpha
        for workers, out in runs.items():
            assert out.positions.tobytes() == expected.tobytes(), workers

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig5"])
    def test_seed_fixes_results(self, built_presets, name):
        sol, t0 = built_presets[name], PRESETS[name].times[0]
        a, b = propagated(sol, t0, seed=41), propagated(sol, t0, seed=41)
        assert np.array_equal(a.positions, b.positions)
        c = propagated(sol, t0, seed=42)
        assert not np.array_equal(a.positions, c.positions)


class TestPathDtype:
    @pytest.mark.parametrize("name", list(PRESETS))
    def test_float32_paths_follow_float64_paths(self, built_presets, monkeypatch, name):
        """The verify ensemble stepped in float32 stays within 1e-5 of the
        domain's width of the same stream stepped in float64."""
        sol = built_presets[name]
        runs = {}
        for dtype in (np.float32, np.float64):
            monkeypatch.setattr(sde, "PATH_DTYPE", dtype)
            # a fresh ensemble each: the chunks' streams are spawned from ens.rng
            runs[dtype] = verify_run(name, sol)
        lo, hi = truncated_positions(sol, runs[np.float64].t)
        gap = float(np.abs(runs[np.float32].positions - runs[np.float64].positions).max())
        assert 0.0 < gap <= 1e-5 * (hi - lo)


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
        ens = PathEnsemble(positions=np.array([2.0]), t=t, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="ensemble time"):
            step_ensemble(ens, sol, 1e-3)
        with pytest.raises(ValueError, match="ensemble time"):
            propagate(ens, sol, 1.0)

    @pytest.mark.parametrize("noise", [1.0, 0.5])
    def test_nan_position_fails_the_boundary_tests(self, built_presets, noise):
        sol = built_presets["fig1"]
        sol = dataclasses.replace(sol, diffusion_coefs=tuple(noise * c for c in sol.diffusion_coefs))
        ens = init_ensemble(sol, 100, 0.3, seed=1)
        positions = ens.positions.copy()
        positions[57] = math.nan
        ens = dataclasses.replace(ens, positions=positions)
        with pytest.raises(RuntimeError, match="NaN"):
            step_ensemble(ens, sol, 1e-3)

    @pytest.mark.parametrize("name, kwargs", [
        ("t_end", {"t_end": math.nan}),
        ("t_end", {"t_end": math.inf}),
        ("ds_max", {"ds_max": math.nan}),
        ("ds_max", {"ds_max": 0.0}),
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
        ens = propagate(ens, sol, 0.5, ds_max=0.0025)
        assert histogram_distance(ens, sol, 60) <= 0.05

    def test_quadrupling_paths_halves_distance(self, built_presets):
        sol = built_presets["fig1"]
        dists = {}
        for n in (4000, 16000):
            vals = []
            for seed in range(5):
                ens = init_ensemble(sol, n, 0.3, seed=seed)
                ens = propagate(ens, sol, 0.5)
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
        ens = propagate(ens, sol, 0.7)
        assert histogram_distance(ens, sol, 40) <= 0.08

    def test_validation(self, built_presets):
        sol = built_presets["fig1"]
        ens = init_ensemble(sol, 100, 0.3, seed=1)
        with pytest.raises(ValueError):
            histogram_distance(ens, sol, 5)
        empty = PathEnsemble(positions=np.array([]), t=0.3, rng=np.random.default_rng(0))
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
        ens = verify_run("fig1", sol, ds_max=0.04)
        x2, df, p = chi_square(ens, sol, load_preset_config("fig1").n_bins)
        assert p < 1e-12, (x2, df)
