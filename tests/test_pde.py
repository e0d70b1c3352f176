import dataclasses
import math

import numpy as np
import pytest

from numpy.polynomial.polynomial import polyder, polyval

from fpmb import build_solution, ClassI, ClassII, ClassIII, reduced_density
from fpmb.solutions import TAIL_MASS, truncated_positions
from fpmb.pde import (
    MASS_DRIFT_TOL,
    DiscreteOperator,
    FieldOnGrid,
    ZGrid,
    evolve,
    fpe_residual_at,
    l1_distance,
    make_grid,
    probe_window,
    stationary_field,
    transformed_operator,
    uniform_field,
)
from fpmb.specfun import integrate_adaptive


def dense_operator(op):
    """The tridiagonal operator as a dense matrix, from its three diagonals."""
    return np.diag(op.diag) + np.diag(op.lower[1:], -1) + np.diag(op.upper[:-1], 1)


class TestZGrid:
    def test_geometry(self):
        grid = ZGrid(1.0, 4.0, 6)
        assert grid.faces[0] == 1.0 and grid.faces[-1] == 4.0
        assert np.all(np.diff(grid.faces) > 0)
        np.testing.assert_allclose(np.diff(grid.faces), grid.h)
        np.testing.assert_allclose(grid.centers, 0.5 * (grid.faces[:-1] + grid.faces[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ZGrid(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            ZGrid(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            ZGrid(0.0, math.inf, 10)

    def test_half_line_truncation_tail_mass(self, built_presets):
        sol = built_presets["fig5"]
        grid = make_grid(sol, 50)
        res = integrate_adaptive(
            lambda z: np.asarray(reduced_density(sol, z)), grid.z_hi, math.inf, 0.0, rtol=1e-6
        )
        assert TAIL_MASS / 100 <= res.value <= TAIL_MASS


class TestOperator:
    def test_column_sums_telescope(self, built_presets):
        for sol in built_presets.values():
            grid = make_grid(sol, 100)
            op = transformed_operator(sol, grid)
            col_sums = dense_operator(op).sum(axis=0)
            scale = float(np.abs(op.diag).max())
            assert float(np.abs(col_sums).max()) <= 1e-14 * scale

    def test_uniform_field_conserves_mass_per_step(self, built_presets):
        grid = make_grid(built_presets["fig1"], 128)
        op = transformed_operator(built_presets["fig1"], grid)
        u0 = uniform_field(grid)
        masses = []
        evolve(op, u0, 0.05, 0.05, on_step=lambda s, m, v: masses.append(m))
        assert abs(masses[-1] - u0.mass(grid)) <= 1e-14

    def test_stationary_profile_has_zero_flux(self, built_presets):
        for sol in built_presets.values():
            grid = make_grid(sol, 100)
            op = transformed_operator(sol, grid)
            y = stationary_field(sol, grid).values
            flux_scale = float(np.max(grid.h * op.coeff_right * np.append(y, 0.0)))
            assert float(np.abs(op.face_flux(y)).max()) <= 1e-12 * max(flux_scale, 1.0)

    def test_discrete_stationarity_bounded_by_h_squared(self, built_presets):
        for name in ("fig1", "fig3", "fig5"):
            sol = built_presets[name]
            for n in (100, 200, 400):
                grid = make_grid(sol, n)
                op = transformed_operator(sol, grid)
                y = stationary_field(sol, grid).values
                l1 = float(np.abs(op.apply(y)).sum() * grid.h)
                assert l1 <= 1e-2 * grid.h**2

    def test_nan_diffusion_rejected(self, built_presets):
        sol = built_presets["fig1"]
        tampered = dataclasses.replace(sol, diffusion_coefs=(math.nan,) + sol.diffusion_coefs[1:])
        with pytest.raises(ValueError, match="diffusion profile must be positive"):
            transformed_operator(tampered, make_grid(sol, 64))

    def test_grid_domain_mismatch_rejected(self, built_presets):
        sol = built_presets["fig1"]
        with pytest.raises(ValueError):
            transformed_operator(sol, ZGrid(1.5, 4.0, 50))
        with pytest.raises(ValueError):
            transformed_operator(sol, ZGrid(1.0, 3.5, 50))


def peclet_models(built_presets):
    """The presets plus two random models per family, alpha of both signs."""
    rng = np.random.default_rng(20261018)
    models = list(built_presets.values())
    for sign in (1.0, -1.0):
        alpha = sign * rng.uniform(0.3, 3.0)
        z1 = rng.uniform(-3.0, 2.0)
        a1, a2 = rng.uniform(0.4, 4.0, size=2)
        models.append(build_solution(alpha, ClassI(
            z1=z1, z2=z1 + rng.uniform(0.5, 4.0), a1=a1, a2=a2)))
        a1, a2 = rng.uniform(0.4, 4.0, size=2)
        models.append(build_solution(alpha, ClassII(
            z2=rng.uniform(0.5, 5.0), a1=a1, a2=a2, beta=rng.uniform(-3.0, 3.0))))
        a1, a2 = rng.uniform(0.4, 4.0, size=2)
        models.append(build_solution(alpha, ClassIII(
            z1=rng.uniform(0.0, 2.0), a1=a1, a2=a2, beta=rng.uniform(0.3, 3.0))))
    return models


class TestExactPeclet:
    def test_face_peclet_matches_quadrature(self, built_presets):
        # reference: the integral of (rho2' - q) / rho2 (that is, of -f)
        # between adjacent cell centers, by quadrature of the coefficient
        # polynomials
        for sol in peclet_models(built_presets):
            drift, diffusion = sol.drift_coefs, sol.diffusion_coefs

            def ratio(z):
                w = polyval(z, polyder(diffusion)) - polyval(z, drift)
                return w / polyval(z, diffusion)

            grid = make_grid(sol, 400)
            op = transformed_operator(sol, grid)
            c = grid.centers
            ref = np.array([
                integrate_adaptive(ratio, lo, hi, 1e-16, rtol=1e-14).value
                for lo, hi in zip(c[:-1], c[1:])
            ])
            # B(-pe) / B(pe) = e^pe for the Bernoulli weights of each face
            peclet = np.log(op.coeff_right[1:-1] / op.coeff_left[1:-1])
            assert np.max(np.abs(peclet - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestEvolve:
    def test_started_from_stationary_stays_there(self, built_presets):
        sol = built_presets["fig1"]
        grid = make_grid(sol, 400)
        op = transformed_operator(sol, grid)
        y = stationary_field(sol, grid)
        y0 = FieldOnGrid(y.values / (y.values.sum() * grid.h), 0.0)
        final = evolve(op, y0, 10.0, 0.05)
        assert l1_distance(final.values, y.values, grid) <= 5e-4

    def test_uniform_start_reaches_stationary(self, built_presets):
        sol = built_presets["fig1"]
        grid = make_grid(sol, 400)
        op = transformed_operator(sol, grid)
        u0 = uniform_field(grid)
        drifts = []
        masses = [u0.mass(grid)]

        def record(s, m, v):
            drifts.append(abs(m - masses[-1]))
            masses.append(m)

        final = evolve(op, u0, 10.0, 0.05, on_step=record)
        y = stationary_field(sol, grid).values
        assert l1_distance(final.values, y, grid) <= 1e-3
        assert max(drifts) <= 1e-12
        assert final.values.min() >= 0.0

    @pytest.mark.parametrize("ds", [0.05, 1.0])
    @pytest.mark.parametrize("n_cells", [400, 1600])
    def test_mass_conserved_regardless_of_step(self, built_presets, ds, n_cells):
        sol = built_presets["fig1"]
        grid = make_grid(sol, n_cells)
        op = transformed_operator(sol, grid)
        u0 = uniform_field(grid)
        drifts = []
        masses = [u0.mass(grid)]

        def record(s, m, v):
            drifts.append(abs(m - masses[-1]))
            masses.append(m)

        evolve(op, u0, 3.0, ds, on_step=record)
        assert max(drifts) <= 1e-12

    def test_distinct_initial_conditions_converge_together(self, built_presets, triangle_field):
        sol = built_presets["fig1"]
        grid = make_grid(sol, 200)
        op = transformed_operator(sol, grid)
        finals = [
            evolve(op, ic, 10.0, 0.05).values
            for ic in (
                uniform_field(grid),
                triangle_field(grid, peak="left"),
                triangle_field(grid, peak="right"),
            )
        ]
        assert l1_distance(finals[0], finals[1], grid) <= 1e-3
        assert l1_distance(finals[0], finals[2], grid) <= 1e-3
        assert l1_distance(finals[1], finals[2], grid) <= 1e-3

    def test_stationary_error_refinement_order(self, built_presets):
        # interior accuracy is second order; endpoint exponents >= 1 keep the
        # measured L1 order above 1.8
        for name in ("fig3", "fig5"):
            sol = built_presets[name]
            errs = []
            for n in (100, 200, 400):
                grid = make_grid(sol, n)
                op = transformed_operator(sol, grid)
                y = stationary_field(sol, grid)
                y0 = FieldOnGrid(y.values / (y.values.sum() * grid.h), 0.0)
                final = evolve(op, y0, 10.0, 0.1)
                errs.append(l1_distance(final.values, y.values, grid))
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
            assert min(orders) >= 1.8

    def test_validation(self, built_presets):
        sol = built_presets["fig1"]
        grid = make_grid(sol, 64)
        op = transformed_operator(sol, grid)
        with pytest.raises(ValueError):
            evolve(op, uniform_field(grid), 1.0, 0.0)
        with pytest.raises(ValueError):
            evolve(op, FieldOnGrid(np.ones(10), 0.0), 1.0, 0.1)
        bad = FieldOnGrid(-uniform_field(grid).values, 0.0)
        with pytest.raises(ValueError):
            evolve(op, bad, 1.0, 0.1)

    def test_nan_initial_field_rejected(self, built_presets):
        sol = built_presets["fig1"]
        grid = make_grid(sol, 64)
        values = uniform_field(grid).values.copy()
        values[5] = math.nan
        with pytest.raises(ValueError, match="non-negative"):
            evolve(transformed_operator(sol, grid), FieldOnGrid(values, 0.0), 1.0, 0.1)

    def test_nan_operator_fails_the_mass_drift_test(self, built_presets):
        sol = built_presets["fig1"]
        grid = make_grid(sol, 64)
        op = transformed_operator(sol, grid)
        coeff_right = op.coeff_right.copy()
        coeff_right[10] = math.nan
        with pytest.raises(RuntimeError, match="mass drift nan"):
            evolve(DiscreteOperator(grid, coeff_right, op.coeff_left),
                   uniform_field(grid), 1.0, 0.1)

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", "fig5"])
    def test_needs_no_extended_precision(self, built_presets, name, monkeypatch):
        """Where long double is plain double (arm64 macOS, MSVC), stiff steps
        still conserve mass: one refinement pass in flux form suffices."""
        monkeypatch.setattr(np, "longdouble", np.float64)
        sol = built_presets[name]
        grid = make_grid(sol, 1600)
        u0 = uniform_field(grid)
        drifts = []
        masses = [u0.mass(grid)]

        def record(s, m, v):
            drifts.append(abs(m - masses[-1]) / masses[-1])
            masses.append(m)

        evolve(transformed_operator(sol, grid), u0, 10.0, 1.0, on_step=record)
        assert len(drifts) == 10
        assert max(drifts) <= 0.1 * MASS_DRIFT_TOL

    @pytest.mark.parametrize("name, s_end, ds", [
        ("ds", 1.0, math.nan),
        ("ds", 1.0, math.inf),
        ("s_end", math.nan, 0.1),
        ("s_end", math.inf, 0.1),
    ])
    def test_rejects_non_finite_time_arguments(self, built_presets, name, s_end, ds):
        sol = built_presets["fig1"]
        grid = make_grid(sol, 64)
        with pytest.raises(ValueError, match=name):
            evolve(transformed_operator(sol, grid), uniform_field(grid), s_end, ds)


class TestEvolveMatchesDenseSolve:
    """Every implicit step against a dense LU solve of the same system.

    ``evolve`` refines a step with one pass whose residual is taken in
    flux form, so the dense reference gets one pass of the same refinement
    in double: at ds = 1.0 a plain double solve of I - ds L lies up to
    6e-13 (relative L1) from the refined step.
    """

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", "fig5"])
    def test_steps_match_dense_solve(self, built_presets, name, monkeypatch):
        from fpmb import pde

        sol = built_presets[name]
        grid = make_grid(sol, 400)
        n = grid.n_cells
        op = transformed_operator(sol, grid)
        lap = dense_operator(op)
        factorize = pde.splu
        factorizations = []

        def counting(*args):
            factorizations.append(args)
            return factorize(*args)

        monkeypatch.setattr(pde, "splu", counting)
        # at ds = 1.0 the steps on fig1-fig4 are stiff enough to run refinement passes
        for ds in (0.05, 1.0):
            factorizations.clear()
            steps = []
            u0 = uniform_field(grid)
            evolve(op, u0, 10 * ds, ds, on_step=lambda s, m, v: steps.append((m, v.copy())))
            assert len(steps) == 10
            assert len(factorizations) == 1
            system = np.eye(n) - ds * lap
            u, mass_before = u0.values, u0.mass(grid)
            for mass_after, v in steps:
                expected = np.linalg.solve(system, u)
                expected = expected + np.linalg.solve(
                    system, u - expected + ds * op.apply(expected))
                assert np.abs(v - expected).sum() <= 1e-13 * np.abs(expected).sum()
                assert abs(mass_after - mass_before) <= 1e-12 * mass_before
                assert mass_after == v.sum() * grid.h
                u, mass_before = v, mass_after


class TestResidualOriginalCoordinates:
    @pytest.mark.parametrize("name,t", [("fig1", 0.4), ("fig4", 0.6)])
    def test_max_norm_ratio_is_second_order(
            self, built_presets, name, t, residual_original_coordinates):
        sol = built_presets[name]
        lo, hi = truncated_positions(sol, t)
        h = 0.005 * (hi - lo)
        dt = 0.005 * t
        r1 = residual_original_coordinates(sol, h, t, dt)
        r2 = residual_original_coordinates(sol, 0.5 * h, t, 0.5 * dt)
        assert 3.6 <= r1 / r2 <= 4.4

    def test_smooth_model_midpoint_residual_decays(self):
        sol = build_solution(2.0, ClassI(z1=0.0, z2=2.0, a1=2.0, a2=2.0))
        t = 1.0
        x_mid = 1.0
        res = [abs(fpe_residual_at(sol, x_mid, t, h, 0.01 * h)) for h in (0.04, 0.02, 0.01)]
        assert res[1] < res[0] and res[2] < res[1]
        assert res[2] < res[0] / 10.0  # two halvings of an order-2 stencil

    def test_rejects_bad_steps(self, built_presets, residual_original_coordinates):
        sol = built_presets["fig1"]
        with pytest.raises(ValueError):
            fpe_residual_at(sol, 2.0, 0.5, 0.01, 0.6)
        with pytest.raises(ValueError):
            residual_original_coordinates(sol, -0.1, 0.5, 0.01)

    @pytest.mark.parametrize("name, h, dt", [("h", math.nan, 0.01), ("dt", 0.01, math.nan)])
    def test_probe_window_names_non_finite_step(self, built_presets, name, h, dt):
        with pytest.raises(ValueError, match=f"finite {name} "):
            probe_window(built_presets["fig1"], 0.5, h, dt)


class TestEvolveMatchesStepByStep:
    """``evolve`` does its step bookkeeping in blocks; its steps, masses,
    final field, errors and solve count are those of the step-by-step oracle
    (``reference_evolve``), to the bit."""

    @staticmethod
    def _run(fn, op, u0, s_end, ds, monkeypatch):
        """(on_step arguments, final values or the error, solves), solves
        counted through ``pde.splu``."""
        from fpmb import pde

        factorize = pde.splu
        solves = []

        def counting(*args):
            lu = factorize(*args)
            return type(lu)(solve=lambda rhs: solves.append(1) or lu.solve(rhs))

        monkeypatch.setattr(pde, "splu", counting)
        steps = []
        try:
            out = fn(op, u0, s_end, ds, on_step=lambda s, m, v: steps.append((s, m, v)))
        except RuntimeError as exc:
            out = str(exc)
        monkeypatch.setattr(pde, "splu", factorize)
        return steps, out, len(solves)

    @staticmethod
    def _assert_same_steps(steps, expected):
        assert [(s, m) for s, m, _ in steps] == [(s, m) for s, m, _ in expected]
        for (_, _, v), (_, _, w) in zip(steps, expected):
            assert np.array_equal(v, w)
        # each step's values are its own: no two kept arrays overlap in memory
        spans = sorted((v.__array_interface__["data"][0], v.nbytes) for _, _, v in steps)
        assert all(a + size <= b for (a, size), (b, _) in zip(spans, spans[1:]))

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", "fig5"])
    @pytest.mark.parametrize("n_cells", [400, 1600])
    @pytest.mark.parametrize("ds", [0.05, 1.0])
    def test_same_bits(self, built_presets, name, n_cells, ds, reference_evolve, monkeypatch):
        sol = built_presets[name]
        grid = make_grid(sol, n_cells)
        op = transformed_operator(sol, grid)
        u0 = uniform_field(grid)
        steps, final, solves = self._run(evolve, op, u0, 10.0, ds, monkeypatch)
        expected, expected_final, expected_solves = self._run(
            reference_evolve, op, u0, 10.0, ds, monkeypatch)
        self._assert_same_steps(steps, expected)
        assert np.array_equal(final.values, expected_final)
        assert final.time_s == 10.0
        # a refined step drops the plain solves made after it in its block,
        # so only a run whose steps switch from plain to refined solves more
        assert expected_solves <= solves <= 1.05 * expected_solves
        if n_cells == 400:
            assert solves == expected_solves

    @pytest.mark.parametrize("tamper, message", [
        ("flipped", "positivity violated"), ("skewed", "mass drift"),
    ])
    def test_tampered_operator_raises_at_the_same_step(
            self, built_presets, tamper, message, reference_evolve, monkeypatch):
        sol = built_presets["fig1"]
        grid = make_grid(sol, 400)
        op = transformed_operator(sol, grid)
        if tamper == "flipped":
            # a sign-flipped face coefficient drives a cell negative after
            # some dozens of steps, inside a block of plain solves
            coeff_right = op.coeff_right.copy()
            coeff_right[399] *= -1e-3
            bad = DiscreteOperator(grid, coeff_right, op.coeff_left)
        else:
            # the step matrix is off the flux form the residual is taken
            # in, so refinement cannot bring the first step's drift down
            class Skewed(DiscreteOperator):
                @property
                def diag(self):
                    return super().diag * (1.0 + 1e-3 * np.linspace(0.0, 1.0, grid.n_cells))

            bad = Skewed(grid, op.coeff_right, op.coeff_left)
        u0 = uniform_field(grid)
        steps, error, _ = self._run(evolve, bad, u0, 10.0, 0.05, monkeypatch)
        expected, expected_error, _ = self._run(reference_evolve, bad, u0, 10.0, 0.05, monkeypatch)
        assert error.startswith(message)
        assert error == expected_error
        self._assert_same_steps(steps, expected)
        assert (len(steps) > 1) == (tamper == "flipped")
