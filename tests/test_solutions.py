import math
import pickle

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from fpmb import (
    PRESETS,
    ClassI,
    ClassII,
    ClassIII,
    boundary_positions,
    build_solution,
    coefficients,
    current,
    current_from_definition,
    density,
    effective_upper,
    first_integral_residual,
    interior_points,
    mass,
    mirror,
    moment,
    preset_solution,
    reduced_density,
    reduced_ode_residual,
)
from fpmb.solutions import TAIL_MASS, rho2, truncated_positions


def random_params(rng, family):
    if family == "I":
        z1 = rng.uniform(-3.0, 2.0)
        return ClassI(z1=z1, z2=z1 + rng.uniform(0.5, 4.0),
                      a1=rng.uniform(0.4, 4.0), a2=rng.uniform(0.4, 4.0))
    if family == "II":
        return ClassII(z2=rng.uniform(0.5, 5.0), a1=rng.uniform(0.4, 4.0),
                       a2=rng.uniform(0.4, 4.0), beta=rng.uniform(-3.0, 3.0))
    return ClassIII(z1=rng.uniform(0.0, 2.0), a1=rng.uniform(0.4, 4.0),
                    a2=rng.uniform(0.4, 4.0), beta=rng.uniform(0.3, 3.0))


def random_alpha(rng):
    alpha = rng.uniform(0.3, 3.0)
    return alpha if rng.uniform() < 0.5 else -alpha


class TestParameterValidation:
    def test_exponents_must_be_positive(self):
        with pytest.raises(ValueError):
            ClassI(z1=0.0, z2=1.0, a1=0.0, a2=1.0)
        with pytest.raises(ValueError):
            ClassII(z2=1.0, a1=1.0, a2=-0.5, beta=0.0)

    def test_ordering_and_domain_restrictions(self):
        with pytest.raises(ValueError):
            ClassI(z1=2.0, z2=1.0, a1=1.0, a2=1.0)
        with pytest.raises(ValueError):
            ClassII(z2=-1.0, a1=1.0, a2=1.0, beta=0.0)
        with pytest.raises(ValueError):
            ClassIII(z1=-0.5, a1=1.0, a2=1.0, beta=1.0)
        with pytest.raises(ValueError):
            ClassIII(z1=0.5, a1=1.0, a2=1.0, beta=0.0)

    @pytest.mark.parametrize("family, params, name", [
        pytest.param(ClassIII, dict(z1=0.5, a1=1.0, a2=1.0, beta=math.inf), "beta", id="III-beta"),
        pytest.param(ClassIII, dict(z1=math.inf, a1=1.0, a2=1.0, beta=1.0), "z1", id="III-z1"),
        pytest.param(ClassIII, dict(z1=0.5, a1=-math.inf, a2=1.0, beta=1.0), "a1", id="III-a1"),
        pytest.param(ClassI, dict(z1=1.0, z2=math.inf, a1=1.0, a2=1.0), "z2", id="I-z2"),
        pytest.param(ClassI, dict(z1=1.0, z2=4.0, a1=math.inf, a2=1.0), "a1", id="I-a1"),
        pytest.param(ClassI, dict(z1=math.nan, z2=4.0, a1=1.0, a2=1.0), "z1", id="I-z1-nan"),
        pytest.param(ClassII, dict(z2=math.inf, a1=1.0, a2=1.0, beta=0.5), "z2", id="II-z2"),
        pytest.param(ClassII, dict(z2=2.0, a1=1.0, a2=math.nan, beta=0.5), "a2", id="II-a2-nan"),
    ])
    def test_non_finite_parameter_is_named(self, family, params, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {params[name]!r}$"):
            family(**params)

    def test_subclass_labels(self):
        assert ClassI(z1=1.0, z2=4.0, a1=1.0, a2=1.0).subclass == "i"
        assert ClassI(z1=-4.0, z2=-1.0, a1=1.0, a2=1.0).subclass == "i"
        assert ClassI(z1=0.0, z2=4.0, a1=1.0, a2=1.0).subclass == "ii"
        assert ClassI(z1=-2.0, z2=4.0, a1=1.0, a2=1.0).subclass == "iii"

    def test_build_rejects_zero_alpha(self):
        with pytest.raises(ValueError):
            build_solution(0.0, ClassI(z1=-1.0, z2=1.0, a1=1.0, a2=1.0))


class TestBuild:
    def test_symmetric_parabola_norm(self):
        # int_{-1}^{1} (1 - z^2) dz = 4/3 by hand, so A = 3/4
        sol = build_solution(2.0, ClassI(z1=-1.0, z2=1.0, a1=1.0, a2=1.0))
        assert sol.norm_A == pytest.approx(0.75, rel=1e-12)
        assert sol.norm_A_quadrature == pytest.approx(0.75, rel=1e-11)
        assert sol.norm_A_source == "closed_form"

    def test_half_line_uses_quadrature(self, built_presets):
        sol = built_presets["fig5"]
        assert sol.norm_A_source == "quadrature"
        rel = abs(sol.norm_A_closed - sol.norm_A_quadrature) / sol.norm_A_quadrature
        assert rel <= 1e-8

    def test_half_line_origin_edge_uses_gamma_form(self):
        sol = build_solution(2.0, ClassIII(z1=0.0, a1=1.0, a2=0.5, beta=1.0))
        expected = 1.0**2.5 / math.gamma(2.5)
        assert sol.norm_A_closed == pytest.approx(expected, rel=1e-12)
        rel = abs(sol.norm_A_closed - sol.norm_A_quadrature) / sol.norm_A_quadrature
        assert rel <= 1e-10

    def test_large_exponents_log_space(self):
        sol = build_solution(1.0, ClassI(z1=0.0, z2=2.0, a1=25.0, a2=25.0))
        rel = abs(sol.norm_A_closed - sol.norm_A_quadrature) / sol.norm_A_quadrature
        assert rel <= 1e-10

    def test_closed_form_matches_per_family_formulas(
            self, built_presets, random_models, reference_closed_norm):
        """The Pearson-form reader gives the per-family closed forms to the bit."""
        models = [*built_presets.values(), *random_models,
                  build_solution(1.5, ClassIII(z1=0.0, a1=0.7, a2=1.9, beta=2.2)),
                  build_solution(-0.8, ClassI(z1=-2.5, z2=-0.5, a1=0.6, a2=3.1))]
        for sol in models:
            assert sol.norm_A_closed == reference_closed_norm(sol.class_params), sol.class_params

    @pytest.mark.parametrize("beta", [-700.0, -800.0])
    def test_non_finite_closed_form_names_the_parameters(self, beta):
        """1F1 at b w = -1400 forms e^-1400 * inf; the NaN normalization it
        gives must not build."""
        params = ClassII(z2=2.0, a1=1.0, a2=1.0, beta=beta)
        with pytest.raises(ValueError, match=r"not finite") as info:
            build_solution(2.0, params)
        assert repr(params) in str(info.value)

    def test_origin_edge_two_boundary_matches_fixed_origin_family(self):
        a = build_solution(2.0, ClassI(z1=0.0, z2=2.0, a1=1.5, a2=0.7))
        b = build_solution(2.0, ClassII(z2=2.0, a1=1.5, a2=0.7, beta=0.0))
        x = np.linspace(0.05, 1.95, 31)
        np.testing.assert_allclose(density(a, x, 1.0), density(b, x, 1.0), rtol=1e-12)


class TestDensity:
    def test_boundary_values_are_zero(self, built_presets):
        for sol in built_presets.values():
            for t in (0.3, 1.0, 2.5):
                lo, hi = boundary_positions(sol, t)
                assert density(sol, lo, t) == 0.0
                if math.isfinite(hi):
                    assert density(sol, hi, t) == 0.0
                assert density(sol, lo - 0.1, t) == 0.0

    def test_symmetric_parabola_value(self):
        sol = build_solution(2.0, ClassI(z1=-1.0, z2=1.0, a1=1.0, a2=1.0))
        assert density(sol, 0.0, 1.0) == pytest.approx(0.75, rel=1e-12)

    def test_argmax_tracks_profile_peak(self, built_presets):
        # peak of (z + 2)(4 - z) is z = 1, so the density peaks at x = t^2
        sol = built_presets["fig3"]
        for t in (0.6, 0.8, 1.0):
            lo, hi = boundary_positions(sol, t)
            xs = np.linspace(lo, hi, 400)
            w = density(sol, xs, t)
            x_star = xs[int(np.argmax(w))]
            assert abs(x_star - t**2) <= (hi - lo) / 400

    def test_rejects_nonpositive_time(self, built_presets):
        with pytest.raises(ValueError):
            density(built_presets["fig1"], 1.0, 0.0)
        with pytest.raises(ValueError):
            density(built_presets["fig1"], 1.0, -2.0)

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_scaling_covariance_exact_on_dyadic_inputs(self, built_presets, lam):
        sol = built_presets["fig1"]
        alpha = sol.alpha
        for t in (0.5, 1.0, 2.0):
            for x in (0.25, 0.5, 1.5):
                lhs = density(sol, lam**alpha * x, lam * t)
                rhs = lam**-alpha * density(sol, x, t)
                assert lhs == rhs


class TestCurrent:
    def test_zero_at_origin_and_boundaries(self, built_presets):
        sol = built_presets["fig3"]
        assert current(sol, 0.0, 1.0) == 0.0
        lo, hi = boundary_positions(sol, 1.0)
        assert current(sol, lo, 1.0) == 0.0
        assert current(sol, hi, 1.0) == 0.0

    def test_symmetric_parabola_value(self):
        sol = build_solution(2.0, ClassI(z1=-1.0, z2=1.0, a1=1.0, a2=1.0))
        assert current(sol, 0.5, 1.0) == pytest.approx(0.5625, rel=1e-12)

    def test_matches_defining_combination(self, built_presets):
        for sol in built_presets.values():
            t = 1.3
            x = interior_points(sol, 1000) * t**sol.alpha
            a = np.asarray(current(sol, x, t))
            b = np.asarray(current_from_definition(sol, x, t))
            scale = np.maximum(np.abs(a) + np.abs(b), 1e-300)
            assert float(np.max(np.abs(a - b) / scale)) <= 1e-10


class TestCoefficients:
    def test_diffusion_vanishes_at_endpoints(self, built_presets):
        sol = built_presets["fig1"]
        lo, hi = boundary_positions(sol, 1.0)
        assert coefficients(sol, lo, 1.0)[1] == 0.0
        assert coefficients(sol, hi, 1.0)[1] == 0.0

    def test_diffusion_nonnegative_on_eval_grids(self):
        """D2 >= 0 on the 201-point `fpmb eval` grids of 300 random models,
        and exactly 0 at finite endpoints.

        The models are perfbench's random_model box (seed 2026, families in
        turn).  At model 204 (Class I), t = 0.3, the first grid point lies one
        ulp inside z_lo, where rho2 rounds below zero and D2 is clamped.
        """
        rng = np.random.default_rng(2026)
        for k in range(300):
            alpha = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
            sol = build_solution(alpha, random_params(rng, ("I", "II", "III")[k % 3]))
            for t in (0.3, 1.0, 3.0):
                lo, hi = truncated_positions(sol, t)
                x = np.linspace(lo, hi, 201)
                d2 = coefficients(sol, x, t)[1]
                assert np.all(d2 >= 0.0), (k, t)
                z = x / t**sol.alpha
                on_endpoint = (z == sol.z_lo) | (z == sol.z_hi)
                assert np.all(d2[on_endpoint] == 0.0), (k, t)
                if t == 1.0:  # the grid ends are the endpoints themselves
                    assert np.count_nonzero(on_endpoint) == 1 + math.isfinite(sol.z_hi)
                if k == 204 and t == 0.3:
                    assert z[0] == np.nextafter(sol.z_lo, np.inf) and rho2(sol, z[0]) < 0.0
                    assert d2[0] == 0.0

    def test_drift_value_inside(self, built_presets):
        d1, d2 = coefficients(built_presets["fig1"], 2.0, 1.0)
        assert d1 == pytest.approx(6.5, rel=1e-13)
        assert d2 == pytest.approx(2.0, rel=1e-13)

    def test_drift_finite_at_endpoints(self, built_presets):
        # rho1 extends continuously to the endpoints even though f blows up
        sol = built_presets["fig1"]
        lo, hi = boundary_positions(sol, 1.0)
        assert coefficients(sol, lo, 1.0)[0] == pytest.approx(8.0, rel=1e-12)
        assert coefficients(sol, hi, 1.0)[0] == pytest.approx(3.5, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_drift_at_origin_endpoints(self, built_presets):
        rng = np.random.default_rng(20261017)
        for _ in range(5):
            alpha = random_alpha(rng)
            params = random_params(rng, "II")
            sol = build_solution(alpha, params)
            for t in (0.3, 1.0, 3.0):
                d1, d2 = coefficients(sol, 0.0, t)
                expected = (params.a1 + 1.0) * params.z2 * t ** (alpha - 1.0)
                assert d1 == pytest.approx(expected, rel=1e-12)
                assert d2 == 0.0
            params = ClassIII(z1=0.0, a1=params.a1, a2=params.a2, beta=abs(params.beta) + 0.3)
            sol = build_solution(alpha, params)
            for t in (0.3, 1.0, 3.0):
                assert coefficients(sol, 0.0, t) == (0.0, 0.0)
        for sol in built_presets.values():
            for t in (0.3, 1.0, 3.0):
                for x in boundary_positions(sol, t):
                    if math.isfinite(x):
                        assert all(math.isfinite(c) for c in coefficients(sol, x, t))

    def test_zero_outside_moving_domain(self, built_presets):
        sol = built_presets["fig1"]
        lo, hi = boundary_positions(sol, 0.5)
        assert coefficients(sol, lo - 0.01, 0.5) == (0.0, 0.0)
        assert coefficients(sol, hi + 0.01, 0.5) == (0.0, 0.0)

    def test_diffusion_scaling_covariance(self, built_presets):
        sol = built_presets["fig1"]
        lam, alpha = 2.0, sol.alpha
        for t in (0.5, 1.0):
            for x in (1.5 * t**2, 2.5 * t**2):
                d2_scaled = coefficients(sol, lam**alpha * x, lam * t)[1]
                d2_base = coefficients(sol, x, t)[1]
                assert d2_scaled == pytest.approx(lam ** (2 * alpha - 1) * d2_base, rel=1e-14)


class TestQuadraticProfiles:
    def test_coefficients_reproduce_generated_profiles(self, built_presets, transcribed_profiles):
        rng = np.random.default_rng(20261017)
        sols = list(built_presets.values()) + [
            build_solution(random_alpha(rng), random_params(rng, family))
            for family in ("I", "II", "III")
            for _ in range(5)
        ]
        for sol in sols:
            z = interior_points(sol, 1000)
            transcribed = transcribed_profiles(sol.alpha, sol.class_params)
            # the transcribed drift is rho1 = q + alpha z
            generated = (polyval(z, sol.drift_coefs) + sol.alpha * z,
                         polyval(z, sol.diffusion_coefs))
            for got, ref_coefs in zip(generated, transcribed):
                ref = polyval(z, ref_coefs)
                err = np.max(np.abs(got - ref))
                assert err <= 1e-13 * np.max(np.abs(ref))


class TestPlainValues:
    def test_pickle_round_trip(self, built_presets):
        for name, sol in built_presets.items():
            t = PRESETS[name].times[1]
            x = np.linspace(*truncated_positions(sol, t), 101)
            back = pickle.loads(pickle.dumps(sol))
            assert back == sol
            assert back.drift_coefs == sol.drift_coefs
            np.testing.assert_array_equal(density(back, x, t), density(sol, x, t))
            for got, want in zip(coefficients(back, x, t), coefficients(sol, x, t)):
                np.testing.assert_array_equal(got, want)

    def test_rebuilds_are_equal_and_hash_equal(self):
        for spec in PRESETS.values():
            a = build_solution(spec.alpha, spec.params)
            b = build_solution(spec.alpha, spec.params)
            assert a is not b
            assert a == b and hash(a) == hash(b)


class TestBoundaries:
    def test_growing_domain(self, built_presets):
        assert boundary_positions(built_presets["fig1"], 0.5) == (
            pytest.approx(0.25, rel=1e-15),
            pytest.approx(1.0, rel=1e-15),
        )

    def test_shrinking_domain(self, built_presets):
        lo, hi = boundary_positions(built_presets["fig2"], 1.2)
        assert lo == pytest.approx(1.0 / 1.44, rel=1e-14)
        assert hi == pytest.approx(4.0 / 1.44, rel=1e-14)

    def test_motion_direction_by_alpha_sign(self, built_presets):
        grow = [boundary_positions(built_presets["fig1"], t) for t in (0.3, 0.4, 0.5)]
        assert all(b1[0] < b2[0] and b1[1] < b2[1] for b1, b2 in zip(grow, grow[1:]))
        shrink = [boundary_positions(built_presets["fig2"], t) for t in (1.0, 1.2, 1.4)]
        assert all(b1[0] > b2[0] and b1[1] > b2[1] for b1, b2 in zip(shrink, shrink[1:]))

    def test_fixed_points(self, built_presets):
        for t in (0.4, 1.0, 2.7):
            assert boundary_positions(built_presets["fig4"], t)[0] == 0.0
            assert math.isinf(boundary_positions(built_presets["fig5"], t)[1])


class TestMoments:
    def test_zeroth_moment_is_one(self, built_presets):
        for sol in built_presets.values():
            for t in (0.5, 1.0, 2.0):
                assert moment(sol, 0, t) == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_first_moment_vanishes(self):
        sol = build_solution(2.0, ClassI(z1=-1.0, z2=1.0, a1=1.0, a2=1.0))
        assert moment(sol, 1, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_first_moment_closed_value(self, built_presets):
        # int_1^4 z (z-1) sqrt(4-z) dz = 228 sqrt(3) / 35; with A = 5/(12 sqrt(3))
        # the reduced mean is exactly 19/7
        assert moment(built_presets["fig1"], 1, 1.0) == pytest.approx(19.0 / 7.0, rel=1e-11)
        assert moment(built_presets["fig1"], 1, 0.5) == pytest.approx(
            19.0 / 7.0 * 0.5**2, rel=1e-11
        )

    def test_moment_time_scaling(self, built_presets):
        sol = built_presets["fig5"]
        m2 = moment(sol, 2, 1.0)
        assert moment(sol, 2, 2.0) == pytest.approx(m2 * 2.0 ** (2 * sol.alpha), rel=1e-10)

    def test_rejects_negative_order(self, built_presets):
        with pytest.raises(ValueError):
            moment(built_presets["fig1"], -1, 1.0)


class TestMassAndNorm:
    def test_presets_normalized_in_physical_coordinate(self, built_presets):
        for sol in built_presets.values():
            for t in (0.3, 1.0, 3.0):
                assert mass(sol, t) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("alpha, params, times", [
        *(pytest.param(spec.alpha, spec.params, spec.times, id=name)
          for name, spec in PRESETS.items()),
        pytest.param(-1.5, ClassI(z1=-1.0, z2=2.0, a1=0.45, a2=0.45), (0.3, 1.0, 3.0), id="I"),
        pytest.param(2.5, ClassII(z2=3.0, a1=0.4, a2=0.7, beta=-2.0), (0.3, 1.0, 3.0), id="II"),
        pytest.param(-0.7, ClassIII(z1=0.8, a1=0.4, a2=0.9, beta=1.3), (0.3, 1.0, 3.0),
                     id="III"),
    ])
    def test_mass_treats_singular_endpoints(self, alpha, params, times):
        """mass shares the endpoint powers of the reduced quadrature, so it is
        accurate to a few ulps even where the density is singular."""
        sol = build_solution(alpha, params)
        for t in times:
            assert abs(mass(sol, t) - 1.0) <= 5e-14

    def test_random_models_normalized_and_routes_agree(self):
        rng = np.random.default_rng(20260808)
        for family in ("I", "II", "III"):
            for _ in range(5):
                sol = build_solution(random_alpha(rng), random_params(rng, family))
                rel = abs(sol.norm_A_closed - sol.norm_A_quadrature) / sol.norm_A_quadrature
                assert rel <= (1e-8 if family == "III" else 1e-10)
                assert mass(sol, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_reduced_density_integrates_to_one(self, built_presets):
        sol = built_presets["fig1"]
        z = np.linspace(1.0, 4.0, 200_001)
        assert np.trapezoid(reduced_density(sol, z), z) == pytest.approx(1.0, abs=1e-8)


class TestIdentities:
    def test_first_integral_identity(self, built_presets):
        for sol in built_presets.values():
            z = interior_points(sol, 1000)
            res, scale = first_integral_residual(sol, z)
            assert float(np.max(np.abs(res) / np.maximum(scale, 1e-300))) <= 1e-12

    def test_reduced_ode_residual(self, built_presets):
        for sol in built_presets.values():
            z = interior_points(sol, 1000)
            res, scale = reduced_ode_residual(sol, z)
            assert float(np.max(np.abs(res) / np.maximum(scale, 1e-300))) <= 1e-10

    def test_identities_detect_tampered_drift(self, built_presets):
        import dataclasses

        sol = built_presets["fig1"]
        params = sol.class_params
        bad_drift = (  # q with a1 off by one
            (params.a1 + 2.0) * params.z2 + (params.a2 + 1.0) * params.z1,
            -(params.a1 + 1.0) - params.a2 - 2.0,
            0.0,
        )
        tampered = dataclasses.replace(sol, drift_coefs=bad_drift)
        z = interior_points(tampered, 1000)
        res, scale = first_integral_residual(tampered, z)
        assert float(np.max(np.abs(res) / np.maximum(scale, 1e-300))) > 1e-3


class TestMirror:
    def test_two_boundary_reflection(self, built_presets):
        sol = built_presets["fig1"]
        mirrored = mirror(sol.class_params)
        assert mirrored == ClassI(z1=-4.0, z2=-1.0, a1=0.5, a2=1.0)
        sol_m = build_solution(sol.alpha, mirrored)
        xs = np.linspace(1.1, 3.9, 17)
        np.testing.assert_allclose(
            density(sol_m, -xs, 1.0), density(sol, xs, 1.0), rtol=1e-13
        )

    def test_involution(self):
        p = ClassI(z1=-2.0, z2=1.0, a1=0.7, a2=1.9)
        assert mirror(mirror(p)) == p

    def test_half_line_families_not_closed_under_reflection(self):
        with pytest.raises(ValueError):
            mirror(ClassII(z2=1.0, a1=1.0, a2=1.0, beta=0.5))
        with pytest.raises(ValueError):
            mirror(ClassIII(z1=0.5, a1=1.0, a2=1.0, beta=1.0))


class TestEffectiveUpper:
    def test_finite_domain_passthrough(self, built_presets):
        assert effective_upper(built_presets["fig1"]) == 4.0

    def test_half_line_tail_mass(self, built_presets):
        from fpmb.specfun import integrate_adaptive

        sol = built_presets["fig5"]
        z_max = effective_upper(sol)
        res = integrate_adaptive(
            lambda z: np.asarray(reduced_density(sol, z)), z_max, math.inf, 0.0, rtol=1e-6
        )
        assert res.value <= TAIL_MASS
        assert res.value >= TAIL_MASS / 100  # not absurdly over-truncated


class TestTailContract:
    """A half line is cut just inside TAIL_MASS, in a few tail quadratures."""

    @pytest.fixture(scope="class")
    def half_line_models(self, built_presets, random_models):
        return [
            built_presets["fig5"],
            build_solution(-1.0, ClassIII(z1=0.0, a1=1.5, a2=0.7, beta=2.0)),
            *(sol for sol in random_models if isinstance(sol.class_params, ClassIII)),
            # a Newton search that stops only at g <= 0 stalls here at g = +3.6e-15
            build_solution(1.0200853410496666, ClassIII(
                z1=0.8040989272271994, a1=3.7825332425856715,
                a2=3.8808082947146407, beta=2.4928048267064047)),
            # a bisection at rtol 1e-6 cut this one with 1.00000037 TAIL_MASS beyond
            build_solution(0.8180250848697308, ClassIII(
                z1=0.5551023228271228, a1=0.7564249418415885,
                a2=1.4144611659530022, beta=1.9891491694191572)),
        ]

    def test_tail_beyond_cut_within_budget(self, half_line_models, monkeypatch):
        from fpmb import solutions
        from fpmb.specfun import integrate_adaptive

        quadratures = []

        def counting(*args, **kwargs):
            quadratures.append(args[1])
            return integrate_adaptive(*args, **kwargs)

        monkeypatch.setattr(solutions, "integrate_adaptive", counting)
        for sol in half_line_models:
            quadratures.clear()
            z_cut = effective_upper.__wrapped__(sol)
            assert len(quadratures) <= 8, sol.class_params
            res = integrate_adaptive(
                lambda z: np.asarray(reduced_density(sol, z)), z_cut, math.inf, 0.0, rtol=1e-13
            )
            assert res.converged
            assert TAIL_MASS * (1.0 - 1e-6) <= res.value <= TAIL_MASS, sol.class_params


class TestOneTruncation:
    """Every channel cuts a half line at the same point, found once."""

    @pytest.fixture(scope="class")
    def half_line_models(self, built_presets):
        rng = np.random.default_rng(1907)
        return [
            built_presets["fig5"],
            build_solution(-1.0, ClassIII(z1=0.0, a1=1.5, a2=0.7, beta=2.0)),
            build_solution(random_alpha(rng), random_params(rng, "III")),
        ]

    def test_every_channel_ends_at_effective_upper(self, half_line_models):
        from fpmb import pde, sde

        for sol in half_line_models:
            upper = effective_upper(sol)
            assert pde.make_grid(sol, 64).z_hi == upper
            points = interior_points(sol, 7)
            top = points[-1] + 0.5 * (points[1] - points[0])
            assert top == pytest.approx(upper, rel=1e-14)
            assert sde._cdf_table(sol)[0][-1] == upper
            assert truncated_positions(sol, 1.0)[1] == upper
            for t in (0.3, 2.5):
                x_hi = truncated_positions(sol, t)[1]
                assert x_hi / t**sol.alpha == pytest.approx(upper, rel=1e-15)

    def test_run_checks_cuts_once(self):
        import dataclasses

        from fpmb import cli, sde

        cfg = dataclasses.replace(cli.load_preset_config("fig5"), n_paths=20_000)
        effective_upper.cache_clear()
        sde._cdf_table.cache_clear()
        cli.run_checks(cfg, with_sde=True)
        assert effective_upper.cache_info().misses == 1


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset_solution("fig9")

    def test_preset_parameters(self, built_presets):
        fig4 = built_presets["fig4"]
        assert fig4.class_params == ClassII(z2=1.0, a1=1.0, a2=0.5, beta=-1.0)
        assert fig4.alpha == 2.0
        fig5 = built_presets["fig5"]
        assert fig5.class_params == ClassIII(z1=0.5, a1=1.0, a2=0.5, beta=1.0)
