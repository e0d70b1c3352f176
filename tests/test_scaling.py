import math

import numpy as np
import pytest

from numpy.polynomial.polynomial import polyder, polyval

from fpmb import ClassI, ClassII, ClassIII, build_solution, interior_points
from fpmb.solutions import f
from fpmb.scaling import (
    ScalingExponents,
    drift_from_f,
    make_exponents,
    similarity_variable,
)


class TestMakeExponents:
    def test_positive_alpha(self):
        e = make_exponents(2.0)
        assert (e.a, e.b, e.c, e.d, e.e) == (2.0, 1.0, -2.0, 1.0, 3.0)
        assert e.alpha == 2.0

    def test_negative_alpha(self):
        e = make_exponents(-2.0)
        assert (e.a, e.b, e.c, e.d, e.e) == (-2.0, 1.0, 2.0, -3.0, -5.0)

    @pytest.mark.parametrize("alpha", [0.0, math.nan, math.inf, -math.inf])
    def test_rejects_degenerate_alpha(self, alpha):
        with pytest.raises(ValueError):
            make_exponents(alpha)

    def test_consistency_for_random_alpha(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            alpha = rng.uniform(-5.0, 5.0)
            if abs(alpha) < 1e-3:
                continue
            e = make_exponents(alpha)
            assert e.d == e.a - e.b
            assert e.e == 2.0 * e.a - e.b
            assert e.c == -e.a
            assert e.alpha == e.a / e.b
            # the same relations read the other way hold to rounding
            assert e.b == pytest.approx(e.a - e.d, abs=4e-16 * max(1.0, abs(e.a)))
            assert e.b == pytest.approx(2.0 * e.a - e.e, abs=8e-16 * max(1.0, abs(e.a)))

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            ScalingExponents(a=2.0, b=1.0, c=-2.0, d=0.0, e=3.0, alpha=2.0)
        with pytest.raises(ValueError):
            ScalingExponents(a=2.0, b=1.0, c=2.0, d=1.0, e=3.0, alpha=2.0)
        with pytest.raises(ValueError):
            ScalingExponents(a=0.0, b=1.0, c=0.0, d=-1.0, e=-1.0, alpha=0.0)


class TestSimilarityVariable:
    def test_examples(self):
        assert similarity_variable(4.0, 1.0, 2.0) == 4.0
        assert similarity_variable(1.0, 0.5, 2.0) == 4.0
        assert similarity_variable(1.0, 0.5, -2.0) == 0.25

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            similarity_variable(1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            similarity_variable(1.0, -1.0, 2.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="t="):
            similarity_variable(1.0, t, 2.0)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("x,t", [(4.0, 1.0), (1.0, 0.5), (-3.0, 2.0)])
    def test_scaling_covariance_exact(self, lam, x, t):
        # dyadic inputs: the rescaled evaluation is the same rounded value
        alpha = 2.0
        assert similarity_variable(lam**alpha * x, lam * t, alpha) == similarity_variable(
            x, t, alpha
        )

    def test_scaling_covariance_generic_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(-5.0, 5.0)
            t = rng.uniform(0.1, 3.0)
            alpha = rng.choice([-2.0, -0.5, 1.0, 2.0])
            for lam in (0.5, 2.0, 10.0):
                a = similarity_variable(lam**alpha * x, lam * t, alpha)
                b = similarity_variable(x, t, alpha)
                assert a == pytest.approx(b, rel=5e-15, abs=5e-15)


def assert_transcribed(sol, transcribed_profiles):
    """Generated coefficients equal the `fpmb info` formulas to rounding."""
    generated = (sol.drift_coefs, sol.diffusion_coefs)
    for got, want in zip(generated, transcribed_profiles(sol.alpha, sol.class_params)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * max(map(abs, want)))


class TestDriftFromF:
    def test_two_boundary_profile(self, transcribed_profiles):
        z1, z2, a1, a2, alpha = 1.0, 4.0, 1.0, 0.5, 2.0
        # f rho2 = a1 (z2 - z) - a2 (z - z1)
        rho1 = drift_from_f((a1 * z2 + a2 * z1, -a1 - a2), (-z1 * z2, z1 + z2, -1.0), alpha)
        np.testing.assert_allclose(
            rho1, [(a1 + 1.0) * z2 + (a2 + 1.0) * z1, alpha - a1 - a2 - 2.0], rtol=1e-15)
        for params in (ClassI(z1=z1, z2=z2, a1=a1, a2=a2),
                       ClassI(z1=-2.0, z2=0.0, a1=2.5, a2=0.7)):
            for alpha in (2.0, -0.5):
                assert_transcribed(build_solution(alpha, params), transcribed_profiles)

    def test_fixed_origin_profile(self, transcribed_profiles):
        z2, a1, a2, beta, alpha = 1.0, 1.0, 0.5, -1.0, 2.0
        # f rho2 = a1 (z2 - z) - a2 z + beta z (z2 - z)
        rho1 = drift_from_f((a1 * z2, -a1 - a2 + beta * z2, -beta), (0.0, z2, -1.0), alpha)
        np.testing.assert_allclose(
            rho1, [(a1 + 1.0) * z2, alpha - a1 - a2 - 2.0 + beta * z2, -beta], rtol=1e-15)
        for beta in (-1.0, 0.0, 2.5):
            params = ClassII(z2=z2, a1=a1, a2=a2, beta=beta)
            assert_transcribed(build_solution(alpha, params), transcribed_profiles)

    def test_half_line_profile(self, transcribed_profiles):
        for z1 in (0.0, 0.5, 1.7):
            for alpha in (2.0, -1.3):
                params = ClassIII(z1=z1, a1=1.0, a2=0.5, beta=1.5)
                sol = build_solution(alpha, params)
                assert_transcribed(sol, transcribed_profiles)
        # with z1 = 0 the origin is the left edge and the drift vanishes there
        assert build_solution(2.0, ClassIII(z1=0.0, a1=1.0, a2=0.5, beta=1.5)).drift_coefs[0] == 0.0

    def test_unit_diffusion_whole_line(self):
        alpha = 1.5
        rho1 = drift_from_f((0.0,), (1.0,), alpha)
        np.testing.assert_array_equal(rho1, [0.0, alpha])


class TestProfileRoundTrip:
    def test_f_recovered_from_profiles(self, built_presets):
        # f = (rho1 - rho2' - alpha z) / rho2 must hold identically
        for sol in built_presets.values():
            z = interior_points(sol, 1000)
            rho1 = polyval(z, sol.drift_coefs)
            rho2_prime = polyval(z, polyder(sol.diffusion_coefs))
            recovered = (rho1 - rho2_prime - sol.alpha * z) / polyval(z, sol.diffusion_coefs)
            direct = f(sol, z)
            err = np.abs(recovered - direct) / (1.0 + np.abs(direct))
            assert float(err.max()) <= 1e-12
