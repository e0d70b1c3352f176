import dataclasses
import math

import numpy as np
import pytest

from numpy.polynomial.polynomial import polyadd, polyder, polymul, polyval

from fpmb import (
    PRESETS,
    ClassI,
    ClassII,
    ClassIII,
    build_solution,
    coefficients,
    interior_points,
)
from fpmb.solutions import f
from fpmb.scaling import check_alpha, drift_from_f


class TestMakeExponents:
    """The one scaling exponent, alpha, as ``check_alpha`` admits it."""

    @pytest.mark.parametrize("alpha", [0.0, math.nan, math.inf, -math.inf])
    def test_rejects_degenerate_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            check_alpha(alpha)
        with pytest.raises(ValueError, match="alpha"):
            build_solution(alpha, PRESETS["fig1"].params)


def assert_transcribed(sol, transcribed_profiles):
    """Generated coefficients, with rho1 = q + alpha z, equal the `fpmb info`
    formulas to rounding."""
    q0, q1, q2 = sol.drift_coefs
    generated = ((q0, q1 + sol.alpha, q2), sol.diffusion_coefs)
    for got, want in zip(generated, transcribed_profiles(sol.alpha, sol.class_params)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * max(map(abs, want)))


class TestDriftFromF:
    def test_two_boundary_profile(self, transcribed_profiles):
        z1, z2, a1, a2 = 1.0, 4.0, 1.0, 0.5
        # f rho2 = a1 (z2 - z) - a2 (z - z1)
        q = drift_from_f((a1 * z2 + a2 * z1, -a1 - a2, 0.0), (-z1 * z2, z1 + z2, -1.0))
        np.testing.assert_allclose(
            q, [(a1 + 1.0) * z2 + (a2 + 1.0) * z1, -a1 - a2 - 2.0, 0.0], rtol=1e-15)
        for params in (ClassI(z1=z1, z2=z2, a1=a1, a2=a2),
                       ClassI(z1=-2.0, z2=0.0, a1=2.5, a2=0.7)):
            for alpha in (2.0, -0.5):
                assert_transcribed(build_solution(alpha, params), transcribed_profiles)

    def test_fixed_origin_profile(self, transcribed_profiles):
        z2, a1, a2, beta, alpha = 1.0, 1.0, 0.5, -1.0, 2.0
        # f rho2 = a1 (z2 - z) - a2 z + beta z (z2 - z)
        q = drift_from_f((a1 * z2, -a1 - a2 + beta * z2, -beta), (0.0, z2, -1.0))
        np.testing.assert_allclose(
            q, [(a1 + 1.0) * z2, -a1 - a2 - 2.0 + beta * z2, -beta], rtol=1e-15)
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
        # f = 0 under unit diffusion: no reduced drift, rho1 = alpha z is all scaling
        assert drift_from_f((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)


def _polynomial_profiles(params):
    """(q, rho2) formed from the linear factors with numpy.polynomial, each
    padded with +0.0 to three coefficients: the reference for the triples."""
    factors, rate, _, _ = params.linear_factors()
    (r1, s1, a1), (r2, s2, a2) = factors
    l1, l2 = np.array([-s1 * r1, s1]), np.array([-s2 * r2, s2])
    rho2 = polymul(l1, l2)
    f_rho2 = polyadd(polyadd(a1 * s1 * l2, a2 * s2 * l1), rate * rho2)
    q = polyadd(f_rho2, polyder(rho2))
    return tuple(tuple(map(float, c)) + (0.0,) * (3 - len(c)) for c in (q, rho2))


# models whose products meet a zero coefficient, where the sign of a zero
# depends on how each sum starts: a root at 0 on either side, beta = +-0
ZERO_CASES = [
    ClassI(z1=0.0, z2=2.0, a1=1.0, a2=0.5),
    ClassI(z1=-2.0, z2=0.0, a1=0.5, a2=1.0),
    ClassI(z1=-1.0, z2=1.0, a1=1.0, a2=1.0),
    ClassII(z2=1.0, a1=1.0, a2=0.5, beta=0.0),
    ClassII(z2=1.0, a1=1.0, a2=1.0, beta=-0.0),
    ClassIII(z1=0.0, a1=1.0, a2=0.5, beta=1.0),
]


def test_profiles_match_polynomial_products_to_the_bit(built_presets, random_models):
    sols = [*built_presets.values(), *random_models,
            *(build_solution(2.0, params) for params in ZERO_CASES)]
    for sol in sols:
        got = tuple(tuple(v.hex() for v in c) for c in (sol.drift_coefs, sol.diffusion_coefs))
        want = tuple(tuple(v.hex() for v in c) for c in _polynomial_profiles(sol.class_params))
        assert got == want, sol.class_params


class TestProfileRoundTrip:
    def test_f_recovered_from_profiles(self, built_presets):
        # f = (q - rho2') / rho2 must hold identically
        for sol in built_presets.values():
            z = interior_points(sol, 1000)
            q = polyval(z, sol.drift_coefs)
            rho2_prime = polyval(z, polyder(sol.diffusion_coefs))
            recovered = (q - rho2_prime) / polyval(z, sol.diffusion_coefs)
            direct = f(sol, z)
            err = np.abs(recovered - direct) / (1.0 + np.abs(direct))
            assert float(err.max()) <= 1e-12


class TestAlphaEntersOnlyThroughTheMap:
    """The reduced model is alpha-free; alpha enters through x = z t^alpha."""

    def test_reduced_model_does_not_depend_on_alpha(self, built_presets, random_models):
        for sol in [*built_presets.values(), *random_models]:
            flipped = build_solution(-sol.alpha, sol.class_params)
            assert flipped.alpha == -sol.alpha
            assert dataclasses.replace(flipped, alpha=sol.alpha) == sol

    def test_drift_coefficient_is_q_plus_alpha_z(self, built_presets, random_models):
        for sol in [*built_presets.values(), *random_models]:
            for t in (0.3, 1.0, 3.0):
                z = interior_points(sol, 200)
                x = z * t**sol.alpha
                d1, _ = coefficients(sol, x, t)
                z = x / t**sol.alpha
                q0, q1, q2 = sol.drift_coefs
                want = t ** (sol.alpha - 1.0) * (polyval(z, sol.drift_coefs) + sol.alpha * z)
                scale = t ** (sol.alpha - 1.0) * (
                    abs(q0) + np.abs(z) * (abs(q1) + abs(sol.alpha)) + z * z * abs(q2))
                assert np.all(np.abs(d1 - want) <= 1e-14 * scale)
