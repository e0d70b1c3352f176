import math

import numpy as np
import pytest

from fpmb import specfun
from fpmb.specfun import (
    integrate_adaptive,
    kummer_1f1,
    ln_beta,
    ln_gamma,
    tricomi_u,
    whittaker_w,
)


def exp_integral_e1(x):
    """Series oracle for E1(x), usable for moderate x."""
    euler_gamma = 0.5772156649015329
    total = 0.0
    fact = 1.0
    for k in range(1, 80):
        fact *= k
        total += (-1) ** (k + 1) * x**k / (k * fact)
    return -euler_gamma - math.log(x) + total


class TestLnGamma:
    def test_known_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_accuracy_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        xs = np.geomspace(1e-3, 1e3, 300)
        with mpmath.workdps(40):
            refs = [float(mpmath.loggamma(mpmath.mpf(float(x)))) for x in xs]
        for x, ref in zip(xs, refs):
            assert ln_gamma(float(x)) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_arguments(self, x):
        with pytest.raises(ValueError):
            ln_gamma(x)


def beta(p, q):
    return math.exp(ln_beta(p, q))


class TestBeta:
    def test_known_values(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
        assert beta(2.0, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-13)
        # Gamma recurrence by hand: Gamma(3.5) = (5/2)(3/2)(1/2) sqrt(pi)
        assert beta(2.0, 1.5) == pytest.approx(4.0 / 15.0, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            p, q = rng.uniform(1e-3, 10.0, size=2)
            assert beta(p, q) == pytest.approx(beta(q, p), rel=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            beta(0.0, 1.0)
        with pytest.raises(ValueError):
            beta(1.0, -2.0)


class TestKummer:
    def test_known_values(self):
        assert kummer_1f1(3.7, 1.2, 0.0) == 1.0
        assert kummer_1f1(1.0, 1.0, 2.0) == pytest.approx(math.exp(2.0), rel=1e-12)
        # 1F1(1; 2; x) = (e^x - 1) / x
        assert kummer_1f1(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_transformation_self_consistency(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            a = rng.uniform(0.05, 5.0)
            b = rng.uniform(a + 0.05, 10.0)
            x = rng.uniform(0.05, 20.0)
            lhs = kummer_1f1(a, b, -x) * math.exp(x)
            rhs = kummer_1f1(b - a, b, x)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_rejects_pole(self):
        with pytest.raises(ValueError):
            kummer_1f1(1.0, 0.0, 1.0)

    def test_iteration_cap_is_a_loud_failure(self, monkeypatch):
        import fpmb.specfun as specfun

        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 5)
        with pytest.raises(specfun.ConvergenceError):
            kummer_1f1(1.0, 1.0, 30.0)

    def test_moderate_large_argument(self):
        # 1F1(1; 1; x) = e^x stays accurate out to the stated range
        assert kummer_1f1(1.0, 1.0, 50.0) == pytest.approx(math.exp(50.0), rel=1e-10)


class TestTricomi:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_reciprocal_case(self, x):
        # U(1, 2, x) = 1/x
        assert tricomi_u(1.0, 2.0, x) == pytest.approx(1.0 / x, rel=1e-10)

    def test_exponential_integral_case(self):
        # U(1, 1, x) = e^x E1(x)
        assert tricomi_u(1.0, 1.0, 1.0) == pytest.approx(
            math.e * exp_integral_e1(1.0), rel=1e-10
        )

    def test_singular_endpoint_case_against_tight_quadrature(self):
        a, b, x = 0.5, 1.0, 1.0
        val = tricomi_u(a, b, x)

        def integrand(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore"):
                return np.exp(-x * t + (a - 1.0) * np.log(t) + (b - a - 1.0) * np.log1p(t))

        ref = integrate_adaptive(integrand, 0.0, math.inf, 1e-13,
                                 endpoint_power=a - 1.0)
        assert ref.converged
        assert val == pytest.approx(ref.value * math.exp(-ln_gamma(a)), rel=1e-9)

    def test_matches_independent_quadrature_on_random_draws(self):
        rng = np.random.default_rng(7)
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
            assert ref.converged
            assert val == pytest.approx(ref.value * math.exp(-ln_gamma(a)), rel=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            tricomi_u(-1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            tricomi_u(1.0, 2.0, 0.0)


class TestWhittaker:
    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_pure_exponential_case(self, x):
        # W_{0, 1/2}(x) = e^{-x/2}
        assert whittaker_w(0.0, 0.5, x) == pytest.approx(math.exp(-0.5 * x), rel=1e-10)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            whittaker_w(0.0, 0.5, 0.0)


class TestIntegrateAdaptive:
    def test_polynomial(self):
        res = integrate_adaptive(lambda x: x**2, 0.0, 1.0, 1e-12)
        assert res.converged
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert res.evaluations >= 15
        assert res.abs_error_estimate >= 0.0

    def test_endpoint_singularity_with_hint(self):
        res = integrate_adaptive(lambda x: x**-0.5, 0.0, 1.0, 1e-12, endpoint_power=-0.5)
        assert res.converged
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_endpoint_singularity_without_hint(self):
        res = integrate_adaptive(lambda x: x**-0.5, 0.0, 1.0, 1e-9)
        assert res.converged
        assert res.value == pytest.approx(2.0, abs=1e-8)

    def test_semi_infinite(self):
        res = integrate_adaptive(lambda x: np.exp(-x) * x, 0.0, math.inf, 1e-12)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_exhaustion_reports_failure_flag(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_PANELS", 5)
        res = integrate_adaptive(lambda x: np.abs(x) ** -0.9, 0.0, 1.0, 1e-14)
        assert not res.converged
        assert res.abs_error_estimate > 1e-14
        assert math.isfinite(res.value)

    def test_rejects_bad_limits_and_tolerances(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 1.0, 0.0, 1e-8)
        for rtol in (0.0, -1e-8, math.nan):
            with pytest.raises(ValueError, match="rtol must be positive"):
                integrate_adaptive(lambda x: x, 0.0, 1.0, rtol)


class TestAdaptiveMatchesPanelByPanel:
    """``_adapt`` evaluates both halves of a split in one integrand call; every
    result equals, to the bit, that of one call per panel (the
    ``adapt_against_reference`` fixture compares each ``_adapt`` call)."""

    @pytest.mark.parametrize("g, lo, hi, rtol, power, max_panels", [
        pytest.param(lambda x: x**2, 0.0, 1.0, 1e-12, None, None, id="polynomial"),
        pytest.param(lambda x: x**-0.5, 0.0, 1.0, 1e-12, -0.5, None, id="endpoint-power"),
        pytest.param(lambda x: x**-0.5, 0.0, 1.0, 1e-9, None, None, id="singular-no-hint"),
        pytest.param(lambda x: np.exp(-x) * x, 0.0, math.inf, 1e-12, None, None, id="tail"),
        pytest.param(lambda x: np.exp(-x) * x**-0.3, 0.0, math.inf, 1e-12, -0.3, None,
                     id="endpoint-power-and-tail"),
        pytest.param(lambda x: np.abs(x) ** -0.9, 0.0, 1.0, 1e-14, None, 5,
                     id="capped-unconverged"),
        pytest.param(lambda x: np.sin(40.0 * x) ** 2, -1.0, 2.0, 1e-13, None, None,
                     id="oscillatory-rtol"),
    ])
    def test_test_integrands(self, g, lo, hi, rtol, power, max_panels,
                             adapt_against_reference, monkeypatch):
        if max_panels is not None:
            monkeypatch.setattr(specfun, "_MAX_PANELS", max_panels)
        res = integrate_adaptive(g, lo, hi, rtol, endpoint_power=power)
        assert adapt_against_reference
        if max_panels is not None:
            assert not res.converged

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", "fig5"])
    def test_solution_quadratures(self, name, built_presets, adapt_against_reference):
        from fpmb import solutions

        sol = built_presets[name]
        for t in (0.3, 1.0):
            solutions.mass(sol, t)
        solutions._reduced_mass(sol)
        solutions._reduced_mass(sol, weight_power=1)
        solutions.effective_upper.__wrapped__(sol)
        # two halves for each of mass x2 and _reduced_mass x2, plus the
        # tail quadratures of effective_upper on the half line
        assert len(adapt_against_reference) >= 8

    def test_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match="length-15 array to a length-15 array"):
            integrate_adaptive(lambda x: x[:-1], 0.0, 1.0, 1e-12)
        # the first split sends both halves' 30 nodes in one call
        with pytest.raises(ValueError, match="length-30 array to a length-30 array"):
            integrate_adaptive(lambda x: x**-0.5 if x.size == 15 else x[:-1], 0.0, 1.0, 1e-12)
