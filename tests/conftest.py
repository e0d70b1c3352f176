import math

import numpy as np
import pytest

from fpmb import PRESETS, ClassI, ClassII, ClassIII, build_solution, preset_solution
from fpmb.specfun import kummer_1f1, ln_beta, ln_gamma, whittaker_w


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
