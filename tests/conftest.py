import numpy as np
import pytest

from fpmb import PRESETS, ClassI, ClassII, ClassIII, build_solution, preset_solution


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
