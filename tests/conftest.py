import pytest

from fpmb import PRESETS, ClassI, ClassII, preset_solution


@pytest.fixture(scope="session")
def built_presets():
    """Every named preset built once for the whole run."""
    return {name: preset_solution(name) for name in PRESETS}


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
