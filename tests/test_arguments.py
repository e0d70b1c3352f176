"""Every entry point refuses a bad count or time with a ValueError that names
the argument, before numpy meets the value, and a time whose t^alpha is out
of float range; the evaluators are 0 off the domain, at x = +-inf, NaN and
a finite x too large for x / t^alpha included."""

import dataclasses
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

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
    interior_points,
    mass,
    moment,
)
from fpmb.cli import load_preset_config
from fpmb.pde import (
    evolve,
    fpe_residual_at,
    make_grid,
    probe_window,
    transformed_operator,
    uniform_field,
)
from fpmb.sde import (
    PathEnsemble,
    histogram_distance,
    histogram_table,
    init_ensemble,
    propagate,
    step_ensemble,
)
from fpmb.solutions import truncated_positions


def _preset(built_presets, name):
    """A preset with a valid ensemble and operator to pass the bad values to."""
    sol = built_presets[name]
    return SimpleNamespace(sol=sol, ens=init_ensemble(sol, 100, PRESETS[name].times[0], seed=1),
                           op=transformed_operator(sol, 16))


@pytest.fixture(scope="module")
def fig1(built_presets):
    return _preset(built_presets, "fig1")


@pytest.fixture(scope="module", params=["fig1", "fig2"])
def fig1_or_fig2(built_presets, request):
    """fig1 (alpha 2) and fig2 (alpha -2)."""
    return _preset(built_presets, request.param)


def _at_time(t):
    """An ensemble of fig1 at time t, which may be bad."""
    return PathEnsemble(positions=np.array([2.0]), t=t, rng=np.random.default_rng(0))


# entry point: (argument name, call of (the fig1 fixture, bad value))
COUNTS = {
    "moment": ("k", lambda c, v: moment(c.sol, v, 0.5)),
    "interior_points": ("n", lambda c, v: interior_points(c.sol, v)),
    "make_grid": ("n_cells", lambda c, v: make_grid(c.sol, v)),
    "transformed_operator": ("n_cells", lambda c, v: transformed_operator(c.sol, v)),
    "evolve": ("n_steps", lambda c, v: evolve(c.op, uniform_field(c.op.grid), v, 0.05)),
    "init_ensemble-paths": ("n_paths", lambda c, v: init_ensemble(c.sol, v, 0.3, 1)),
    "init_ensemble-seed": ("seed", lambda c, v: init_ensemble(c.sol, 10, 0.3, v)),
    "histogram_distance": ("n_bins", lambda c, v: histogram_distance(c.ens, c.sol, v)),
    "histogram_table": ("n_bins", lambda c, v: histogram_table(c.ens, c.sol, v)),
}

TIMES = {
    "density": ("t", lambda c, v: density(c.sol, 2.0, v)),
    "current": ("t", lambda c, v: current(c.sol, 2.0, v)),
    "current_from_definition": ("t", lambda c, v: current_from_definition(c.sol, 2.0, v)),
    "coefficients": ("t", lambda c, v: coefficients(c.sol, 2.0, v)),
    "mass": ("t", lambda c, v: mass(c.sol, v)),
    "moment": ("t", lambda c, v: moment(c.sol, 1, v)),
    "boundary_positions": ("t", lambda c, v: boundary_positions(c.sol, v)),
    "truncated_positions": ("t", lambda c, v: truncated_positions(c.sol, v)),
    "evolve": ("ds", lambda c, v: evolve(c.op, uniform_field(c.op.grid), 10, v)),
    "fpe_residual_at-h": ("h", lambda c, v: fpe_residual_at(c.sol, 2.0, 0.5, v, 0.01)),
    "fpe_residual_at-dt": ("dt", lambda c, v: fpe_residual_at(c.sol, 2.0, 0.5, 0.01, v)),
    "probe_window-h": ("h", lambda c, v: probe_window(c.sol, 0.5, v, 0.01)),
    "probe_window-dt": ("dt", lambda c, v: probe_window(c.sol, 0.5, 0.01, v)),
    "init_ensemble": ("t0", lambda c, v: init_ensemble(c.sol, 10, v, 1)),
    "propagate-t_end": ("t_end", lambda c, v: propagate(c.ens, c.sol, v)),
    "propagate-ds_max": ("ds_max", lambda c, v: propagate(c.ens, c.sol, 0.31, ds_max=v)),
    "propagate-ens.t": ("ensemble time t", lambda c, v: propagate(_at_time(v), c.sol, 0.31)),
    "step_ensemble-dt": ("dt", lambda c, v: step_ensemble(c.ens, c.sol, v)),
    "step_ensemble-ens.t": ("ensemble time t",
                            lambda c, v: step_ensemble(_at_time(v), c.sol, 0.01)),
    "histogram_distance-ens.t": ("ensemble time t",
                                 lambda c, v: histogram_distance(_at_time(v), c.sol, 10)),
}

# entry point whose time meets alpha: (the time's name, call of (a preset, time))
SCALED_TIMES = {
    **{entry: TIMES[entry] for entry in (
        "density", "current", "current_from_definition", "coefficients", "mass", "moment",
        "boundary_positions", "truncated_positions", "init_ensemble", "propagate-t_end",
        "propagate-ens.t", "step_ensemble-ens.t", "histogram_distance-ens.t")},
    "step_ensemble-dt": ("t_end", TIMES["step_ensemble-dt"][1]),
    "fpe_residual_at-t": ("t", lambda c, v: fpe_residual_at(c.sol, 2.0, v, 0.01, 0.01)),
    "probe_window-t": ("t", lambda c, v: probe_window(c.sol, v, 0.01, 0.01)),
}


def _refused(call, fixture, value, message):
    """The message of the ValueError that ``call`` raises at ``value``,
    with a numpy warning made an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{message}") as info:
            call(fixture, value)
    return str(info.value)


@pytest.mark.parametrize("value", [2.5, 1e3, math.nan, -1, "3", True])
@pytest.mark.parametrize("entry", COUNTS)
def test_count_is_a_whole_number(fig1, entry, value):
    name, call = COUNTS[entry]
    message = _refused(call, fig1, value, f"need a whole number {name} >= ")
    assert message.endswith(f", got {value!r}")


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, "0.5", "abc", True])
@pytest.mark.parametrize("entry", TIMES)
def test_time_is_finite_and_positive(fig1, entry, value):
    name, call = TIMES[entry]
    message = _refused(call, fig1, value, f"need a finite {name} > 0")
    assert message.endswith(f", got {value!r}")


@pytest.mark.parametrize("entry", SCALED_TIMES)
def test_time_with_t_alpha_out_of_range(fig1_or_fig2, entry):
    """t = 1e200 overflows t^2 and underflows t^-2 to 0."""
    name, call = SCALED_TIMES[entry]
    alpha = fig1_or_fig2.sol.alpha
    message = _refused(call, fig1_or_fig2, 1e200, f"need {name}\\^alpha in float range")
    assert message.endswith(f", got {name}=1e+200, alpha={alpha!r}")


def _alpha_004(built_presets):
    """fig1's model at alpha = 0.04, whose t^(alpha - 1) alone overflows at t = 5e-324."""
    return build_solution(0.04, built_presets["fig1"].class_params)


# a larger power of t out of float range where t^alpha is in it:
# (model, call of (solution, time), time, the power as the message writes it)
POWERS = {
    "coefficients-D2-fig1": (lambda b: b["fig1"], lambda sol, t: coefficients(sol, 2.0, t),
                             1e150, "(2 alpha - 1)"),
    "coefficients-D2-fig2": (lambda b: b["fig2"], lambda sol, t: coefficients(sol, 2.0, t),
                             1e100, "(2 alpha - 1)"),
    "coefficients-D1": (_alpha_004, lambda sol, t: coefficients(sol, 0.0, t),
                        5e-324, "(alpha - 1)"),
    "moment-fig1": (lambda b: b["fig1"], lambda sol, t: moment(sol, 3, t), 1e100, "(3 alpha)"),
    "moment-fig2": (lambda b: b["fig2"], lambda sol, t: moment(sol, 3, t), 1e100, "(3 alpha)"),
    "RunConfig-fig1": (lambda b: b["fig1"], lambda sol, t: dataclasses.replace(
        load_preset_config("fig1"), times=(0.3, t)), 1e150, "(2 alpha - 1)"),
    "RunConfig-fig2": (lambda b: b["fig2"], lambda sol, t: dataclasses.replace(
        load_preset_config("fig2"), times=(0.3, t)), 1e100, "(2 alpha - 1)"),
}


@pytest.mark.parametrize("entry", POWERS)
def test_larger_power_of_t_out_of_range(built_presets, entry):
    """Each power of t is gated where it is formed: D1's t^(alpha - 1), D2's
    t^(2 alpha - 1) and the moment's t^(k alpha), and RunConfig refuses
    the times whose D1 or D2 factor is out of float range."""
    model, call, t, power = POWERS[entry]
    sol = model(built_presets)
    name = "times" if entry.startswith("RunConfig") else "t"
    message = _refused(call, sol, t, f"need {name}\\^{re.escape(power)} in float range")
    assert message.endswith(f", got {name}={t!r}, alpha={sol.alpha!r}")


# a model number: (its name, call of a bad value)
MODEL_NUMBERS = {
    "alpha": lambda v: build_solution(v, PRESETS["fig1"].params),
    "z1": lambda v: ClassI(z1=v, z2=4.0, a1=1.0, a2=0.5),
    "z2": lambda v: ClassII(z2=v, a1=1.0, a2=0.5, beta=-1.0),
    "a1": lambda v: ClassIII(z1=0.5, a1=v, a2=0.5, beta=1.0),
    "beta": lambda v: ClassIII(z1=0.5, a1=1.0, a2=0.5, beta=v),
}


@pytest.mark.parametrize("value", ["1.0", True, np.True_, None],
                         ids=["str", "bool", "numpy-bool", "None"])
@pytest.mark.parametrize("name", MODEL_NUMBERS)
def test_model_number_is_a_real_number(name, value):
    """alpha and the family parameters pass the gate that times and counts
    pass: a string or a bool is refused by name, not taken as a number."""
    must = "finite and nonzero" if name == "alpha" else "finite"
    message = _refused(lambda _, v: MODEL_NUMBERS[name](v), None, value, f"{name} must be {must}")
    assert message.endswith(f", got {value!r}")


def test_model_numbers_are_kept_as_floats():
    sol = build_solution(2, ClassI(z1=np.int64(1), z2=4, a1=1, a2=np.float32(0.5)))
    numbers = [sol.alpha, *dataclasses.astuple(sol.class_params), *sum(sol.factors, ())]
    assert all(type(v) is float for v in numbers)
    assert sol == build_solution(2.0, PRESETS["fig1"].params)


def test_numpy_integers_are_counts(fig1):
    sol = fig1.sol
    assert np.array_equal(interior_points(sol, np.int64(7)), interior_points(sol, 7))
    assert moment(sol, np.int64(1), 0.5) == moment(sol, 1, 0.5)


# (preset, time): each preset at its first time, where x = 1e308 gives
# z = inf on fig5's half line, and fig5 at t = 1, where z = 1e308 is finite
# and on the half line, past the float range of its profiles
OFF_DOMAIN = {name: (name, spec.times[0]) for name, spec in PRESETS.items()}
OFF_DOMAIN["fig5-t1"] = ("fig5", 1.0)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 1e308, -1e308])
@pytest.mark.parametrize("case", OFF_DOMAIN)
def test_evaluators_are_zero_off_the_domain(built_presets, case, x):
    name, t = OFF_DOMAIN[case]
    sol = built_presets[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = {
            "density": density(sol, x, t),
            "current": current(sol, x, t),
            "current_from_definition": current_from_definition(sol, x, t),
            "D1": coefficients(sol, x, t)[0],
            "D2": coefficients(sol, x, t)[1],
        }
    assert values == dict.fromkeys(values, 0.0)
    assert current(sol, x, t) == current_from_definition(sol, x, t)


@pytest.mark.parametrize("name", PRESETS)
def test_current_off_the_domain_in_an_array(built_presets, name):
    """Non-finite points are 0 in an array too, and the others keep their values."""
    sol = built_presets[name]
    t = PRESETS[name].times[0]
    lo, hi = truncated_positions(sol, t)
    finite = np.linspace(lo - 1.0, hi + 1.0, 41)
    x = np.concatenate([finite, [math.inf, -math.inf, math.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        j = current(sol, x, t)
        j_def = current_from_definition(sol, x, t)
    assert np.array_equal(j[:-3], current(sol, finite, t))
    assert np.all(j[-3:] == 0.0) and np.all(j_def[-3:] == 0.0)
