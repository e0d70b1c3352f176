"""Every entry point refuses a bad count or time with a ValueError that names
the argument, before numpy meets the value, and a time whose t^alpha is out
of float range; an evaluator refuses, naming t, a D1, D2 or J out of float
range on the domain; the evaluators are 0 off the domain, at x = +-inf, NaN
and a finite x too large for x / t^alpha included."""

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
from fpmb.solutions import reduced_density, truncated_positions


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
    "RunConfig": ("times", lambda c, v: dataclasses.replace(load_preset_config("fig1"),
                                                            times=(0.3, v))),
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


# an int that no float can hold
INT_PAST_FLOAT = pytest.param(10**400, id="int-past-float")


@pytest.mark.parametrize("value", [2.5, 1e3, math.nan, -1, "3", True])
@pytest.mark.parametrize("entry", COUNTS)
def test_count_is_a_whole_number(fig1, entry, value):
    name, call = COUNTS[entry]
    message = _refused(call, fig1, value, f"need a whole number {name} >= ")
    assert message.endswith(f", got {value!r}")


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, "0.5", "abc", True,
                                   INT_PAST_FLOAT])
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


def _alpha_05(built_presets):
    """fig1's model at alpha = 0.5, whose t^alpha is in float range at t = 1e-310, but not 1 / t."""
    return build_solution(0.5, built_presets["fig1"].class_params)


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
    # J's factor: alpha / t in current, 1 / t in current_from_definition,
    # at a point on the domain
    "current": (_alpha_05, lambda sol, t: current(sol, 2.0 * t**sol.alpha, t), 1e-310, "(-1)"),
    "current_from_definition": (_alpha_05, lambda sol, t: current_from_definition(
        sol, 2.0 * t**sol.alpha, t), 1e-310, "(-1)"),
    "RunConfig-J": (_alpha_05, lambda sol, t: dataclasses.replace(
        load_preset_config("fig1"), alpha=0.5, times=(0.3, t)), 1e-310, "(-1)"),
}


@pytest.mark.parametrize("entry", POWERS)
def test_larger_power_of_t_out_of_range(built_presets, entry):
    """Each power of t is gated where it is formed: D1's t^(alpha - 1), D2's
    t^(2 alpha - 1), J's t^-1 and the moment's t^(k alpha), and RunConfig
    refuses the times whose D1, D2 or J factor is out of float range."""
    model, call, t, power = POWERS[entry]
    sol = model(built_presets)
    name = "times" if entry.startswith("RunConfig") else "t"
    message = _refused(call, sol, t, f"need {name}\\^{re.escape(power)} in float range")
    assert message.endswith(f", got {name}={t!r}, alpha={sol.alpha!r}")


# a product of a power of t and a profile out of float range where each
# factor is in it: (model, call of (solution, time), time, the product)
PRODUCTS = {
    # D1 = t^(alpha - 1) rho1 overflows in the bulk of the domain (z = 2 of [1, 1e4])
    "D1-bulk": (lambda b: build_solution(0.01, ClassI(1.0, 1e4, 1.0, 0.5)),
                lambda sol, t: coefficients(sol, 2.0 * t**sol.alpha, t), 5e-308, "D1"),
    "D1-mid": (lambda b: build_solution(0.01, ClassI(1.0, 100.0, 1.0, 0.5)),
               lambda sol, t: coefficients(sol, 50.0 * t**sol.alpha, t), 1e-310, "D1"),
    # fig5 at t = 2: z = 7.5e153 keeps rho2 in float range, but not 8 rho2
    "D2-half-line": (lambda b: b["fig5"], lambda sol, t: coefficients(sol, 3e154, t), 2.0, "D2"),
    # J = alpha z y / t with 1 / t in range, z = 1000.5 and y = 1.5
    "J": (lambda b: build_solution(0.5, ClassI(1000.0, 1001.0, 1.0, 1.0)),
          lambda sol, t: current(sol, 1000.5 * t**sol.alpha, t), 1e-306, "J"),
    "J-definition": (lambda b: build_solution(0.5, ClassI(1000.0, 1001.0, 1.0, 1.0)),
                     lambda sol, t: current_from_definition(sol, 1000.5 * t**sol.alpha, t),
                     1e-306, "J"),
}


@pytest.mark.parametrize("entry", PRODUCTS)
def test_product_out_of_range_on_the_domain(built_presets, entry):
    """A D1, D2 or J that leaves float range at a point of the domain is
    refused, naming t, rather than returned as inf or NaN."""
    model, call, t, what = PRODUCTS[entry]
    sol = model(built_presets)
    message = _refused(call, sol, t, f"need {what} in float range on the domain")
    assert message.endswith(f", got t={t!r}, alpha={sol.alpha!r}")


@pytest.mark.parametrize("beta", [1e-16, 1e-20, 1e-100, 1e-200])
def test_tiny_beta_is_refused_without_a_warning(beta):
    """The tail map meets a node that rounds to u = 1, and an integrand past
    float range: the build refuses the model by name, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeError, match=re.escape(
                f"normalization quadrature failed for ClassIII(z1=0.5, a1=1.0, a2=0.5, "
                f"beta={beta!r})")):
            build_solution(1.0, ClassIII(0.5, 1.0, 0.5, beta))


# a model number: (its name, call of a bad value)
MODEL_NUMBERS = {
    "alpha": lambda v: build_solution(v, PRESETS["fig1"].params),
    "z1": lambda v: ClassI(z1=v, z2=4.0, a1=1.0, a2=0.5),
    "z2": lambda v: ClassII(z2=v, a1=1.0, a2=0.5, beta=-1.0),
    "a1": lambda v: ClassIII(z1=0.5, a1=v, a2=0.5, beta=1.0),
    "beta": lambda v: ClassIII(z1=0.5, a1=1.0, a2=0.5, beta=v),
}


@pytest.mark.parametrize("value", ["1.0", True, np.True_, None, 10**400],
                         ids=["str", "bool", "numpy-bool", "None", "int-past-float"])
@pytest.mark.parametrize("name", MODEL_NUMBERS)
def test_model_number_is_a_real_number(name, value):
    """alpha and the family parameters pass the gate that times and counts
    pass: a string, a bool or an int that no float holds is refused by
    name, not taken as a number."""
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


# (model, time): each preset at its first time, where x = 1e308 gives
# z = inf on fig5's half line; fig5 at t = 1, where z = 1e308 is finite
# and on the half line, past the float range of its profiles; and a half
# line with beta = 3, where beta z = 3e308 is past float range too
OFF_DOMAIN = {name: (lambda b, name=name: b[name], spec.times[0])
              for name, spec in PRESETS.items()}
OFF_DOMAIN["fig5-t1"] = (lambda b: b["fig5"], 1.0)
OFF_DOMAIN["III-beta3-t1"] = (lambda b: build_solution(2.0, ClassIII(0.5, 1.0, 0.5, 3.0)), 1.0)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 1e308, -1e308])
@pytest.mark.parametrize("case", OFF_DOMAIN)
def test_evaluators_are_zero_off_the_domain(built_presets, case, x):
    model, t = OFF_DOMAIN[case]
    sol = model(built_presets)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = {
            "density": density(sol, x, t),
            "reduced_density": reduced_density(sol, x),
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
