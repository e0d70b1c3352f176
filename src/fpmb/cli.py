"""Command-line front end: evaluate densities, reproduce preset curves, and
run the verification channels.

Configs are flat key = value text files (one run per file); the shipped
presets double as integration fixtures.  All CSV output is written with 17
significant digits so downstream diffs are meaningful.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from . import pde, sde
from .scaling import check_alpha
from .solutions import (
    ClassI,
    ClassII,
    ClassIII,
    PRESETS,
    SimilaritySolution,
    SolutionClass,
    build_solution,
    coefficients,
    current,
    current_from_definition,
    density,
    first_integral_residual,
    interior_points,
    mass,
    reduced_ode_residual,
    truncated_positions,
)

__all__ = [
    "RunConfig",
    "CheckResult",
    "parse_config",
    "format_config",
    "load_preset_config",
    "preset_names",
    "run_checks",
    "main",
]


_FAMILIES = {"I": ClassI, "II": ClassII, "III": ClassIII}


@dataclass(frozen=True)
class RunConfig:
    """One run: a model, its evaluation times, and verification knobs."""

    class_name: str
    alpha: float
    a1: float
    a2: float
    times: tuple[float, ...]
    z1: float | None = None
    z2: float | None = None
    beta: float | None = None
    out: str | None = None
    n_cells: int = 400
    n_paths: int = 200_000
    seed: int = 1
    n_bins: int = 60
    tol_mass: float = 1e-8
    tol_identity: float = 1e-10
    tol_attractor: float = 1e-3
    tol_histogram: float = 0.05

    def __post_init__(self) -> None:
        if self.class_name not in _FAMILIES:
            raise ValueError(f"class must be I, II or III, got {self.class_name!r}")
        if not self.times or not all(0.0 < t < math.inf for t in self.times):
            raise ValueError("times must be a non-empty list of finite positive values")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.startswith("tol_") and not 0.0 < value < math.inf:
                raise ValueError(f"{f.name} must be finite and positive, got {value!r}")
        for key, (name, _, minimum) in _KEYS.items():
            value = getattr(self, name)
            if minimum is not None and value < minimum:
                raise ValueError(f"{key!r} must be at least {minimum}, got {value!r}")
        for f in fields(_FAMILIES[self.class_name]):
            if getattr(self, f.name) is None:
                raise ValueError(f"class {self.class_name} requires {f.name}")
        # an inadmissible model fails here, where a config error names its file
        check_alpha(self.alpha)
        self.params()

    def params(self) -> SolutionClass:
        family = _FAMILIES[self.class_name]
        return family(**{f.name: getattr(self, f.name) for f in fields(family)})

    def build(self) -> SimilaritySolution:
        return build_solution(self.alpha, self.params())


def _times(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# config key: (RunConfig field, value parser, smallest value taken or None),
# in field order; a flag named after a key overrides it with the same minimum
_KEYS = {
    "class": ("class_name", str, None),
    "alpha": ("alpha", float, None),
    "a1": ("a1", float, None),
    "a2": ("a2", float, None),
    "times": ("times", _times, None),
    "z1": ("z1", float, None),
    "z2": ("z2", float, None),
    "beta": ("beta", float, None),
    "out": ("out", str, None),
    "cells": ("n_cells", int, 3),
    "paths": ("n_paths", int, 1),
    "seed": ("seed", int, 0),
    "bins": ("n_bins", int, 10),
    "tol_mass": ("tol_mass", float, None),
    "tol_identity": ("tol_identity", float, None),
    "tol_attractor": ("tol_attractor", float, None),
    "tol_histogram": ("tol_histogram", float, None),
}
_FIELD_TO_KEY = {name: key for key, (name, _, _) in _KEYS.items()}


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value config; errors carry the offending line number."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        name, parse, minimum = _KEYS[key]
        if name in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[name] = parse(val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
        if minimum is not None and values[name] < minimum:
            raise ValueError(
                f"line {lineno}: {key!r} must be at least {minimum}, got {values[name]}"
            )
    missing = [_FIELD_TO_KEY[f.name] for f in fields(RunConfig)
               if f.default is MISSING and f.name not in values]
    if missing:
        raise ValueError(f"missing required keys: {', '.join(missing)}")
    return RunConfig(**values)


def format_config(cfg: RunConfig) -> str:
    """Render a config so that parse_config(format_config(cfg)) == cfg."""
    lines = []
    for key, (name, parse, _) in _KEYS.items():
        value = getattr(cfg, name)
        if value is None:
            continue
        if parse is _times:
            rendered = ", ".join(repr(v) for v in value)
        elif parse is str:
            rendered = value
        else:
            rendered = repr(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def preset_names() -> list[str]:
    return sorted(PRESETS)


def load_preset_config(name: str) -> RunConfig:
    """Read the shipped config file for a preset."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {preset_names()}")
    text = resources.files("fpmb").joinpath(f"presets/{name}.cfg").read_text()
    return parse_config(text)


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict.  A check that raised is failed, with measured
    ``inf``, threshold ``n/a`` and the exception's message in ``error``."""

    name: str
    measured: float
    threshold: str
    passed: bool
    error: str | None = None


def _at_most(name: str, measured: float, bound: float) -> CheckResult:
    return CheckResult(name, measured, f"<= {bound:g}", measured <= bound)


def _worst_relative(res, scale) -> float:
    """Largest |res| / scale, with the scale kept off zero."""
    return float(np.max(np.abs(res) / np.maximum(scale, 1e-300)))


def check_normalization(sol: SimilaritySolution, times: Sequence[float], tol: float) -> CheckResult:
    return _at_most("normalization", max(abs(mass(sol, t) - 1.0) for t in times), tol)


def check_norm_agreement(sol: SimilaritySolution) -> CheckResult:
    rel = abs(sol.norm_A_closed - sol.norm_A_quadrature) / sol.norm_A_quadrature
    return _at_most("norm_constant_agreement", rel, 1e-8 if math.isinf(sol.z_hi) else 1e-10)


def check_first_integral(sol: SimilaritySolution, tol: float) -> CheckResult:
    worst = _worst_relative(*first_integral_residual(sol, interior_points(sol, 1000)))
    return _at_most("first_integral_identity", worst, tol)


def check_reduced_ode(sol: SimilaritySolution, tol: float) -> CheckResult:
    worst = _worst_relative(*reduced_ode_residual(sol, interior_points(sol, 1000)))
    return _at_most("reduced_ode_residual", worst, tol)


def check_current_consistency(sol: SimilaritySolution, t: float, tol: float) -> CheckResult:
    x = interior_points(sol, 1000) * t**sol.alpha
    a = np.asarray(current(sol, x, t))
    b = np.asarray(current_from_definition(sol, x, t))
    return _at_most("current_consistency", _worst_relative(a - b, np.abs(a) + np.abs(b)), tol)


def check_fpe_residual_order(sol: SimilaritySolution, t: float) -> CheckResult:
    """Convergence order of the forward-equation residual stencil.

    Residual ratios under simultaneous halving of the space and time steps
    should be 4.0 +/- 0.4 (order two) at interior probe points.
    """
    lo, hi = truncated_positions(sol, t)
    width = hi - lo
    h = 0.01 * width
    dt = 0.01 * t
    window = pde.probe_window(sol, t, h, dt)
    probes = [window[0] + f * (window[1] - window[0]) for f in (0.35, 0.62)]
    r1 = pde.fpe_residual_at(sol, probes, t, h, dt)
    r2 = pde.fpe_residual_at(sol, probes, t, 0.5 * h, 0.5 * dt)
    orders = [math.log2(abs(a) / abs(b)) for a, b in zip(r1, r2)]
    worst = max(orders, key=lambda o: abs(o - 2.0))
    passed = all(1.8 <= o <= 2.2 for o in orders)
    return CheckResult("fpe_residual_order", worst, "in [1.8, 2.2]", passed)


def check_pde_attractor(
    sol: SimilaritySolution,
    n_cells: int,
    tol: float,
    log_rows: list[str] | None = None,
) -> tuple[CheckResult, CheckResult]:
    grid = pde.make_grid(sol, n_cells)
    op = pde.transformed_operator(sol, grid)
    target = pde.stationary_field(sol, grid).values
    u0 = pde.uniform_field(grid)
    drifts: list[float] = []
    masses: list[float] = [u0.mass(grid)]

    def record(s: float, m: float, values: np.ndarray) -> None:
        drifts.append(abs(m - masses[-1]) / masses[-1])
        masses.append(m)
        if log_rows is not None:
            l1 = pde.l1_distance(values, target, grid)
            log_rows.append(",".join(_fmt(v) for v in (s, m, l1)))

    final = pde.evolve(op, u0, 10.0, 0.05, on_step=record)
    return (
        _at_most("pde_attractor_l1", pde.l1_distance(final.values, target, grid), tol),
        _at_most("pde_mass_drift", max(drifts), pde.MASS_DRIFT_TOL),
    )


def check_sde_histogram(
    sol: SimilaritySolution,
    t0: float,
    t1: float,
    n_paths: int,
    n_bins: int,
    seed: int,
    tol: float,
) -> CheckResult:
    ens = sde.init_ensemble(sol, n_paths, t0, seed)
    ens = sde.propagate(ens, sol, t1)
    return _at_most("sde_histogram_l1", sde.histogram_distance(ens, sol, n_bins), tol)


# the errors the library raises on numerics it cannot carry out (StepSizeError
# is a ValueError, ConvergenceError a RuntimeError)
_CHECK_ERRORS = (ValueError, RuntimeError, np.linalg.LinAlgError)


def _reported(names: tuple[str, ...], run) -> list[CheckResult]:
    """The results of ``run()``, or one failed result per name if it raised."""
    try:
        out = run()
    except _CHECK_ERRORS as exc:
        error = f"{type(exc).__name__}: {exc}"
        return [CheckResult(name, math.inf, "n/a", False, error) for name in names]
    return [out] if isinstance(out, CheckResult) else list(out)


def run_checks(
    cfg: RunConfig,
    *,
    with_sde: bool = False,
    pde_log_rows: list[str] | None = None,
) -> list[CheckResult]:
    """All verification checks for one config.  Failures are collected, never
    short-circuited: a check that raises fails, and the others still run."""
    sol = cfg.build()
    t_mid = cfg.times[len(cfg.times) // 2]
    checks = [
        (("normalization",), lambda: check_normalization(sol, cfg.times, cfg.tol_mass)),
        (("norm_constant_agreement",), lambda: check_norm_agreement(sol)),
        (("first_integral_identity",), lambda: check_first_integral(sol, cfg.tol_identity)),
        (("reduced_ode_residual",), lambda: check_reduced_ode(sol, cfg.tol_identity)),
        (("current_consistency",),
         lambda: check_current_consistency(sol, t_mid, cfg.tol_identity)),
        (("fpe_residual_order",), lambda: check_fpe_residual_order(sol, t_mid)),
        (("pde_attractor_l1", "pde_mass_drift"),
         lambda: check_pde_attractor(sol, cfg.n_cells, cfg.tol_attractor,
                                     log_rows=pde_log_rows)),
    ]
    if with_sde:
        checks.append((("sde_histogram_l1",), lambda: check_sde_histogram(
            sol, cfg.times[0], cfg.times[-1], cfg.n_paths, cfg.n_bins, cfg.seed,
            cfg.tol_histogram)))
    return [r for names, run in checks for r in _reported(names, run)]


_NUMBER_SPEC = ".17g"


def _fmt(value: float) -> str:
    return format(value, _NUMBER_SPEC)


def _csv_block(columns: Sequence[np.ndarray]) -> str:
    """CSV rows of equal-length columns, each value as ``_fmt`` writes it,
    built by one ``%`` format over the whole block."""
    table = np.column_stack(columns)
    row = ",".join(["%" + _NUMBER_SPEC] * table.shape[1]) + "\n"
    return (row * table.shape[0]) % tuple(table.ravel().tolist())


def _write_rows(path: str | None, header: str, blocks: Iterable[str]) -> None:
    """Write the header line, then each block of newline-terminated rows."""
    out = sys.stdout if path is None else open(path, "w")
    try:
        out.write(header + "\n")
        for block in blocks:
            out.write(block)
    finally:
        if path is not None:
            out.close()


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.preset is not None and args.config is not None:
        raise SystemExit("use either --preset or --config, not both")
    if args.preset is not None:
        cfg = load_preset_config(args.preset)
    elif args.config is not None:
        with open(args.config) as fh:
            text = fh.read()
        try:
            cfg = parse_config(text)
        except ValueError as exc:
            raise SystemExit(f"{args.config}: {exc}") from None
    else:
        raise SystemExit("one of --preset or --config is required")
    overrides = {_KEYS[key][0]: value for key in _FLAGS
                 if key in _KEYS and (value := getattr(args, key, None)) is not None}
    return replace(cfg, **overrides) if overrides else cfg


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    sol = cfg.build()
    blocks = []
    for t in cfg.times:
        lo, hi = truncated_positions(sol, t)
        x = np.linspace(lo, hi, args.points)
        w = density(sol, x, t)
        d1, d2 = coefficients(sol, x, t)
        blocks.append(_csv_block((np.full_like(x, t), x, w, current(sol, x, t, w), d1, d2)))
    _write_rows(cfg.out, "t,x,W,J,D1,D2", blocks)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    log_rows: list[str] | None = [] if args.pde_log else None
    results = run_checks(cfg, with_sde=args.with_sde, pde_log_rows=log_rows)
    if args.pde_log:
        _write_rows(args.pde_log, "s,mass,l1_to_stationary",
                    ["".join(row + "\n" for row in log_rows)])
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name:<{width}}  measured={r.measured:.6e}  threshold {r.threshold}"
        print(line if r.error is None else f"{line}  error {r.error}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    sol = cfg.build()
    ens = sde.init_ensemble(sol, cfg.n_paths, cfg.times[0], cfg.seed)
    ens = sde.propagate(ens, sol, cfg.times[-1])
    block = _csv_block(sde.histogram_table(ens, sol, cfg.n_bins))
    _write_rows(cfg.out, "bin_center,empirical_density,analytic_density", [block])
    dist = sde.histogram_distance(ens, sol, cfg.n_bins)
    print(f"paths={cfg.n_paths} reflections={ens.n_reflections} l1_distance={dist:.6f}",
          file=sys.stderr)
    return 0


_INFO = {
    "I": """\
Class I: two moving boundaries, reduced domain z1 <= z <= z2 (z1 < z2).
  f(z)    = a1/(z - z1) - a2/(z2 - z)            (a1, a2 > 0)
  rho2(z) = (z - z1)(z2 - z)
  rho1(z) = (alpha - a1 - a2 - 2) z + (a1 + 1) z2 + (a2 + 1) z1
  y(z)    = A (z - z1)^a1 (z2 - z)^a2
  A       = 1 / [ (z2 - z1)^(a1+a2+1) B(a1+1, a2+1) ]
Physical domain [z1 t^alpha, z2 t^alpha]; boundaries move away from the
origin for alpha > 0 and toward it for alpha < 0.  Subclasses by sign of
(z1, z2); z1 = 0 coincides with Class II at beta = 0.  Reflected variants
come from mirror(): swap (a1, a2) and negate/swap (z1, z2).""",
    "II": """\
Class II: one moving boundary, the origin is a fixed endpoint; 0 <= z <= z2.
  f(z)    = a1/z - a2/(z2 - z) + beta            (a1, a2 > 0, beta real)
  rho2(z) = z (z2 - z)
  rho1(z) = -beta z^2 + (alpha - a1 - a2 - 2 + beta z2) z + (a1 + 1) z2
  y(z)    = A z^a1 (z2 - z)^a2 e^(beta z)
  A       = 1 / [ z2^(a1+a2+1) B(a1+1, a2+1) 1F1(a1+1; a1+a2+2; beta z2) ]
Physical domain [0, z2 t^alpha].  The negative half-line variant is the
mirror image: evaluate the density at -x with swapped exponents and
negated beta.""",
    "III": """\
Class III: half line with a moving left edge; z1 <= z < inf, z1 >= 0, beta > 0.
  y(z)    = A (z - z1)^a1 z^a2 e^(-beta z)       (the defining object)
  f(z)    = y'/y = a1/(z - z1) + a2/z - beta     (derived, not transcribed)
  rho2(z) = (z - z1) z
  rho1(z) = -beta z^2 + (alpha + a1 + a2 + 2 + beta z1) z - (a2 + 1) z1
  A       : quadrature of y is the primary source; the closed form
            1 / [ beta^-((a1+a2+2)/2) z1^((a1+a2)/2) Gamma(a1+1)
                  e^(-beta z1 / 2) W_{(a2-a1)/2, (a1+a2+1)/2}(beta z1) ]
            (Whittaker argument beta*z1; Gamma-form limit at z1 = 0) is a
            cross-check only.
Derivation notes: f and the Whittaker argument are regenerated from y
itself here; transcribed variants of this family circulate with a2/z2 in
f and argument beta*z2, which are inconsistent with y and rho1.
Restricted to z1 >= 0 so the density stays positive and normalizable.""",
}


def cmd_info(args: argparse.Namespace) -> int:
    print(_INFO[args.family])
    return 0


def cmd_presets(args: argparse.Namespace) -> int:
    for name in preset_names():
        spec = PRESETS[name]
        print(f"{name}: alpha={spec.alpha:g} {spec.params!r} times={list(spec.times)}")
    return 0


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {n}")
        return n

    return parse


def _count_flag(key: str, what: str) -> dict:
    """Options of the flag that overrides config key ``key``, with its minimum."""
    minimum = _KEYS[key][2]
    return dict(type=_int_at_least(minimum), help=f"{what} override (minimum {minimum})")


# optional flags by name; each subcommand takes only the ones it reads
_FLAGS = {
    "out": dict(help="output path (default: stdout)"),
    "points": dict(type=_int_at_least(2), default=201,
                   help="x samples per time, endpoints included (default 201, minimum 2)"),
    "seed": _count_flag("seed", "RNG seed"),
    "paths": _count_flag("paths", "Monte Carlo path count"),
    "bins": _count_flag("bins", "histogram bin count"),
    "cells": _count_flag("cells", "PDE grid cells"),
}


def _add_config_args(p: argparse.ArgumentParser, *flags: str) -> None:
    p.add_argument("--preset", help="named preset (fig1 ... fig5)")
    p.add_argument("--config", help="path to a config file")
    for name in flags:
        p.add_argument(f"--{name}", **_FLAGS[name])


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="fpmb",
        description="Exactly solvable moving-domain drift-diffusion models: "
        "evaluate densities and run verification channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="tabulate W, J, D1, D2 on a grid")
    _add_config_args(p_eval, "out", "points")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run verification checks")
    _add_config_args(p_verify, "seed", "paths", "bins", "cells")
    p_verify.add_argument("--with-sde", action="store_true",
                          help="include the Monte Carlo histogram check")
    p_verify.add_argument("--pde-log",
                          help="write per-step PDE diagnostics (s, mass, L1) to this CSV")
    p_verify.set_defaults(func=cmd_verify)

    p_sample = sub.add_parser("sample", help="propagate paths and emit a histogram")
    _add_config_args(p_sample, "out", "seed", "paths", "bins")
    p_sample.set_defaults(func=cmd_sample)

    p_info = sub.add_parser("info", help="describe a solvable family")
    p_info.add_argument("family", choices=("I", "II", "III"))
    p_info.set_defaults(func=cmd_info)

    p_presets = sub.add_parser("presets", help="list shipped presets")
    p_presets.set_defaults(func=cmd_presets)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
