"""Command-line front end: evaluate densities, reproduce preset curves, and
run the verification channels.

Configs are flat key = value text files (one run per file); the shipped
presets double as integration fixtures.  All CSV output is written with 17
significant digits so downstream diffs are meaningful.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from . import pde, sde
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
        if self.class_name not in ("I", "II", "III"):
            raise ValueError(f"class must be I, II or III, got {self.class_name!r}")
        if not self.times or any(t <= 0.0 for t in self.times):
            raise ValueError("times must be a non-empty list of positive values")
        needed = {"I": ("z1", "z2"), "II": ("z2", "beta"), "III": ("z1", "beta")}
        for name in needed[self.class_name]:
            if getattr(self, name) is None:
                raise ValueError(f"class {self.class_name} requires {name}")

    def params(self) -> SolutionClass:
        if self.class_name == "I":
            return ClassI(z1=self.z1, z2=self.z2, a1=self.a1, a2=self.a2)
        if self.class_name == "II":
            return ClassII(z2=self.z2, a1=self.a1, a2=self.a2, beta=self.beta)
        return ClassIII(z1=self.z1, a1=self.a1, a2=self.a2, beta=self.beta)

    def build(self) -> SimilaritySolution:
        return build_solution(self.alpha, self.params())


_KEY_TO_FIELD = {
    "class": "class_name",
    "alpha": "alpha",
    "a1": "a1",
    "a2": "a2",
    "z1": "z1",
    "z2": "z2",
    "beta": "beta",
    "times": "times",
    "out": "out",
    "cells": "n_cells",
    "paths": "n_paths",
    "seed": "seed",
    "bins": "n_bins",
    "tol_mass": "tol_mass",
    "tol_identity": "tol_identity",
    "tol_attractor": "tol_attractor",
    "tol_histogram": "tol_histogram",
}
_FIELD_TO_KEY = {v: k for k, v in _KEY_TO_FIELD.items()}
_INT_FIELDS = {"n_cells", "n_paths", "seed", "n_bins"}
_STR_FIELDS = {"class_name", "out"}
# smallest count the library takes, by config key (the same name as the flag)
_MINIMUMS = {"cells": 3, "paths": 1, "bins": 10}


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
        if key not in _KEY_TO_FIELD:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        name = _KEY_TO_FIELD[key]
        if name in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            if name == "times":
                values[name] = tuple(float(v) for v in val.split(","))
            elif name in _INT_FIELDS:
                values[name] = int(val)
            elif name in _STR_FIELDS:
                values[name] = val
            else:
                values[name] = float(val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
        if key in _MINIMUMS and values[name] < _MINIMUMS[key]:
            raise ValueError(
                f"line {lineno}: {key!r} must be at least {_MINIMUMS[key]}, got {values[name]}"
            )
    missing = [k for k in ("class", "alpha", "a1", "a2", "times") if _KEY_TO_FIELD[k] not in values]
    if missing:
        raise ValueError(f"missing required keys: {', '.join(missing)}")
    return RunConfig(**values)


def format_config(cfg: RunConfig) -> str:
    """Render a config so that parse_config(format_config(cfg)) == cfg."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        key = _FIELD_TO_KEY[f.name]
        if f.name == "times":
            rendered = ", ".join(repr(v) for v in value)
        elif f.name in _STR_FIELDS:
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
    name: str
    measured: float
    threshold: str
    passed: bool


def _fraction_points(lo: float, hi: float, fractions: Iterable[float]) -> list[float]:
    return [lo + f * (hi - lo) for f in fractions]


def check_normalization(sol: SimilaritySolution, times: Sequence[float], tol: float) -> CheckResult:
    worst = max(abs(mass(sol, t) - 1.0) for t in times)
    return CheckResult("normalization", worst, f"<= {tol:g}", worst <= tol)


def check_norm_agreement(sol: SimilaritySolution) -> CheckResult:
    tol = 1e-8 if isinstance(sol.class_params, ClassIII) else 1e-10
    rel = abs(sol.norm_A_closed - sol.norm_A_quadrature) / sol.norm_A_quadrature
    return CheckResult("norm_constant_agreement", rel, f"<= {tol:g}", rel <= tol)


def _identity_worst(residual_fn, sol: SimilaritySolution, n: int = 1000) -> float:
    z = interior_points(sol, n)
    res, scale = residual_fn(sol, z)
    return float(np.max(np.abs(res) / np.maximum(scale, 1e-300)))


def check_first_integral(sol: SimilaritySolution, tol: float) -> CheckResult:
    worst = _identity_worst(first_integral_residual, sol)
    return CheckResult("first_integral_identity", worst, f"<= {tol:g}", worst <= tol)


def check_reduced_ode(sol: SimilaritySolution, tol: float) -> CheckResult:
    worst = _identity_worst(reduced_ode_residual, sol)
    return CheckResult("reduced_ode_residual", worst, f"<= {tol:g}", worst <= tol)


def check_current_consistency(sol: SimilaritySolution, t: float, tol: float) -> CheckResult:
    z = interior_points(sol, 1000)
    x = z * t**sol.alpha
    a = np.asarray(current(sol, x, t))
    b = np.asarray(current_from_definition(sol, x, t))
    scale = np.maximum(np.abs(a) + np.abs(b), 1e-300)
    worst = float(np.max(np.abs(a - b) / scale))
    return CheckResult("current_consistency", worst, f"<= {tol:g}", worst <= tol)


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
    probes = _fraction_points(window[0], window[1], (0.35, 0.62))
    orders = []
    for x in probes:
        r1 = pde.fpe_residual_at(sol, x, t, h, dt)
        r2 = pde.fpe_residual_at(sol, x, t, 0.5 * h, 0.5 * dt)
        orders.append(math.log2(abs(r1) / abs(r2)))
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
        drifts.append(abs(m - masses[-1]))
        masses.append(m)
        if log_rows is not None:
            l1 = pde.l1_distance(values, target, grid)
            log_rows.append(",".join(_fmt(v) for v in (s, m, l1)))

    final = pde.evolve(op, u0, 10.0, 0.05, on_step=record)
    dist = pde.l1_distance(final.values, target, grid)
    worst_drift = max(drifts)
    return (
        CheckResult("pde_attractor_l1", dist, f"<= {tol:g}", dist <= tol),
        CheckResult("pde_mass_drift", worst_drift, "<= 1e-12", worst_drift <= 1e-12),
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
    dist = sde.histogram_distance(ens, sol, n_bins)
    return CheckResult("sde_histogram_l1", dist, f"<= {tol:g}", dist <= tol)


def run_checks(
    cfg: RunConfig,
    *,
    with_sde: bool = False,
    pde_log_rows: list[str] | None = None,
) -> list[CheckResult]:
    """All verification checks for one config; failures are collected, never
    short-circuited."""
    sol = cfg.build()
    t_mid = cfg.times[len(cfg.times) // 2]
    results = [
        check_normalization(sol, cfg.times, cfg.tol_mass),
        check_norm_agreement(sol),
        check_first_integral(sol, cfg.tol_identity),
        check_reduced_ode(sol, cfg.tol_identity),
        check_current_consistency(sol, t_mid, cfg.tol_identity),
        check_fpe_residual_order(sol, t_mid),
    ]
    results.extend(
        check_pde_attractor(sol, cfg.n_cells, cfg.tol_attractor, log_rows=pde_log_rows)
    )
    if with_sde:
        results.append(
            check_sde_histogram(
                sol,
                cfg.times[0],
                cfg.times[-1],
                cfg.n_paths,
                cfg.n_bins,
                cfg.seed,
                cfg.tol_histogram,
            )
        )
    return results


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_rows(path: str | None, header: str, rows: Iterable[str]) -> None:
    out = sys.stdout if path is None else open(path, "w")
    try:
        out.write(header + "\n")
        for row in rows:
            out.write(row + "\n")
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
    overrides = {}
    for attr, name in (
        ("out", "out"),
        ("seed", "seed"),
        ("cells", "n_cells"),
        ("paths", "n_paths"),
        ("bins", "n_bins"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[name] = value
    return replace(cfg, **overrides) if overrides else cfg


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    sol = cfg.build()
    rows = []
    for t in cfg.times:
        lo, hi = truncated_positions(sol, t)
        x = np.linspace(lo, hi, args.points)
        d1, d2 = coefficients(sol, x, t)
        columns = (x, density(sol, x, t), current(sol, x, t), d1, d2)
        rows.extend(
            ",".join(map(_fmt, (t, *row)))
            for row in zip(*(c.tolist() for c in columns))
        )
    _write_rows(cfg.out, "t,x,W,J,D1,D2", rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    log_rows: list[str] | None = [] if args.pde_log else None
    results = run_checks(cfg, with_sde=args.with_sde, pde_log_rows=log_rows)
    if args.pde_log:
        _write_rows(args.pde_log, "s,mass,l1_to_stationary", log_rows)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  measured={r.measured:.6e}  threshold {r.threshold}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    sol = cfg.build()
    ens = sde.init_ensemble(sol, cfg.n_paths, cfg.times[0], cfg.seed)
    ens = sde.propagate(ens, sol, cfg.times[-1])
    centers, empirical, analytic = sde.histogram_table(ens, sol, cfg.n_bins)
    rows = [
        ",".join(_fmt(v) for v in row) for row in zip(centers, empirical, analytic)
    ]
    _write_rows(cfg.out, "bin_center,empirical_density,analytic_density", rows)
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


# optional flags by name; each subcommand takes only the ones it reads
_FLAGS = {
    "out": dict(help="output path (default: stdout)"),
    "points": dict(type=_int_at_least(2), default=201,
                   help="x samples per time, endpoints included (default 201, minimum 2)"),
    "seed": dict(type=int, help="RNG seed override"),
    "paths": dict(type=_int_at_least(_MINIMUMS["paths"]),
                  help=f"Monte Carlo path count override (minimum {_MINIMUMS['paths']})"),
    "bins": dict(type=_int_at_least(_MINIMUMS["bins"]),
                 help=f"histogram bin count override (minimum {_MINIMUMS['bins']})"),
    "cells": dict(type=_int_at_least(_MINIMUMS["cells"]),
                  help=f"PDE grid cells override (minimum {_MINIMUMS['cells']})"),
}


def _add_config_args(p: argparse.ArgumentParser, *flags: str) -> None:
    p.add_argument("--preset", help="named preset (fig1 ... fig5)")
    p.add_argument("--config", help="path to a config file")
    for name in flags:
        p.add_argument(f"--{name}", **_FLAGS[name])


def main(argv: Sequence[str] | None = None) -> int:
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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
