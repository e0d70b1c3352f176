"""Command-line front end: evaluate densities, reproduce preset curves, and
run the verification channels.

Configs are flat key = value text files (one run per file); the shipped
presets double as integration fixtures.  All CSV output is written with 17
significant digits so downstream diffs are meaningful.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources
from typing import ClassVar, Iterable, Sequence, TextIO

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
    _count,
    _coefficient_scales,
    _time_scale,
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
# every family parameter, in field order; each family takes some of them
_PARAMETERS = tuple(dict.fromkeys(f.name for family in _FAMILIES.values()
                                  for f in fields(family)))


@dataclass(frozen=True)
class RunConfig:
    """One run: a model, its evaluation times and output, and the sizes and
    seed of the numerical checks."""

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
    # the checks' acceptance bounds; no config key or argument sets them
    tol_mass: ClassVar[float] = 1e-8
    tol_identity: ClassVar[float] = 1e-10
    tol_attractor: ClassVar[float] = 1e-3
    tol_histogram: ClassVar[float] = 0.05

    def __post_init__(self) -> None:
        if self.class_name not in _FAMILIES:
            raise ValueError(f"class must be I, II or III, got {self.class_name!r}")
        for key, (name, _, minimum) in _KEYS.items():
            if minimum is not None:
                _count(key, getattr(self, name), minimum)
        taken = {f.name for f in fields(_FAMILIES[self.class_name])}
        for name in _PARAMETERS:
            if name in taken and getattr(self, name) is None:
                raise ValueError(f"class {self.class_name} requires {name}")
            if name not in taken and getattr(self, name) is not None:
                raise ValueError(f"class {self.class_name} does not take {name}")
        # an inadmissible model fails here, where a config error names its file
        check_alpha(self.alpha)
        if not self.times:
            raise ValueError("need at least one value in times")
        for t in self.times:
            t, _ = _time_scale("times", t, self.alpha)
            _coefficient_scales("times", t, self.alpha)  # the powers of t in D1 and D2
        self.params()

    def params(self) -> SolutionClass:
        family = _FAMILIES[self.class_name]
        return family(**{f.name: getattr(self, f.name) for f in fields(family)})

    def build(self) -> SimilaritySolution:
        return build_solution(self.alpha, self.params())


def _times(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# config key: (RunConfig field, value parser, smallest value of a count or
# None), in field order; a flag named after a key overrides it
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
    "cells": ("n_cells", int, pde.MIN_CELLS),
    "paths": ("n_paths", int, 1),
    "seed": ("seed", int, 0),
    "bins": ("n_bins", int, sde.MIN_BINS),
}
_FIELD_TO_KEY = {name: key for key, (name, _, _) in _KEYS.items()}


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value config; a syntax error carries its line
    number, a value that ``RunConfig`` refuses names its key."""
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
        name, parse, _ = _KEYS[key]
        if name in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[name] = parse(val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
    missing = [_FIELD_TO_KEY[f.name] for f in fields(RunConfig)
               if f.default is MISSING and f.name not in values]
    if missing:
        raise ValueError(f"missing required keys: {', '.join(missing)}")
    return RunConfig(**values)


def format_config(cfg: RunConfig) -> str:
    """Render a config so that parse_config(format_config(cfg)) == cfg; a text
    value that would read back differently (one holding a '#' or a line break,
    or with surrounding whitespace) raises a ValueError naming its key."""
    lines = []
    for key, (name, parse, _) in _KEYS.items():
        value = getattr(cfg, name)
        if value is None:
            continue
        if parse is _times:
            rendered = ", ".join(repr(v) for v in value)
        elif parse is str:
            if "#" in value or value != value.strip() or len(value.splitlines()) > 1:
                raise ValueError(f"{key!r} value {value!r} cannot be written to a config")
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


def _worst_relative(res, scale) -> float:
    """Largest |res| / scale, with the scale kept off zero."""
    return float(np.max(np.abs(res) / np.maximum(scale, 1e-300)))


def _current_gap(sol: SimilaritySolution, t: float) -> float:
    """Worst relative gap between the closed-form current and its definition."""
    x = interior_points(sol, 1000) * _time_scale("t", t, sol.alpha)[1]
    a = np.asarray(current(sol, x, t))
    b = np.asarray(current_from_definition(sol, x, t))
    return _worst_relative(a - b, np.abs(a) + np.abs(b))


def _residual_orders(sol: SimilaritySolution, t: float) -> list[float]:
    """Convergence orders of the forward-equation residual stencil.

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
    return [math.log2(abs(a) / abs(b)) for a, b in zip(r1, r2)]


def _pde_relaxation(sol: SimilaritySolution, n_cells: int,
                    log_rows: list[str] | None) -> tuple[float, float]:
    """L1 distance to the stationary field after 200 steps from a uniform
    start, and the worst one-step mass drift; appends a log row per step
    when ``log_rows`` is a list."""
    op = pde.transformed_operator(sol, n_cells)
    grid = op.grid
    target = pde.stationary_field(sol, grid)
    on_step = None
    if log_rows is not None:
        def on_step(s: float, m: float, values: np.ndarray) -> None:
            l1 = pde.l1_distance(values, target, grid)
            log_rows.append(",".join(_fmt(v) for v in (s, m, l1)))

    final, drift = pde.evolve(op, pde.uniform_field(grid), 200, 0.05, on_step=on_step)
    return pde.l1_distance(final, target, grid), drift


def _histogram_l1(sol: SimilaritySolution, cfg: RunConfig) -> float:
    """L1 distance between the Monte Carlo histogram at the last time and
    the density, for paths drawn from it at the first."""
    ens = sde.init_ensemble(sol, cfg.n_paths, cfg.times[0], cfg.seed)
    ens = sde.propagate(ens, sol, cfg.times[-1])
    return sde.histogram_distance(ens, sol, cfg.n_bins)


# the errors the library raises on numerics it cannot carry out
# (ConvergenceError is a RuntimeError)
_CHECK_ERRORS = (ValueError, RuntimeError, np.linalg.LinAlgError)


def run_checks(
    cfg: RunConfig,
    *,
    with_sde: bool = False,
    pde_log_rows: list[str] | None = None,
) -> list[CheckResult]:
    """All verification checks for one config, in report order.

    Each entry of the table pairs its checks with their bounds, and its
    measurement returns one value per check.  A bound is an upper bound, or
    a (lo, hi) window that every value of a list must lie in; the value
    farthest from the window's centre is reported.  Failures are collected,
    never short-circuited: a measurement that raises fails its checks, and
    the others still run.
    """
    sol = cfg.build()
    t_mid = cfg.times[len(cfg.times) // 2]
    table = [
        ([("normalization", cfg.tol_mass)],
         lambda: [max(abs(mass(sol, t) - 1.0) for t in cfg.times)]),
        ([("norm_constant_agreement", 1e-8 if math.isinf(sol.z_hi) else 1e-10)],
         lambda: [abs(sol.norm_A_closed - sol.norm_A_quadrature) / sol.norm_A_quadrature]),
        ([("first_integral_identity", cfg.tol_identity)],
         lambda: [_worst_relative(*first_integral_residual(sol, interior_points(sol, 1000)))]),
        ([("reduced_ode_residual", cfg.tol_identity)],
         lambda: [_worst_relative(*reduced_ode_residual(sol, interior_points(sol, 1000)))]),
        ([("current_consistency", cfg.tol_identity)], lambda: [_current_gap(sol, t_mid)]),
        ([("fpe_residual_order", (1.8, 2.2))], lambda: [_residual_orders(sol, t_mid)]),
        ([("pde_attractor_l1", cfg.tol_attractor), ("pde_mass_drift", pde.MASS_DRIFT_TOL)],
         lambda: _pde_relaxation(sol, cfg.n_cells, pde_log_rows)),
    ]
    if with_sde:
        table.append(([("sde_histogram_l1", cfg.tol_histogram)],
                      lambda: [_histogram_l1(sol, cfg)]))
    results = []
    for checks, measure in table:
        try:
            values = measure()
        except _CHECK_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
            results += [CheckResult(name, math.inf, "n/a", False, error) for name, _ in checks]
            continue
        for (name, bound), value in zip(checks, values, strict=True):
            if isinstance(bound, tuple):
                lo, hi = bound
                worst = max(value, key=lambda v: abs(v - 0.5 * (lo + hi)))
                results.append(CheckResult(name, worst, f"in [{lo:g}, {hi:g}]",
                                           all(lo <= v <= hi for v in value)))
            else:
                results.append(CheckResult(name, value, f"<= {bound:g}", value <= bound))
    return results


_NUMBER_SPEC = ".17g"


def _fmt(value: float) -> str:
    return format(value, _NUMBER_SPEC)


def _csv_block(columns: Sequence[np.ndarray]) -> str:
    """CSV rows of equal-length columns, each value as ``_fmt`` writes it,
    built by one ``%`` format over the whole block."""
    table = np.column_stack(columns)
    row = ",".join(["%" + _NUMBER_SPEC] * table.shape[1]) + "\n"
    return (row * table.shape[0]) % tuple(table.ravel().tolist())


def _open(path: str, mode: str = "r"):
    """Open a file named on the command line or in a config; a file that
    cannot be opened ends the run with one line that names it."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise SystemExit(f"{path}: {exc.strerror}") from None


def _output(path: str | None):
    """The file a command writes to, opened before any work is done, so an
    unwritable path ends the run at once; like a shell redirection it is
    created or truncated, and left empty by a run that fails later.
    Standard output when ``path`` is None."""
    return contextlib.nullcontext(sys.stdout) if path is None else _open(path, "w")


def _write_rows(out: TextIO, header: str, blocks: Iterable[str]) -> None:
    """Write the header line, then each block of newline-terminated rows."""
    out.write(header + "\n")
    for block in blocks:
        out.write(block)


@contextlib.contextmanager
def _model_errors(args: argparse.Namespace):
    """A model the library cannot build (its normalization quadrature fails,
    say) ends the run with one line that names its config."""
    try:
        yield
    except _CHECK_ERRORS as exc:
        source = args.config or args.preset
        raise SystemExit(f"{source}: {type(exc).__name__}: {exc}") from None


@contextlib.contextmanager
def _flag_errors(key: str):
    """A refused flag value is an argparse error naming the flag (exit status 2)."""
    try:
        yield
    except ValueError as exc:
        _parser().error(f"argument --{key}: {exc}")


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.preset is not None:
        cfg = load_preset_config(args.preset)
    else:
        with _open(args.config) as fh:
            text = fh.read()
        try:
            cfg = parse_config(text)
        except ValueError as exc:
            raise SystemExit(f"{args.config}: {exc}") from None
    for key in _FLAGS:
        if key in _KEYS and (value := getattr(args, key, None)) is not None:
            with _flag_errors(key):
                cfg = replace(cfg, **{_KEYS[key][0]: value})
    return cfg


def cmd_eval(args: argparse.Namespace) -> int:
    with _flag_errors("points"):
        _count("points", args.points, 2)
    cfg = _load_config(args)
    with _output(cfg.out) as out:
        with _model_errors(args):
            sol = cfg.build()
        blocks = []
        for t in cfg.times:
            lo, hi = truncated_positions(sol, t)
            x = np.linspace(lo, hi, args.points)
            w = density(sol, x, t)
            d1, d2 = coefficients(sol, x, t)
            blocks.append(_csv_block((np.full_like(x, t), x, w, current(sol, x, t, w), d1, d2)))
        _write_rows(out, "t,x,W,J,D1,D2", blocks)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    log_rows: list[str] | None = [] if args.pde_log else None
    with _output(args.pde_log) as log:
        # run_checks fails a check that raises, so what reaches here is the build's
        with _model_errors(args):
            results = run_checks(cfg, with_sde=args.with_sde, pde_log_rows=log_rows)
        if log_rows is not None:
            _write_rows(log, "s,mass,l1_to_stationary", ["".join(row + "\n" for row in log_rows)])
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
    if cfg.times[-1] <= cfg.times[0]:
        raise SystemExit("sample needs times that end after they start, "
                         f"got times = {', '.join(map(repr, cfg.times))}")
    with _output(cfg.out) as out:
        with _model_errors(args):
            sol = cfg.build()
        ens = sde.init_ensemble(sol, cfg.n_paths, cfg.times[0], cfg.seed)
        ens = sde.propagate(ens, sol, cfg.times[-1])
        block = _csv_block(sde.histogram_table(ens, sol, cfg.n_bins))
        _write_rows(out, "bin_center,empirical_density,analytic_density", [block])
    dist = sde.histogram_distance(ens, sol, cfg.n_bins)
    print(f"paths={cfg.n_paths} l1_distance={dist:.6f}", file=sys.stderr)
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    print(inspect.getdoc(_FAMILIES[args.family]))
    return 0


def cmd_presets(args: argparse.Namespace) -> int:
    for name in preset_names():
        spec = PRESETS[name]
        print(f"{name}: alpha={spec.alpha:g} {spec.params!r} times={list(spec.times)}")
    return 0


# optional flags by name; each subcommand takes only the ones it reads
_FLAGS = {
    "out": dict(help="output path (default: stdout)"),
    "points": dict(type=int, default=201,
                   help="x samples per time, endpoints included (default 201, minimum 2)"),
    **{key: dict(type=int, help=f"{what} override (minimum {_KEYS[key][2]})")
       for key, what in [("seed", "RNG seed"), ("paths", "Monte Carlo path count"),
                         ("bins", "histogram bin count"), ("cells", "PDE grid cells")]},
}


def _add_config_args(p: argparse.ArgumentParser, *flags: str) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=preset_names(), help="named preset")
    source.add_argument("--config", help="path to a config file")
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
    p_info.add_argument("family", choices=tuple(_FAMILIES))
    p_info.set_defaults(func=cmd_info)

    p_presets = sub.add_parser("presets", help="list shipped presets")
    p_presets.set_defaults(func=cmd_presets)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = args.func(args)
        # output still buffered fails here, not in the flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (``fpmb eval | head -1``): end quietly, with
        # stdout on devnull so that the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
