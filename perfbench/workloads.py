"""Seeded inputs and items for the three workloads.

An item is one closed-loop request made through fpmb's public entry
points.  Items are generated lazily from the workload seed, in blocks that
hold the workload's whole mix, and kept so a second pass can repeat them.
Every library call goes through a module attribute (``cli.run_checks``,
``sde.propagate``) so that the tracer's rebinding sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from fpmb import cli, sde

WORKLOADS = ("verify_sweep", "mc_sample", "eval_table")
PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5")
FAMILIES = ("I", "II", "III")

# normalization times of the acceptance suite; the middle one is where
# run_checks probes the forward-equation residual
RANDOM_MODEL_TIMES = (0.3, 1.0, 3.0)
EVAL_POINTS = 201  # `fpmb eval` default
MC_PATHS = 200_000  # `fpmb verify` default
LARGE_ENSEMBLE_FACTOR = 10
LARGE_ENSEMBLE_HORIZON = 0.03  # 30 Euler steps of fig1 at dt_max = 1e-3


@dataclass
class Item:
    label: str
    checks: int
    call: Callable[[], list[tuple[str, bool]]]
    output: dict | None = None


def random_model(rng: np.random.Generator, family: str) -> cli.RunConfig:
    """One admissible model from the box of the acceptance suite's random models."""
    alpha = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))
    if family == "I":
        z1 = rng.uniform(-3.0, 2.0)
        z2 = z1 + rng.uniform(0.5, 4.0)
        a1, a2 = rng.uniform(0.4, 4.0), rng.uniform(0.4, 4.0)
        extra = {"z1": float(z1), "z2": float(z2)}
    elif family == "II":
        z2 = rng.uniform(0.5, 5.0)
        a1, a2 = rng.uniform(0.4, 4.0), rng.uniform(0.4, 4.0)
        extra = {"z2": float(z2), "beta": float(rng.uniform(-3.0, 3.0))}
    else:
        z1 = rng.uniform(0.0, 2.0)
        a1, a2 = rng.uniform(0.4, 4.0), rng.uniform(0.4, 4.0)
        extra = {"z1": float(z1), "beta": float(rng.uniform(0.3, 3.0))}
    return cli.RunConfig(family, alpha, float(a1), float(a2), RANDOM_MODEL_TIMES, **extra)


def _checks_passed(results) -> list[tuple[str, bool]]:
    return [(r.name, r.passed) for r in results]


class Stream:
    """The k-th item of a workload, generated on first use and then kept."""

    block: int
    # blocks of the traced run: a fixed count, so its totals compare
    trace_blocks: int
    # names of checks that fail on the baseline (see README, "Known defects");
    # any other failed check fails its item
    known_defects: frozenset[str] = frozenset()

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self._items: list[Item] = []

    def item(self, k: int) -> Item:
        while len(self._items) <= k:
            self._items.append(self._make(len(self._items)))
        return self._items[k]

    def _make(self, k: int) -> Item:
        raise NotImplementedError


class VerifySweep(Stream):
    """Fresh random models, one family per item in turn, verified without SDE."""

    block = len(FAMILIES)
    trace_blocks = 100
    known_defects = frozenset({
        "fpe_residual_order", "pde_attractor_l1", "first_integral_identity", "current_consistency",
    })

    def _make(self, k: int) -> Item:
        cfg = random_model(self.rng, FAMILIES[k % self.block])
        return Item(cfg.class_name, 8, lambda: _checks_passed(cli.run_checks(cfg)))


class McSample(Stream):
    """`fpmb verify --with-sde` on every preset, then one large fig1 ensemble."""

    block = len(PRESET_NAMES) + 1
    trace_blocks = 1

    def __init__(self, seed: int, paths: int = MC_PATHS) -> None:
        super().__init__(seed)
        self.paths = paths

    def _make(self, k: int) -> Item:
        seed = int(self.rng.integers(1, 2**31 - 1))
        slot = k % self.block
        if slot < len(PRESET_NAMES):
            cfg = replace(cli.load_preset_config(PRESET_NAMES[slot]), n_paths=self.paths, seed=seed)
            return Item(
                PRESET_NAMES[slot], 9,
                lambda: _checks_passed(cli.run_checks(cfg, with_sde=True)),
            )
        cfg = cli.load_preset_config("fig1")
        n_paths = LARGE_ENSEMBLE_FACTOR * self.paths

        def large_ensemble() -> list[tuple[str, bool]]:
            sol = cfg.build()
            t0 = cfg.times[0]
            ens = sde.init_ensemble(sol, n_paths, t0, seed)
            ens = sde.propagate(ens, sol, t0 + LARGE_ENSEMBLE_HORIZON)
            dist = sde.histogram_distance(ens, sol, cfg.n_bins)
            return [("sde_histogram_l1", dist <= cfg.tol_histogram)]

        return Item("fig1-large", 1, large_ensemble)


class EvalTable(Stream):
    """`fpmb eval` tables for every preset and one random model per family."""

    block = len(PRESET_NAMES) + len(FAMILIES)
    trace_blocks = 10

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed)
        self.workdir = workdir

    def _make(self, k: int) -> Item:
        slot = k % self.block
        out = str(self.workdir / f"item-{k}.csv")
        if slot < len(PRESET_NAMES):
            name = PRESET_NAMES[slot]
            source = ["--preset", name]
            n_times = len(cli.load_preset_config(name).times)
            output = {"out": out, "points": EVAL_POINTS, "preset": name}
        else:
            cfg = random_model(self.rng, FAMILIES[slot - len(PRESET_NAMES)])
            name = cfg.class_name
            path = self.workdir / f"model-{k}.cfg"
            path.write_text(cli.format_config(cfg))
            source = ["--config", str(path)]
            n_times = len(cfg.times)
            output = {"out": out, "points": EVAL_POINTS, "config": str(path)}
        argv = ["eval", *source, "--out", out]

        def table() -> list[tuple[str, bool]]:
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"fpmb {' '.join(argv)} exited with {code}")
            return []  # rows are checked against the reference after the run

        return Item(name, EVAL_POINTS * n_times, table, output)


def make_stream(workload: str, seed: int, workdir: Path, paths: int | None) -> Stream:
    if workload == "verify_sweep":
        return VerifySweep(seed)
    if workload == "mc_sample":
        return McSample(seed, paths or MC_PATHS)
    if workload == "eval_table":
        return EvalTable(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
