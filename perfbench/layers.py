"""Per-layer metrics of a traced pass, derived from its spans and counters."""

from __future__ import annotations

import numpy as np

import tracing


def _outermost(a: dict) -> np.ndarray:
    """Spans with no ancestor of the same name (recursion counted once)."""
    name, parent = a["name"], a["parent"]
    nested = np.zeros(name.size, dtype=bool)
    anc = parent.copy()
    while (anc >= 0).any():
        up = anc >= 0
        nested[up] |= name[anc[up]] == name[up]
        anc[up] = parent[anc[up]]
    return ~nested


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: tracing.Tracer, plain, traced, stream) -> dict:
    """Name -> [value, unit] for every per-layer metric the worker measures."""
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    outer = _outermost(a)
    dur_s = a["dur"] * 1e-9

    def sel(name: str) -> np.ndarray:
        return a["name"] == ids[name]

    def calls(name: str) -> int:
        return int(sel(name).sum())

    def secs(name: str, mask=None) -> float:
        m = sel(name) & outer
        if mask is not None:
            m &= mask
        return float(dur_s[m].sum())

    def size(name: str, mask=None) -> float:
        m = sel(name) if mask is None else sel(name) & mask
        return float(a["size"][m].sum())

    c = tracer.counters
    m: dict[str, list] = {}

    step = sel("sde.step_ensemble")
    base = getattr(stream, "paths", 0)
    m["sde.step_ensemble.calls"] = [calls("sde.step_ensemble"), "count"]
    m["sde.step_ensemble.s"] = [secs("sde.step_ensemble"), "s"]
    m["sde.step_ns_per_path"] = [
        _ratio(1e9 * secs("sde.step_ensemble"), size("sde.step_ensemble")), "ns"]
    for tag, n in (("base", base), ("x10", 10 * base)):
        mask = step & (a["size"] == n)
        m[f"sde.step_ns_per_path.{tag}"] = [
            _ratio(1e9 * float(dur_s[mask].sum()), float(a["size"][mask].sum())), "ns"]
    from_sde = np.zeros_like(outer)
    has_parent = a["parent"] >= 0
    from_sde[has_parent] = a["layer"][a["parent"][has_parent]] == tracing.LAYERS.index("sde")
    m["sde.coefficients.s"] = [secs("solutions.coefficients", from_sde), "s"]
    m["sde.init_ensemble.s"] = [secs("sde.init_ensemble"), "s"]
    m["sde.propagate.s"] = [secs("sde.propagate"), "s"]
    m["sde.histogram_distance.s"] = [secs("sde.histogram_distance"), "s"]
    m["sde.reflections"] = [int(c["sde.reflections"]), "count"]
    m["sde.hist_l1_mean"] = [_ratio(c["sde.hist_l1_sum"], c["sde.hist_l1_n"]), "1"]

    m["specfun.integrate_adaptive.calls"] = [calls("specfun.integrate_adaptive"), "count"]
    m["specfun.integrate_adaptive.s"] = [secs("specfun.integrate_adaptive"), "s"]
    m["specfun.integrate_adaptive.evaluations"] = [
        int(size("specfun.integrate_adaptive")), "count"]
    m["specfun.integrate_adaptive.unconverged"] = [
        int(c["specfun.integrate_adaptive.unconverged"]), "count"]
    for fn in ("kummer_1f1", "whittaker_w"):
        m[f"specfun.{fn}.calls"] = [calls(f"specfun.{fn}"), "count"]
        m[f"specfun.{fn}.s"] = [secs(f"specfun.{fn}"), "s"]

    m["solutions.build_solution.calls"] = [calls("solutions.build_solution"), "count"]
    m["solutions.build_solution.s"] = [secs("solutions.build_solution"), "s"]
    m["solutions.mass.s"] = [secs("solutions.mass"), "s"]
    hits, misses = c["solutions.effective_upper.hits"], c["solutions.effective_upper.misses"]
    m["solutions.effective_upper.misses"] = [int(misses), "count"]
    m["solutions.effective_upper.hit_ratio"] = [_ratio(hits, hits + misses), "1"]
    points = size("solutions.coefficients")
    m["solutions.coefficients.calls"] = [calls("solutions.coefficients"), "count"]
    m["solutions.coefficients.points"] = [int(points), "count"]
    m["solutions.coefficients.ns_per_point"] = [
        _ratio(1e9 * secs("solutions.coefficients"), points), "ns"]
    for fn in ("density", "current"):
        m[f"solutions.{fn}.calls"] = [calls(f"solutions.{fn}"), "count"]
        m[f"solutions.{fn}.s"] = [secs(f"solutions.{fn}"), "s"]
    m["solutions.fp_warnings"] = [traced.fp_warnings, "count"]

    for fn in ("make_grid", "transformed_operator", "evolve"):
        m[f"pde.{fn}.s"] = [secs(f"pde.{fn}"), "s"]
    m["pde.evolve.steps"] = [int(c["pde.evolve.steps"]), "count"]
    m["pde.lu_factorizations"] = [int(c["pde.lu_factorizations"]), "count"]
    m["pde.lu_solves"] = [int(c["pde.lu_solves"]), "count"]
    m["pde.fpe_residual_at.calls"] = [calls("pde.fpe_residual_at"), "count"]

    m["cli.run_checks.s"] = [secs("cli.run_checks"), "s"]
    m["cli.main.s"] = [secs("cli.main"), "s"]

    # self time per layer, and its share of the traced items' wall time
    wall = float(dur_s[sel("bench.item")].sum())
    for li, layer in enumerate(tracing.LAYERS):
        self_s = float(a["self"][a["layer"] == li].sum()) * 1e-9
        m[f"self.{layer}_s"] = [self_s, "s"]
        m[f"self.{layer}_frac"] = [_ratio(self_s, wall), "1"]
    m["trace.item_wall_s"] = [wall, "s"]

    plain_ips = _ratio(len(plain.item_s), sum(plain.item_s))
    traced_ips = _ratio(len(traced.item_s), sum(traced.item_s))
    m["trace.items"] = [len(traced.item_s), "count"]
    m["trace.spans"] = [int(a["start"].size), "count"]
    m["trace.items_per_s"] = [traced_ips, "1/s"]
    m["trace.untraced_items_per_s"] = [plain_ips, "1/s"]
    m["trace.overhead_frac"] = [1.0 - _ratio(traced_ips, plain_ips), "1"]
    return m
