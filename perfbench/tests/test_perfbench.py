"""Self-check of the benchmark: tiny runs of every workload.

Run from the repository root (about a minute):

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3
# one block of each workload, Monte Carlo at a quarter of its paths (few
# enough to be quick, enough for the histogram check to pass)
ITEMS = {"verify_sweep": 3, "eval_table": 8, "mc_sample": 6}


def tiny(workload: str) -> list[str]:
    paths = ["--paths", "50000"] if workload == "mc_sample" else []
    return ["--items", str(ITEMS[workload]), *paths]


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def spans_by_item(workload: str) -> dict:
    """item -> (wall ns, {layer: self ns}) recomputed from the written spans."""
    with open(ROOT / ".perfbench" / f"spans-{workload}-seed{SEED}.csv") as fh:
        rows = list(csv.DictReader(fh))
    dur = [int(r["end_ns"]) - int(r["start_ns"]) for r in rows]
    child = [0] * len(rows)
    for r, d in zip(rows, dur):
        if int(r["parent"]) >= 0:
            child[int(r["parent"])] += d
    items = defaultdict(lambda: [0, defaultdict(int)])
    for r, d, c in zip(rows, dur, child):
        entry = items[int(r["item"])]
        if r["name"] == "bench.item":
            entry[0] = d
        entry[1][r["layer"]] += d - c
    return items


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    out = result(bench(workload, 0, *tiny(workload)))
    assert out["correct"] is True
    assert (out["attempted"], out["failed"]) == (ITEMS[workload], 0)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_within_item_wall_time(workload):
    out = result(bench(workload, 1, *tiny(workload)))
    metrics = out["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units("per_layer")
    items = spans_by_item(workload)
    assert sorted(items) == list(range(ITEMS[workload]))
    for wall, self_ns in items.values():
        layers = sum(ns for layer, ns in self_ns.items() if layer != "bench")
        assert 0 < layers <= wall
    if workload == "verify_sweep":
        assert metrics["sde.step_ensemble.calls"]["value"] == 0
        assert metrics["self.sde_s"]["value"] == 0
    if workload == "eval_table":
        # fig4 writes D1 = inf at x = 0 once per time: a known defect
        assert metrics["checks.failed"]["value"] >= 3
        assert metrics["solutions.fp_warnings"]["value"] >= 3


def test_mc_sample_traced_fig1_within_baseline_bounds():
    """fig1 `verify --with-sde` at 2e5 paths, against the recorded baseline of
    11-13 ms per Euler step and about 3 s per preset, with a factor of two
    either way for a different or busier machine."""
    m = result(bench("mc_sample", 1, "--items", "1"))["metrics"]
    step_ms = m["sde.step_ns_per_path.base"]["value"] * 200_000 * 1e-6
    assert 5.5 <= step_ms <= 26.0
    assert 1.5 <= 1.0 / m["trace.untraced_items_per_s"]["value"] <= 6.0
    sde_s = m["self.sde_s"]["value"] + m["sde.coefficients.s"]["value"]
    assert sde_s >= 0.9 * m["trace.item_wall_s"]["value"]


def test_failed_check_fails_its_item_unless_known():
    import worker
    from workloads import Item

    run = worker.Pass(frozenset({"known"}))
    for checks in ([("known", False), ("other", True)], [("other", False)], [("other", True)]):
        run.run(Item("x", len(checks), lambda checks=checks: checks), 0)
    assert (run.checks_attempted, run.checks_failed, run.known_failed) == (4, 2, 1)
    assert run.items_failed == 1


def test_eval_reference_tells_known_defect_from_wrong_values(tmp_path):
    from fpmb import cli
    import reference

    out = tmp_path / "fig4.csv"
    assert cli.main(["eval", "--preset", "fig4", "--out", str(out)]) == 0
    model = reference.model_for({"preset": "fig4"}, ROOT)
    n_times = len(model["times"])
    # D1 = inf at x = 0, once per time, and nothing else
    assert reference.check_table(out, model, 201) == (201 * n_times, n_times, n_times)

    lines = out.read_text().splitlines()
    row = lines[100].split(",")
    row[2] = repr(float(row[2]) * (1 + 1e-6))  # W off by one part in a million
    lines[100] = ",".join(row)
    out.write_text("\n".join(lines) + "\n")
    assert reference.check_table(out, model, 201) == (201 * n_times, n_times + 1, n_times)


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("verify_sweep", 0, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
