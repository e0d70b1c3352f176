"""fpmb benchmark: run one workload and print every metric with its unit.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports fpmb from its ``src``.  The
workload runs in one fresh process, one item at a time; set-up time is the
median of further fresh processes, some started before it and some after.
With ``--trace 1`` a fixed number of items run twice, untraced and traced,
and the per-layer metrics are printed instead of the end-to-end ones.  The
last line of standard output is the JSON result; the lines before it are a
readable report.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("verify_sweep", "mc_sample", "eval_table")
SETUP_PROBES_BEFORE = 10
SETUP_PROBES_AFTER = 11
RUN_TIMEOUT_S = 150.0
# more failed known-defect checks than this share of a run's items (about
# 1.2 % of verify_sweep items on the baseline, none elsewhere), and more than
# KNOWN_DEFECT_MIN of them, fail the run as well
KNOWN_DEFECT_MAX_FRAC = 0.05
KNOWN_DEFECT_MIN = 5

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark could not produce or check a result."""


def run_worker(mode: str, args, workdir: Path, extra=(), timeout=RUN_TIMEOUT_S) -> dict:
    cmd = [
        sys.executable, str(WORKER), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir), *extra,
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {mode} exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"worker {mode} printed no result: {exc}") from exc


def machine_info(calib: dict, versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    llc = "unknown"
    try:
        llc = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "llc": llc,
        "python": platform.python_version(),
        **versions,
        "calib.rng_ns_per_normal": calib["rng_ns_per_normal"],
        "bandwidth": "not measured: arrays of 4x the last-level cache are out of reach "
                     "when that cache is large and shared, so no bandwidth ratio is "
                     "reported; any bytes figure is computed from array sizes",
    }


def check_eval_outputs(outputs: list[dict]) -> tuple[int, int, int, int]:
    """(rows checked, rows mismatching, known-defect rows among them,
    tables with a mismatch outside the known defect)."""
    import reference

    rows = failed = known = bad_tables = 0
    for out in outputs:
        try:
            r, f, k = reference.check_table(Path(out["out"]), reference.model_for(out, ROOT),
                                            out["points"])
        except (OSError, ValueError, KeyError, reference.Unevaluable) as exc:
            raise BenchError(f"cannot check {out['out']}: {exc}") from exc
        if f > k:
            bad_tables += 1
            print(f"perfbench: {out['out']}: {f - k} rows mismatch the reference",
                  file=sys.stderr)
        rows += r
        failed += f
        known += k
    return rows, failed, known, bad_tables


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def bench(args) -> tuple[dict, list[str], dict]:
    if not (ROOT / "src" / "fpmb" / "__init__.py").is_file():
        raise BenchError(f"no fpmb sources under {ROOT / 'src'}")
    OUT_DIR.mkdir(exist_ok=True)
    report = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"]
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    try:
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.items:
            extra += ["--items", str(args.items)]
        if args.paths:
            extra += ["--paths", str(args.paths)]
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        if args.trace:
            extra += ["--spans", str(spans)]
        setup = []

        def probe(n: int) -> None:
            for _ in range(0 if args.trace else n):
                setup.append(run_worker("setup", args, workdir, timeout=60)["setup_s"])

        probe(SETUP_PROBES_BEFORE)
        res = run_worker("run", args, workdir, extra)
        probe(SETUP_PROBES_AFTER)
        run = res["run"]
        checks_attempted = run["checks_attempted"]
        checks_failed = run["checks_failed"]
        known_failed = run["known_failed"]
        items_failed = run["items_failed"]
        known_ok = known_failed <= max(KNOWN_DEFECT_MIN, KNOWN_DEFECT_MAX_FRAC * len(run["item_s"]))
        if not known_ok:
            print(f"perfbench: {known_failed} known-defect checks failed in "
                  f"{len(run['item_s'])} items, above the share they fail at", file=sys.stderr)
        if run["outputs"]:
            rows, failed, known, bad_tables = check_eval_outputs(run["outputs"])
            checks_attempted += rows
            checks_failed += failed
            known_failed += known
            items_failed += bad_tables
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    item_ms = [1e3 * s for s in run["item_s"]]
    n = len(item_ms)
    if n == 0:
        raise BenchError("no item ran")
    fail_frac = checks_failed / checks_attempted if checks_attempted else 0.0
    machine = machine_info(res["calib"], res["versions"])
    report.append("machine: " + json.dumps(machine))
    report.append(
        f"fail_frac {fail_frac:.6g} 1  ({checks_failed} of {checks_attempted} checks failed, "
        f"{known_failed} of them known defects; {items_failed} of {n} items failed "
        f"outside the known defects)")

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "items_per_s": n / sum(run["item_s"]),
            "item_ms_p50": statistics.median(item_ms),
            "item_ms_p90": quantile(item_ms, 90),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh processes, "
                       f"{SETUP_PROBES_BEFORE} before the workload and the rest after: "
                       + ", ".join(f"{s:.3f}" for s in setup),
            "items_per_s": f"{n} items in {sum(run['item_s']):.2f} s of item time",
            "item_ms_p50": f"n={n}",
            "item_ms_p90": f"n={n}" + ("" if n >= 100 else
                                        ", fewer than 100 items: interpolated, not resolved"),
            "peak_rss_mb": "VmHWM of the workload process",
        }
        result = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
        for k, v in metrics.items():
            report.append(f"{k:<14} {v:.6g} {E2E_UNITS[k]}  ({notes[k]})")
    else:
        layer = dict(res["layers"])
        layer["checks.attempted"] = [checks_attempted, "count"]
        layer["checks.failed"] = [checks_failed, "count"]
        layer["checks.fail_frac"] = [fail_frac, "1"]
        layer["calib.rng_ns_per_normal"] = [res["calib"]["rng_ns_per_normal"], "ns"]
        for mod, secs in res["import_s"].items():
            layer[f"import.{mod}_s"] = [secs, "s"]
        result = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        for k, (v, u) in layer.items():
            report.append(f"{k:<42} {v:.6g} {u}")
        report.append(f"spans written to {spans.relative_to(ROOT)}")
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "metrics": result,
        "checks_attempted": checks_attempted, "checks_failed": checks_failed,
        "checks_known_failed": known_failed, "items_failed": items_failed,
        "item_ms": item_ms, "item_labels": run["labels"], "setup_samples_s": setup,
    }
    out = {
        "correct": items_failed == 0 and known_ok,
        "attempted": n,
        "failed": items_failed,
        "metrics": result,
    }
    return out, report, full


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, help="stop after this many items (self-check)")
    ap.add_argument("--paths", type=int, help="Monte Carlo paths per preset (self-check)")
    args = ap.parse_args(argv)
    try:
        out, report, full = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(full, indent=1) + "\n")
    print("\n".join(report))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
