"""Record one point of the benchmark trajectory as BENCH_<N>.json at the repo root.

Usage: python3 tools/bench_record.py N

For each workload that BENCHMARK.json declares, this runs the committed
benchmark command untraced at a fixed seed,

    python3 perfbench/run.py --workload W --seed 1 --seconds 20 --trace 0

reads the report that run writes to .perfbench/W-seed1-trace0.json, and
keeps its end-to-end metrics, the median item time of each item label
(preset or family), the item counts and the machine line.  The machine
line carries the run's own kernel time, calib.rng_ns_per_normal: read the
trajectory as ratios to it, since the machine is shared.  The file also
names the commit the runs were made on, and whether the working tree had
uncommitted changes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def record(command: list[str], workload: str, seconds: float) -> dict:
    """One untraced run of ``workload``, summarised from its report."""
    subprocess.run([*command, "--workload", workload, "--seed", str(SEED),
                    "--seconds", f"{seconds:g}", "--trace", "0"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    report = json.loads((ROOT / ".perfbench" / f"{workload}-seed{SEED}-trace0.json").read_text())
    by_label = defaultdict(list)
    for label, ms in zip(report["item_labels"], report["item_ms"]):
        by_label[label].append(ms)
    return {
        "seed": SEED,
        "metrics": {name: m["value"] for name, m in report["metrics"].items()},
        "units": {name: m["unit"] for name, m in report["metrics"].items()},
        "item_ms_median": {label: statistics.median(ms) for label, ms in by_label.items()},
        "items": len(report["item_ms"]),
        "items_failed": report["items_failed"],
        "machine": report["machine"],
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    point = {
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git("status", "--porcelain", "--", "src", "perfbench")),
        "command": " ".join(spec["command"]) + f" --workload W --seed {SEED} "
                   f"--seconds {spec['run_seconds']:g} --trace 0",
        "workloads": {w["name"]: record(spec["command"], w["name"], spec["run_seconds"])
                      for w in spec["workloads"]},
    }
    out = ROOT / f"BENCH_{argv[0]}.json"
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
