"""One fresh benchmark process: import fpmb from the checkout, then either
report set-up time (``setup``) or run a workload (``run``).

The clock for set-up starts before the first import, so set-up time is
import plus input generation up to the first item, as a CLI user pays it.
The last line of standard output is a JSON summary for ``run.py``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

# timed one by one, in dependency order, in this fresh process
IMPORT_ORDER = ("fpmb.solutions", "fpmb.pde", "fpmb.sde", "fpmb.cli")
IMPORT_S = {}
for _name in IMPORT_ORDER:
    _t = time.perf_counter()
    importlib.import_module(_name)
    IMPORT_S[_name] = time.perf_counter() - _t

import fpmb  # noqa: E402

if Path(fpmb.__file__).resolve().parent != SRC / "fpmb":
    sys.exit(f"fpmb was imported from {fpmb.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

import workloads  # noqa: E402

# stop starting items after this long, whatever the budget, so that a run
# always ends well inside three minutes
HARD_STOP_S = 120.0


def peak_rss_mb() -> float:
    """High-water resident set size of this process (VmHWM), in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def rng_ns_per_normal(n: int = 200_000, repeats: int = 21) -> float:
    """Median cost of drawing one standard normal in a block of n."""
    rng = np.random.default_rng(0)
    out = np.empty(n)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        rng.standard_normal(out=out)
        samples.append((time.perf_counter_ns() - t0) / n)
    return float(np.median(samples))


class Pass:
    """Outcome of a sequence of items, each run once.

    A check that fails is counted in ``checks_failed``.  If its name is one
    of the workload's known defects it is also counted in ``known_failed``;
    otherwise it fails its item, as an exception does.
    """

    def __init__(self, known_defects=frozenset()) -> None:
        self.known_defects = sorted(known_defects)
        self.item_s: list[float] = []
        self.labels: list[str] = []
        self.checks_attempted = 0
        self.checks_failed = 0
        self.known_failed = 0
        self.items_failed = 0
        self.fp_warnings = 0
        self.outputs: list[dict] = []

    def run(self, item, k: int, tracer=None) -> None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter_ns()
            try:
                passed = item.call() if tracer is None else tracer.run_item(k, item.call)
            except Exception:
                traceback.print_exc()
                passed = None
            t1 = time.perf_counter_ns()
        self.fp_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
        self.item_s.append((t1 - t0) * 1e-9)
        self.labels.append(item.label)
        if passed is None:
            self.items_failed += 1
            self.checks_attempted += item.checks
            self.checks_failed += item.checks
        else:
            failed = [name for name, ok in passed if not ok]
            unexpected = [name for name in failed if name not in self.known_defects]
            self.checks_attempted += len(passed)
            self.checks_failed += len(failed)
            self.known_failed += len(failed) - len(unexpected)
            if unexpected:
                self.items_failed += 1
                print(f"item {k} ({item.label}) failed checks: {', '.join(unexpected)}",
                      file=sys.stderr)
            if item.output is not None:
                self.outputs.append(item.output)


def blocks(stream, busy, budget_s: float, max_items: int | None):
    """Item indices, one workload block at a time, until ``busy()`` reaches
    the budget at a block boundary or ``max_items`` have been handed out."""
    k = 0
    while busy() < budget_s and k != max_items and time.perf_counter() - T_START < HARD_STOP_S:
        end = k + stream.block if max_items is None else min(k + stream.block, max_items)
        yield range(k, end)
        k = end


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int)
    ap.add_argument("--paths", type=int)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    stream = workloads.make_stream(args.workload, args.seed, Path(args.workdir), args.paths)
    stream.item(0)
    setup_s = time.perf_counter() - T_START
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = {"import_s": IMPORT_S}
    if not args.trace:
        run = Pass(stream.known_defects)
        for ks in blocks(stream, lambda: sum(run.item_s), args.seconds, args.items):
            for k in ks:
                run.run(stream.item(k), k)
        out["run"] = vars(run)
    else:
        import layers
        import tracing

        # a fixed number of blocks, whatever --seconds, so that the totals
        # compare between programs of different speed; every item runs
        # twice, untraced and traced, back to back in alternating order and
        # each time from a cold effective_upper cache; the traced copy gives
        # the per-layer figures, the pair gives the tracing overhead
        plain = Pass(stream.known_defects)
        traced = Pass(stream.known_defects)
        tracer = tracing.Tracer()
        clear_cache = fpmb.solutions.effective_upper.cache_clear
        max_items = args.items or stream.trace_blocks * stream.block
        for ks in blocks(stream, lambda: 0.0, float("inf"), max_items):
            for k in ks:
                for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                    clear_cache()
                    if not with_trace:
                        plain.run(stream.item(k), k)
                        continue
                    tracer.install()
                    try:
                        traced.run(stream.item(k), k, tracer)
                    finally:
                        tracer.uninstall()
        out["run"] = vars(traced)
        out["layers"] = layers.layer_metrics(tracer, plain, traced, stream)
        if args.spans:
            tracer.write_csv(args.spans)
    out["peak_rss_mb"] = peak_rss_mb()
    out["calib"] = {"rng_ns_per_normal": rng_ns_per_normal()}
    out["versions"] = {m: sys.modules[m].__version__ for m in ("numpy", "scipy")}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
