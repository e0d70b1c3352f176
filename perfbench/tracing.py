"""In-memory span tracing of fpmb's public functions, from outside the library.

Each traced function is replaced by a wrapper at every binding that refers
to it: where it is defined, and in every consumer module that imported it
with ``from .x import name``.  A wrapper records one span per call (name,
start, end, parent span, item id, and an optional size such as points or
paths) into flat arrays, so a long run keeps its spans in a few bytes
each.  ``uninstall`` puts the original objects back; the two can alternate.

The layer of a span is the module that defines the function.  A layer's
self time is the duration of its spans minus the time covered by their
child spans; summed over all layers of one item it equals the item's wall
time exactly, because children nest inside their parent in one thread.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

LAYERS = ("bench", "cli", "solutions", "specfun", "pde", "sde")

_FPMB_MODULES = (
    "fpmb",
    "fpmb.scaling",
    "fpmb.specfun",
    "fpmb.solutions",
    "fpmb.pde",
    "fpmb.sde",
    "fpmb.cli",
)


def _points(args, kwargs, out, counters):
    return np.size(kwargs["x"] if "x" in kwargs else args[1])


def _step_paths(args, kwargs, out, counters):
    counters["sde.reflections"] += out.n_reflections - args[0].n_reflections
    return args[0].positions.size


def _hist_l1(args, kwargs, out, counters):
    counters["sde.hist_l1_sum"] += out
    counters["sde.hist_l1_n"] += 1
    return 0


def _quad_work(args, kwargs, out, counters):
    counters["specfun.integrate_adaptive.unconverged"] += not out.converged
    return out.evaluations


# (module, function, size hook) for every public function the benchmark
# attributes time to.  scaling has no entry: its closures run inside the
# solutions functions and are reported there.
TARGETS = (
    ("cli", "run_checks", None),
    ("cli", "main", None),
    ("solutions", "build_solution", None),
    ("solutions", "preset_solution", None),
    ("solutions", "density", None),
    ("solutions", "reduced_density", None),
    ("solutions", "current", None),
    ("solutions", "current_from_definition", None),
    ("solutions", "coefficients", _points),
    ("solutions", "boundary_positions", None),
    ("solutions", "moment", None),
    ("solutions", "mass", None),
    ("solutions", "first_integral_residual", None),
    ("solutions", "reduced_ode_residual", None),
    ("solutions", "interior_points", None),
    ("solutions", "effective_upper", None),
    ("specfun", "integrate_adaptive", _quad_work),
    ("specfun", "kummer_1f1", None),
    ("specfun", "whittaker_w", None),
    ("pde", "make_grid", None),
    ("pde", "transformed_operator", None),
    ("pde", "evolve", None),
    ("pde", "stationary_field", None),
    ("pde", "uniform_field", None),
    ("pde", "l1_distance", None),
    ("pde", "fpe_residual_at", None),
    ("pde", "probe_window", None),
    ("sde", "init_ensemble", None),
    ("sde", "step_ensemble", _step_paths),
    ("sde", "propagate", None),
    ("sde", "histogram_table", None),
    ("sde", "histogram_distance", _hist_l1),
)


class _CountingLU:
    """Stand-in for a SuperLU factorization that counts triangular solves."""

    def __init__(self, lu, counters: Counter):
        self._lu = lu
        self._counters = counters

    def solve(self, rhs, *args, **kwargs):
        self._counters["pde.lu_solves"] += 1
        return self._lu.solve(rhs, *args, **kwargs)


class Tracer:
    """Span recorder plus the bindings it replaced while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.size = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._item = -1
        self._replaced: list[tuple[object, str, object, object]] = []
        self._cache_at_install = None
        self._name_ids: dict[str, int] = {}
        self.item_span = self._name_id("bench", "bench.item")
        self.originals = {}

    def _name_id(self, layer: str, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(0)
        self.end.append(0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self._item)
        self.size.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int, t1: int) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def run_item(self, item_id: int, fn, *args):
        """Run one benchmark item as the root span of its own tree."""
        self._item = item_id
        idx = self._open(self.item_span)
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._close(idx, t0, perf_counter_ns())
            self._item = -1

    def _wrap(self, layer: str, fname: str, fn, hook):
        nid = self._name_id(layer, f"{layer}.{fname}")
        counters = self.counters

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter_ns())
            if hook is not None:
                self.size[idx] = hook(args, kwargs, out, counters)
            return out

        return functools.wraps(fn)(traced)

    def _wrap_evolve(self, fn):
        counters = self.counters

        def evolve(*args, on_step=None, **kwargs):
            def count_step(s, m, values):
                counters["pde.evolve.steps"] += 1
                if on_step is not None:
                    on_step(s, m, values)

            return fn(*args, on_step=count_step, **kwargs)

        return functools.wraps(fn)(evolve)

    def _wrap_splu(self, fn):
        counters = self.counters

        def splu(*args, **kwargs):
            counters["pde.lu_factorizations"] += 1
            return _CountingLU(fn(*args, **kwargs), counters)

        return functools.wraps(fn)(splu)

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every binding to replace."""
        pairs = []
        pde = importlib.import_module("fpmb.pde")
        pairs.append((pde.splu, self._wrap_splu(pde.splu)))
        for layer, fname, hook in TARGETS:
            fn = getattr(importlib.import_module(f"fpmb.{layer}"), fname)
            self.originals[f"{layer}.{fname}"] = fn
            inner = self._wrap_evolve(fn) if fname == "evolve" else fn
            pairs.append((fn, self._wrap(layer, fname, inner, hook)))
        out = []
        for original, wrapper in pairs:
            for modname in _FPMB_MODULES:
                mod = importlib.import_module(modname)
                out.extend((mod, attr, original, wrapper)
                           for attr, value in vars(mod).items() if value is original)
        return out

    def install(self) -> None:
        if not self._replaced:
            self._replaced = self._bindings()
        for mod, attr, _, wrapper in self._replaced:
            setattr(mod, attr, wrapper)
        self._cache_at_install = self.originals["solutions.effective_upper"].cache_info()

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._replaced:
            setattr(mod, attr, original)
        info = self.originals["solutions.effective_upper"].cache_info()
        self.counters["solutions.effective_upper.hits"] += info.hits - self._cache_at_install.hits
        self.counters["solutions.effective_upper.misses"] += (
            info.misses - self._cache_at_install.misses)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, with duration and self time per span."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        layer_of_name = np.array([LAYERS.index(layer) for layer in self.layers])
        return {
            "start": start,
            "end": end,
            "parent": parent,
            "name": np.frombuffer(self.name, dtype=np.int32),
            "item": np.frombuffer(self.item, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.float64),
            "dur": dur,
            "self": dur - child,
            "layer": layer_of_name[np.frombuffer(self.name, dtype=np.int32)],
        }

    def write_csv(self, path) -> None:
        a = self.arrays()
        with open(path, "w") as fh:
            fh.write("span,parent,item,layer,name,start_ns,end_ns,size\n")
            for i in range(len(a["start"])):
                nid = a["name"][i]
                fh.write(
                    f"{i},{a['parent'][i]},{a['item'][i]},{self.layers[nid]},"
                    f"{self.names[nid]},{a['start'][i]},{a['end'][i]},{a['size'][i]:.17g}\n"
                )
