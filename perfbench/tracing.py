"""Per-layer span tracing of chamberflow, installed from outside the library.

Every public function of a layer module (plus the private hot spots named
in EXTRA) gets one wrapper. `install` rebinds each wrapped name in every
loaded chamberflow module that binds it, the defining module included, so
calls made through any module global or package attribute are recorded;
`uninstall` restores the originals.

A span is (open order id, function, start, end, parent id, job id). Spans
are kept in flat in-memory arrays and written out at the end of a run.
Self time is a span's duration minus the durations of its child spans;
the program is single-threaded, so children never overlap.

Counts and self times are reported per traced job (the totals divided by
the number of `install` calls), so they describe the work of a job and
not how many jobs fitted into the run's time budget.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

PACKAGE = "chamberflow"

LAYERS = (
    "linalg_core",
    "flag_boundary",
    "sections_cocycles",
    "loxodromy",
    "schottky_dynamics",
    "torus_density",
)

# private functions traced because their layer's work concentrates there
EXTRA = {"torus_density": ("_generated_group",)}

# work counters read from return values: metric -> (function key, count)
COUNTERS = {
    "schottky_dynamics.stable_word_lambdas.words": (
        "schottky_dynamics.stable_word_lambdas",
        lambda result: len(result[0]),
    ),
    "torus_density.points": ("torus_density._generated_group", lambda result: len(result[0])),
}

_CALLS, _OK, _SELF, _ERRORS = range(4)


class Tracer:
    """Span recorder for one process; wrappers are built once in __init__."""

    def __init__(self):
        self.error_type = importlib.import_module(f"{PACKAGE}.errors").ChamberflowError
        self.keys: list[str] = []
        self.stats: dict[str, list] = {}
        self.counts = {metric: 0 for metric in COUNTERS}
        self.originals: dict[int, object] = {}
        self.wrappers: dict[int, object] = {}
        self.bindings: list[tuple] = []
        self.job_id = -1
        self.jobs = 0
        self.next_id = 0
        self.stack: list[list] = []
        self.span_id = array("q")
        self.span_fn = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("i")
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if name.startswith("_") and name not in EXTRA.get(layer, ()):
                    continue
                key = f"{layer}.{name}"
                self.stats[key] = [0, 0, 0.0, 0]
                self.originals[id(obj)] = obj
                self.wrappers[id(obj)] = self._wrap(key, len(self.keys), layer, obj)
                self.keys.append(key)

    def _modules(self):
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self, job_id: int) -> None:
        if self.bindings:
            raise RuntimeError("tracer already installed")
        self.job_id = job_id
        self.jobs += 1
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if self.originals.get(id(value)) is value:
                    setattr(module, attr, self.wrappers[id(value)])
                    self.bindings.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self.bindings:
            setattr(module, attr, value)
        self.bindings.clear()
        self.stack.clear()

    def leftover_wrappers(self) -> list[str]:
        """Names still bound to a wrapper in any chamberflow module."""
        return [
            f"{module.__name__}.{attr}"
            for module in self._modules()
            for attr, value in vars(module).items()
            if getattr(value, "__perfbench_wrapper__", False)
        ]

    def _wrap(self, key: str, fn_index: int, layer: str, fn):
        stats = self.stats[key]
        counters = [(metric, count) for metric, (k, count) in COUNTERS.items() if k == key]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [tracer.next_id, 0.0, layer]
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, parent, stats, fn_index, start, clock(), exc)
                raise
            tracer._close(frame, parent, stats, fn_index, start, clock(), None)
            for metric, count in counters:
                tracer.counts[metric] += count(result)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _close(self, frame, parent, stats, fn_index, start, end, exc) -> None:
        self.stack.pop()
        duration = end - start
        stats[_CALLS] += 1
        stats[_SELF] += duration - frame[1]
        if exc is None:
            stats[_OK] += 1
        elif isinstance(exc, self.error_type) and (parent is None or parent[2] != frame[2]):
            stats[_ERRORS] += 1
        if parent is not None:
            parent[1] += duration
        self.span_id.append(frame[0])
        self.span_fn.append(fn_index)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent[0] if parent is not None else -1)
        self.span_job.append(self.job_id)

    def metric(self, name: str) -> float:
        """Value of one per-layer metric name as listed in BENCHMARK.json:
        a ratio, or a count or self time per traced job."""
        per_job = 1.0 / max(self.jobs, 1)
        if name in self.counts:
            return self.counts[name] * per_job
        *target, stat = name.split(".")
        if len(target) == 1 and target[0] in LAYERS:
            rows = [s for key, s in self.stats.items() if key.split(".")[0] == target[0]]
        else:
            rows = [self.stats[".".join(target)]]
        calls = sum(row[_CALLS] for row in rows)
        if stat == "calls":
            return calls * per_job
        if stat == "self_s":
            return sum(row[_SELF] for row in rows) * per_job
        if stat == "errors":
            return sum(row[_ERRORS] for row in rows) * per_job
        if stat == "accept_ratio":
            return sum(row[_OK] for row in rows) / calls if calls else 0.0
        raise KeyError(name)

    def write_spans(self, path) -> int:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.asarray(self.keys),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            fn=np.frombuffer(self.span_fn, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            job=np.frombuffer(self.span_job, dtype=np.int32),
        )
        return len(self.span_id)
