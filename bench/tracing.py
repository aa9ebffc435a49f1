"""Per-layer tracing from outside the package.

:class:`Tracer` replaces every public function of each ``mmpatch`` layer
module with a timing wrapper, in every ``mmpatch`` namespace that holds it
(``circpatch.bessel_j`` as well as ``specfun.bessel_j``). Functions look up
globals at call time, so the wrappers see calls between modules and calls
inside one module alike. The original functions come back on
:meth:`Tracer.restore`.

A wrapper records a span only inside :meth:`Tracer.job`; elsewhere (output
checks, warm-up) it calls straight through. Spans are fixed-width rows in
one in-memory ``array``: span id, name id, parent span id, job id, start
and end in ns, and whether the call raised. They are reduced to the layer
metrics at the end of the run, and written out only on request.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LAYERS = ("specfun", "media", "rectpatch", "circpatch", "response", "cli")
METHODS = {"response": ("FrequencyResponse", ("write_csv", "to_json_dict", "to_json"))}
ROOT = "bench.job"
FIELDS = ("span_id", "name_id", "parent_id", "job_id", "start_ns", "end_ns", "raised")

# Inclusive time per call of these functions, in ms.
INCLUSIVE = {
    "circpatch.loss_report.ms": ("circpatch.loss_report",),
    "circpatch.directivity.ms": ("circpatch.directivity",),
    "circpatch.pattern_cut.ms": ("circpatch.pattern_cut",),
    "response.circ_resonator.ms": ("response.circ_resonator",),
    "rectpatch.analyze_rect.ms": ("rectpatch.analyze_rect",),
    "response.sweep.ms": ("response.sweep",),
    "response.extract_resonance.ms": ("response.extract_resonance",),
    "response.serialize.ms": ("response.FrequencyResponse.write_csv",
                              "response.FrequencyResponse.to_json_dict"),
    "cli.main.ms": ("cli.main",),
}
CALL_COUNTS = {
    "specfun.bessel_j.calls": "specfun.bessel_j",
    "circpatch.stored_energy.calls": "circpatch.stored_energy",
}


def _count_root_evals(counters: Counter, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    # Count evaluations of the callable handed to find_root_bracketed.
    if args and callable(args[0]):
        target = args[0]

        def counted(x):
            counters["specfun.root.f_evals"] += 1
            return target(x)

        args = (counted,) + args[1:]
    return args, kwargs


def _count_sweep_points(counters: Counter, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    counters["response.sweep.points"] += getattr(spec, "points", 0)
    return args, kwargs


HOOKS = {
    "specfun.find_root_bracketed": _count_root_evals,
    "response.sweep": _count_sweep_points,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.spans = array("q")
        self.counters: Counter = Counter()
        self.job_id = -1
        self._stack = [-1]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def install(self, package: str = "mmpatch") -> None:
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
            cls_name, methods = METHODS.get(layer, (None, ()))
            cls = getattr(module, cls_name, None) if cls_name else None
            for method in methods:
                fn = vars(cls).get(method) if cls is not None else None
                if inspect.isfunction(fn):
                    self._patch(cls, method, self._wrap(fn, f"{layer}.{cls_name}.{method}"))
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                pair = wrapped.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._patch(module, attr, pair[1])

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        record = self.spans.extend
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job_id < 0:
                return fn(*args, **kwargs)
            if hook is not None:
                args, kwargs = hook(tracer.counters, args, kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            raised = 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = 0
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                record((span_id, name_id, parent, tracer.job_id, t0, t1, raised))

        return wrapper

    @contextmanager
    def job(self, job_id: int):
        """Root span of one benchmark job; wrapped calls inside it are its
        descendants."""
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        self.job_id = job_id
        raised = 1
        t0 = perf_counter_ns()
        try:
            yield
            raised = 0
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.job_id = -1
            self.spans.extend((span_id, 0, -1, job_id, t0, t1, raised))

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(FIELDS))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,job_id,name,start_ns,end_ns,raised\n")
            for sid, nid, parent, job, t0, t1, raised in self.table().tolist():
                fh.write(f"{sid},{parent},{job},{self.names[nid]},{t0},{t1},{raised}\n")


def self_times(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Duration and self time (duration minus the time direct children
    cover) of every span, in ns."""
    span_id, parent = table[:, 0], table[:, 2]
    dur = (table[:, 5] - table[:, 4]).astype(float)
    covered = np.zeros(int(span_id.max()) + 1 if len(span_id) else 0)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur, dur - covered[span_id]


def layer_metrics(tracer: Tracer, n_jobs: int) -> dict[str, tuple[float, str]]:
    """Per-job layer metrics from the recorded spans. A function a later
    version no longer has reads as 0 calls."""
    table = tracer.table()
    n_names = len(tracer.names)
    name_id = table[:, 1]
    dur, own = self_times(table)
    calls = np.bincount(name_id, minlength=n_names)
    self_ns = np.bincount(name_id, weights=own, minlength=n_names)
    incl_ns = np.bincount(name_id, weights=dur, minlength=n_names)
    raised = np.bincount(name_id, weights=table[:, 6], minlength=n_names)
    index = {name: i for i, name in enumerate(tracer.names)}
    jobs = max(n_jobs, 1)

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        ids = [i for i, name in enumerate(tracer.names) if name.split(".", 1)[0] == layer]
        metrics[f"{layer}.calls"] = (float(calls[ids].sum()) / jobs, "count")
        metrics[f"{layer}.self_ms"] = (float(self_ns[ids].sum()) / 1e6 / jobs, "ms")
        metrics[f"{layer}.errors"] = (float(raised[ids].sum()) / jobs, "count")
    metrics["bench.self_ms"] = (float(self_ns[0]) / 1e6 / jobs, "ms")
    metrics["trace.job_ms"] = (float(incl_ns[0]) / 1e6 / jobs, "ms")
    for metric, name in CALL_COUNTS.items():
        i = index.get(name)
        metrics[metric] = (float(calls[i]) / jobs if i is not None else 0.0, "count")
    for counter in ("specfun.root.f_evals", "response.sweep.points"):
        metrics[counter] = (tracer.counters[counter] / jobs, "count")
    for metric, names in INCLUSIVE.items():
        ids = [index[n] for n in names if n in index]
        n_calls = float(calls[ids].sum())
        metrics[metric] = (float(incl_ns[ids].sum()) / 1e6 / n_calls if n_calls else 0.0, "ms")
    return metrics
