"""Span tracer for the benchmark's traced run.

The tracer works from outside the program.  ``install`` replaces, in each
``twostate`` module, every function that the module imports from another
``twostate`` module with a wrapper that records a span; it wraps the public
methods and ``__post_init__`` of the classes a module imports from another
one the same way, and ``ScenarioSpec.run``.  A span's layer is the module
that defines the wrapped code.  The benchmark opens the spans of its own
calls into the program (``cli.main``, the protective library calls) and one
root span, layer ``harness``, per request.

Spans are kept in memory as (id, parent id, request id, layer, name, start,
end, failed).  A layer's self time is its spans' duration minus the time
their child spans cover.  Counters are taken at the same boundaries by hooks
that run on a paused clock, so their cost shows in the tracing overhead but
in no span.  A name that a later version of the program no longer has is
simply not wrapped; ``absent()`` lists it instead of failing.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import importlib
import json
import os
import time
import types

MODULES = (
    "cli",
    "scenarios",
    "linalg",
    "states",
    "ideal",
    "weak",
    "pointer",
    "timemachine",
    "protective",
    "reporting",
)
LAYERS = ("import",) + MODULES + ("harness",)

# Layers whose spans the benchmark opens itself rather than through wrappers.
SELF_SPANNED = ("import", "cli", "protective", "harness")

# Methods wrapped although no other module imports their class.
EXTRA_METHODS = (("scenarios", "ScenarioSpec", "run"),)


# ---------------------------------------------------------------------------
# counter hooks: hook(tracer, args, kwargs, result, site)


def _first_arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _eigendecomposition(tr, args, kwargs, result, site):
    import numpy as np

    op = _first_arg(args, kwargs, 0, "op")
    matrix = np.ascontiguousarray(getattr(op, "matrix", op))
    d = matrix.shape[0]
    c = tr.counts
    c["linalg.eig_calls"] += 1
    c["linalg.eig_d3_sum"] += d**3
    c["linalg.projector_bytes"] += len(result.eigenvalues) * d * d * 16
    key = (matrix.shape, matrix.dtype.str, hashlib.sha1(matrix).digest())
    if key in tr.request_operators:
        c["linalg.eig_repeats"] += 1
    else:
        tr.request_operators.add(key)


def _fourier(tr, args, kwargs, result, site):
    tr.counts["linalg.fourier_calls"] += 1


def _csv_table(tr, args, kwargs, result, site):
    tr.counts["reporting.csv_bytes"] += len(result)
    if site == "scenarios":  # a figure table, formatted whether or not it is written
        tr.counts["reporting.tables_formatted"] += 1
        tr.request_tables.append(result)


def _stable_json(tr, args, kwargs, result, site):
    tr.counts["reporting.json_bytes"] += len(result)


def _write_text(tr, args, kwargs, result, site):
    text = _first_arg(args, kwargs, 1, "text")
    tr.counts["reporting.write_bytes"] += len(text)
    if any(text is table for table in tr.request_tables):
        tr.counts["reporting.tables_written"] += 1


def _certainty_cone(tr, args, kwargs, result, site):
    tr.counts["weak.cone_certified"] += len(result)


def _abl_generalized(tr, args, kwargs, result, site):
    if site == "weak" and any(name == "weak.certainty_cone" for _, name in tr.open_spans):
        tr.counts["weak.cone_candidates"] += 1


def _run_machine(tr, args, kwargs, result, site):
    stages = getattr(result, "stages", None) or {}
    tr.counts["timemachine.staged_bytes"] += sum(getattr(a, "nbytes", 0) for a in stages.values())


def _pointer_result(tr, args, kwargs, result, site):
    grid = getattr(result, "q_grid", None)
    if grid is not None:
        tr.counts["pointer.grid_points"] += grid.points


HOOKS = {
    "linalg.hermitian_eigendecomposition": _eigendecomposition,
    "linalg.fourier_pair": _fourier,
    "reporting.csv_table": _csv_table,
    "reporting.stable_json": _stable_json,
    "reporting.write_text_atomic": _write_text,
    "weak.certainty_cone": _certainty_cone,
    "ideal.abl_generalized": _abl_generalized,
    "timemachine.run_machine": _run_machine,
}
LAYER_HOOKS = {"pointer": _pointer_result}


class Tracer:
    def __init__(self, work_dir: str | None = None):
        self.work_dir = work_dir
        self.spans: list = []
        self.open_spans: list = []  # (span id, name) of the spans now open
        self.counts = collections.Counter()
        self.request_id = -1
        self.request_operators: set = set()
        self.request_tables: list = []
        self.paused = 0.0  # seconds spent in hooks, kept off the span clock
        self.wrapped: set = set()
        self._next_id = 0
        self._root = None
        self._suspended = False
        self._patches: list = []

    # -- spans -------------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _span(self, layer, name, fn, args, kwargs, site=None, hook=None):
        sid = self._next_id
        self._next_id += 1
        parent = self.open_spans[-1][0] if self.open_spans else None
        self.open_spans.append((sid, name))
        failed = True
        start = self.now()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = self.now()
            self.open_spans.pop()
            self.spans.append((sid, parent, self.request_id, layer, name, start, end, failed))
        if hook is not None:
            self.off_clock(hook, self, args, kwargs, result, site)
        return result

    def off_clock(self, fn, *args):
        """Run benchmark bookkeeping with the span clock stopped and no spans recorded."""
        start = time.perf_counter()
        self._suspended = True
        try:
            return fn(*args)
        finally:
            self._suspended = False
            self.paused += time.perf_counter() - start

    def request(self, fn, *args):
        """Run one request under a fresh request id and root span."""
        self.request_id += 1
        self.request_operators = set()
        self.request_tables = []
        self._root = self._next_id
        return self._span("harness", "request", fn, args, {})

    def call(self, layer: str, name: str, fn, *args):
        """A span around one of the benchmark's own calls into the program."""
        return self._span(layer, f"{layer}.{name}", fn, args, {})

    def count_outside_spans(self, counter: str, fn) -> None:
        def add():
            self.counts[counter] += fn()

        self.off_clock(add)

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn, layer: str, name: str, site: str):
        hook = HOOKS.get(name) or LAYER_HOOKS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            return tracer._span(layer, name, fn, args, kwargs, site, hook)

        return traced

    def _patch(self, owner, attr: str, new, name: str) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)
        self.wrapped.add(name)

    def _wrap_method(self, cls, attr: str, layer: str) -> None:
        value = vars(cls)[attr]
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(value, types.FunctionType):
            self._patch(cls, attr, self._wrapper(value, layer, name, layer), name)
        elif isinstance(value, (classmethod, staticmethod)):
            self._patch(cls, attr, type(value)(self._wrapper(value.__func__, layer, name, layer)), name)

    def install(self) -> None:
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"twostate.{short}")
            except ImportError:
                continue
        classes = {}
        for site, module in modules.items():
            for attr, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", None)
                if not isinstance(owner, str) or not owner.startswith("twostate.") or owner == module.__name__:
                    continue
                layer = owner.split(".")[1]
                if isinstance(obj, types.FunctionType):
                    name = f"{layer}.{obj.__qualname__}"
                    self._patch(module, attr, self._wrapper(obj, layer, name, site), name)
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    classes[obj] = layer
        for cls, layer in classes.items():
            for attr in list(vars(cls)):
                if not attr.startswith("_") or attr == "__post_init__":
                    self._wrap_method(cls, attr, layer)
        for short, cls_name, attr in EXTRA_METHODS:
            cls = getattr(modules.get(short), cls_name, None)
            if cls is not None and cls not in classes and attr in vars(cls):
                self._wrap_method(cls, attr, short)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def absent(self) -> list:
        """Hooked names and whole layers that the installed program did not offer."""
        wrapped_layers = {name.split(".")[0] for name in self.wrapped}
        names = [n for n in list(HOOKS) + ["scenarios.ScenarioSpec.run"] if n not in self.wrapped]
        layers = [f"layer {m}" for m in MODULES if m not in wrapped_layers and m not in SELF_SPANNED]
        return names + layers

    # -- child processes ---------------------------------------------------

    def child_spans_path(self) -> str:
        return os.path.join(self.work_dir, "child-spans.json")

    def dump(self, path: str) -> None:
        payload = {"spans": self.spans, "counts": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    def merge_child(self, path: str) -> None:
        """Adopt a traced child process's spans under the current request's root span."""

        def merge():
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            os.unlink(path)
            offset = self._next_id
            for sid, parent, _, layer, name, start, end, failed in payload["spans"]:
                parent = self._root if parent is None else parent + offset
                self.spans.append((sid + offset, parent, self.request_id, layer, name, start, end, failed))
                self._next_id = max(self._next_id, sid + offset + 1)
            self.counts.update(payload["counts"])

        self.off_clock(merge)

    # -- metrics -----------------------------------------------------------

    def layer_times(self) -> tuple:
        """Per-layer (self seconds, calls, errors leaving the layer)."""
        layer_of = {span[0]: span[3] for span in self.spans}
        covered = collections.Counter()
        for sid, parent, _, _, _, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s, calls, errors = collections.Counter(), collections.Counter(), collections.Counter()
        for sid, parent, _, layer, _, start, end, failed in self.spans:
            self_s[layer] += (end - start) - covered[sid]
            calls[layer] += 1
            if failed and (parent is None or layer_of.get(parent) != layer):
                errors[layer] += 1
        return self_s, calls, errors

    def metrics(self, requests: int) -> dict:
        """Per-layer metrics, per request where they are totals."""
        self_s, calls, errors = self.layer_times()
        wall = sum(self_s.values())
        c = self.counts
        per = 1.0 / max(requests, 1)
        mb = per / 1e6
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer] * per, "1/req")
            out[f"{layer}.self_ms"] = (self_s[layer] * 1e3 * per, "ms/req")
            out[f"{layer}.self_share"] = (self_s[layer] / wall if wall else 0.0, "ratio")
            out[f"{layer}.errors"] = (errors[layer] * per, "1/req")
        out.update(
            {
                "linalg.eig_calls": (c["linalg.eig_calls"] * per, "1/req"),
                "linalg.fourier_calls": (c["linalg.fourier_calls"] * per, "1/req"),
                "linalg.eig_d3_sum": (c["linalg.eig_d3_sum"] * per, "d3/req"),
                "linalg.projector_mb": (c["linalg.projector_bytes"] * mb, "MB/req"),
                "linalg.eig_repeat_ratio": (_ratio(c["linalg.eig_repeats"], c["linalg.eig_calls"]), "ratio"),
                "weak.cone_candidates": (c["weak.cone_candidates"] * per, "1/req"),
                "weak.cone_certified_ratio": (_ratio(c["weak.cone_certified"], c["weak.cone_candidates"]), "ratio"),
                "pointer.grid_points": (c["pointer.grid_points"] * per, "1/req"),
                "timemachine.staged_rows_mb": (c["timemachine.staged_bytes"] * mb, "MB/req"),
                "protective.eigh_blocks": (c["protective.eigh_blocks"] * per, "1/req"),
                "reporting.tables_formatted": (c["reporting.tables_formatted"] * per, "1/req"),
                "reporting.tables_used_ratio": (
                    _ratio(c["reporting.tables_written"], c["reporting.tables_formatted"]),
                    "ratio",
                ),
                "reporting.csv_mb": (c["reporting.csv_bytes"] * mb, "MB/req"),
                "reporting.json_mb": (c["reporting.json_bytes"] * mb, "MB/req"),
                "reporting.write_mb": (c["reporting.write_bytes"] * mb, "MB/req"),
            }
        )
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
