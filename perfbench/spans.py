"""Span recording around the public functions of ``miscuq``, from outside
the package.

``install`` wraps each function or method named in ``TARGETS`` and puts the
wrapper wherever a caller looks the name up: in every loaded ``miscuq``
module namespace that refers to the original (so ``misc`` calling its own
imported ``build_grid`` is traced), and on the class for methods.  Each call
records a span ``(id, name, start, end, parent, counters)``; spans are kept
in memory and written out by ``dump`` when the stage ends.

``aggregate`` turns spans from any number of stage processes into per-name
call counts, inclusive and self times and summed counters.  A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

# (span name, module, attribute path) for each traced public function.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("cli.load_config", "cli", "load_config"),
    ("params.sample", "params", "ParamSpace.sample"),
    ("leja.knots", "leja", "SymmetricLeja.knots"),
    ("leja.knots", "leja", "WeightedGaussianLeja.knots"),
    ("interp.build_grid", "interp", "build_grid"),
    ("interp.init", "interp", "TensorInterpolant.__init__"),
    ("interp.evaluate_many", "interp", "TensorInterpolant.evaluate_many"),
    ("multiindex.combination_coefficients", "multiindex", "combination_coefficients"),
    ("multiindex.reduced_margin", "multiindex", "reduced_margin"),
    ("misc.build", "misc", "build"),
    ("misc.init_adapt", "misc", "init_adapt"),
    ("misc.adapt", "misc", "adapt"),
    ("misc.committed_points", "misc", "AdaptState.committed_points"),
    ("misc.evaluate_many", "misc", "MiscSurrogate.evaluate_many"),
    ("misc.serialize", "misc", "serialize"),
    ("misc.deserialize", "misc", "deserialize"),
    ("oracle.eval_batch", "oracle", "CachedOracle.eval_batch"),
    ("oracle.dispatch", "oracle", "ExternalProcessModel.dispatch"),
    ("oracle.cache.load", "oracle", "EvalCache.__init__"),
    ("oracle.cache.put_many", "oracle", "EvalCache.put_many"),
    ("bayes.calibrate", "bayes", "calibrate"),
    ("bayes.find_map", "bayes", "find_map"),
    ("bayes.nelder_mead", "bayes", "nelder_mead"),
    ("bayes.estimate_sigma", "bayes", "estimate_sigma"),
    ("bayes.laplace_covariance", "bayes", "laplace_covariance"),
    ("forward.push_samples", "forward", "push_samples"),
    ("forward.kde", "forward", "kde"),
    ("forward.quantiles", "forward", "quantiles"),
    ("forward.summarize_bands", "forward", "summarize_bands"),
)


def _row_count(points) -> int:
    shape = getattr(points, "shape", None)
    if shape is not None:
        return 1 if len(shape) == 1 else int(shape[0])
    return len(points)


def _backend_total(oracle) -> int:
    return sum(oracle.backend_points.values())


# Counters taken at a span boundary: name -> (before(args), after(args, result, before)).
# Each returns a dict of numbers (``before`` may return anything).
_COUNTERS = {
    "interp.evaluate_many": (None, lambda a, r, b: {"points": _row_count(a[1])}),
    "misc.evaluate_many": (None, lambda a, r, b: {"points": _row_count(a[1])}),
    "oracle.eval_batch": (
        lambda a: _backend_total(a[0]),
        lambda a, r, b: {"points": _row_count(a[2]), "backend": _backend_total(a[0]) - b}),
    "oracle.dispatch": (None, lambda a, r, b: {"points": len(r)}),
    "misc.adapt": (lambda a: len(a[0].committed),
                   lambda a, r, b: {"commits": len(r.committed) - b}),
    "misc.serialize": (None, lambda a, r, b: {"bytes": os.path.getsize(a[1])}),
    "bayes.find_map": (None, lambda a, r, b: {"surrogate_evals": r.surrogate_evals}),
    "bayes.nelder_mead": (None, lambda a, r, b: {"iterations": r.iterations}),
    "forward.kde": (None, lambda a, r, b: {
        "kernel_evals": 0 if r.degenerate else r.samples.size * r.grid.size}),
}


class Recorder:
    """In-memory span log; the parent of a span is the innermost open span
    of the same thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        before, after = _COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [len(self.spans), name, self.clock(), None,
                    stack[-1][0] if stack else None, {}]
            self.spans.append(span)
            stack.append(span)
            pre = before(args) if before is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = self.clock()
                stack.pop()
            if after is not None:
                span[5] = after(args, result, pre)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(recorder: Recorder) -> None:
    """Wrap every target and rebind each name that refers to an original."""
    modules = [importlib.import_module(f"miscuq.{m}")
               for m in ("cli", "params", "leja", "interp", "multiindex", "oracle",
                         "misc", "bayes", "forward")]
    modules.append(importlib.import_module("miscuq"))
    for name, module, attr in TARGETS:
        owner = sys.modules[f"miscuq.{module}"]
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = owner.__dict__[fn_name] if cls_path else getattr(owner, fn_name)
        wrapper = recorder.wrap(name, original)
        setattr(owner, fn_name, wrapper)
        if not cls_path:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children: dict[int, list] = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ())]
        out[sid] = (end - start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def aggregate(span_lists) -> dict[str, dict]:
    """Per span name: calls, inclusive ``total_s``, ``self_s``, calls per
    parent span name (``by_parent``) and every counter summed, over several
    processes' span lists."""
    out: dict[str, dict] = {}
    for spans in span_lists:
        selfs = self_times(spans)
        names = {s[0]: s[1] for s in spans}
        for sid, name, start, end, parent, counters in spans:
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "by_parent": {}})
            agg["calls"] += 1
            pname = names.get(parent)
            agg["by_parent"][pname] = agg["by_parent"].get(pname, 0) + 1
            agg["total_s"] += end - start
            agg["self_s"] += selfs[sid]
            for key, value in counters.items():
                agg[key] = agg.get(key, 0) + value
    return out


def root_time(spans) -> float:
    """Time covered by spans that have no parent."""
    return _covered([(s[2], s[3]) for s in spans if s[4] is None])
