"""Tracer for the benchmark's traced run, installed on fatrec from outside.

``install`` replaces the public functions of each layer module, in that module
and in every fatrec module that imported them, by wrappers that count and time
the calls; hot methods of ``TPoly``, ``CouplingSeries``, ``XSeries``,
``FatGraph`` and friends get counting or timing wrappers on their class.
Nothing under ``src/`` is edited.

A timed wrapper opens a frame only when the call crosses into another layer,
so a recursion inside one layer (``correlator`` calling itself) costs one
frame and a count.  A layer's self time is a frame's duration minus the part
covered by frames opened beneath it.  Frames of public functions are also kept
as spans ``(id, parent, job, name, start, end, self_s)``; frames of hot
methods only add to the totals, which keeps the span list small.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from math import prod

_clock = time.perf_counter

LAYERS = ("exact", "ribbon", "graphsum", "correlators", "virasoro",
          "cutjoin", "npoint", "xseries")

# Trivial formatting helpers called once per printed term; a span each would
# swamp the span list without telling anything about a layer.
SKIP = {("exact", "rat"), ("exact", "rat_str")}

# (layer, function) -> count key of the calls, nested calls included.
CALL_COUNTS = {
    ("correlators", "correlator"): "correlators.calls",
    ("virasoro", "apply_L"): "virasoro.apply_L_calls",
    ("cutjoin", "apply_M"): "cutjoin.apply_M_calls",
    ("npoint", "op_D"): "npoint.op_D_calls",
}

# (layer, function) -> named timer that also receives the frame's self time.
TIMERS = {
    ("exact", "series_exp"): "exact.series_exp_s",
    ("exact", "series_log"): "exact.series_exp_s",
}


class Tracer:
    """Counts, per-layer self times and spans, kept in memory until the end."""

    def __init__(self):
        self.enabled = False
        self.counts: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.times: defaultdict = defaultdict(float)
        self.spans: list = []
        self._stack: list = []
        self._job = None

    # -- wrappers ------------------------------------------------------------

    def _enter(self, layer, name, timer, record, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][1] if stack else None
        sid = None
        if record:
            sid = len(self.spans)
            self.spans.append(None)
        frame = [layer, sid if record else parent, 0.0]
        stack.append(frame)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
            own = (t1 - t0) - frame[2]
            self.busy[layer] += own
            if timer:
                self.times[timer] += own
            if stack:
                stack[-1][2] += t1 - t0
            if record:
                self.spans[sid] = (sid, parent, self._job, name, t0, t1, own)

    def timed(self, layer, name, fn, count=None, timer=None, record=True,
              after=None):
        """Wrap ``fn`` as a call into ``layer``."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            if count:
                tr.counts[count] += 1
            stack = tr._stack
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                result = tr._enter(layer, name, timer, record, fn, args, kwargs)
            if after:
                after(tr, args, result)
            return result

        return wrapper

    def counted(self, key, fn):
        """Wrap ``fn`` so that each call adds one to ``key``."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.enabled:
                tr.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed_iter(self, layer, fn, count):
        """Wrap a generator function; each item is one timed call into ``layer``."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tr.enabled:
                yield from it
                return
            step = it.__next__
            while True:
                try:
                    item = tr._enter(layer, None, None, False, step, (), {})
                except StopIteration:
                    return
                tr.counts[count] += 1
                yield item

        return wrapper

    def job(self, job_id, name, fn, layer="job"):
        """Run one job as a root span, with tracing on only while it runs."""
        self._job = job_id
        self.enabled = True
        try:
            return self._enter(layer, name, None, True, fn, (), {})
        finally:
            self.enabled = False

    # -- results -------------------------------------------------------------

    def merge(self, record, job):
        """Add a child process's ``summary()`` under the span of ``job``."""
        self.counts.update(record["counts"])
        for key, value in record["busy"].items():
            self.busy[key] += value
        for key, value in record["times"].items():
            self.times[key] += value
        parent = next((s[0] for s in reversed(self.spans)
                       if s[2] == job and s[1] is None), None)
        base = len(self.spans)
        for sid, par, _, name, t0, t1, own in record["spans"]:
            self.spans.append((base + sid, parent if par is None else base + par,
                               job, name, t0, t1, own))

    def summary(self) -> dict:
        return {"counts": dict(self.counts), "busy": dict(self.busy),
                "times": dict(self.times), "spans": self.spans}

    def layer_metrics(self) -> dict:
        """The per-layer metrics that the tracer itself measures."""
        c, busy, times = self.counts, self.busy, self.times
        out = {key: c[key] for key in (
            "exact.tpoly_ops", "exact.series_ops", "xseries.mul_calls",
            "ribbon.involutions", "ribbon.canonical_calls",
            "correlators.calls", "correlators.cells_computed",
            "virasoro.apply_L_calls", "cutjoin.apply_M_calls",
            "npoint.cells", "npoint.op_D_calls", "correlators.cache_bytes")}
        for layer in LAYERS:
            if layer != "exact":
                out[f"{layer}.busy_s"] = busy[layer]
        for key in ("exact.series_exp_s", "correlators.cache_load_s",
                    "correlators.cache_save_s", "cli.import_s"):
            out[key] = times[key]
        out["graphsum.useful_ratio"] = _ratio(c["graphsum.pairings_kept"],
                                              c["graphsum.pairings_visited"])
        out["correlators.useful_ratio"] = _ratio(c["correlators.cells_computed"],
                                                 c["correlators.calls"])
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _double_factorial(n: int) -> int:
    return prod(range(n, 0, -2))


def _enumeration_yield(tr, args, result):
    """Pairings kept for the requested genus against pairings visited.

    ``enumerate_graphs(g, mu)`` walks all (|mu|-1)!! pairings; the kept ones
    number prod(mu) times the class total at t = 1 (orbit-stabilizer).
    """
    g, mu = args[0], tuple(int(m) for m in args[1])
    h = sum(mu)
    if g < 0 or h % 2 or mu == (0,):
        return
    kept = prod(mu) * sum(result.terms.values())
    tr.counts["graphsum.pairings_visited"] += _double_factorial(h - 1)
    tr.counts["graphsum.pairings_kept"] += int(kept)


AFTER = {("graphsum", "enumerate_graphs"): _enumeration_yield}

# (layer, generator function) -> count key of the items it yields.
ITEM_COUNTS = {("ribbon", "involutions"): "ribbon.involutions"}

# class -> (layer, {method: count key or None}); a layer of None means the
# methods are only counted, because they are too small and too many to time.
METHODS = {
    ("exact", "TPoly"): (None, dict.fromkeys(
        ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__neg__"), "exact.tpoly_ops")),
    ("exact", "CouplingSeries"): (None, dict.fromkeys(
        ("__add__", "__sub__", "__mul__", "__rmul__"), "exact.series_ops")),
    ("xseries", "XSeries"): ("xseries", dict.fromkeys(
        ("__mul__", "__rmul__"), "xseries.mul_calls")),
    ("correlators", "CorrelatorCache"): ("correlators", {
        "load": None, "save": None}),
    ("npoint", "NPointRecursion"): ("npoint", {"__init__": None, "cell": None}),
}
METHOD_TIMERS = {"CorrelatorCache.load": "correlators.cache_load_s",
                 "CorrelatorCache.save": "correlators.cache_save_s"}
# Methods called a few times per job, which get spans of their own.
RECORDED_METHODS = {"CorrelatorCache.load", "CorrelatorCache.save",
                    "NPointRecursion.cell"}
# Private methods whose calls are the exact count of new work.
PRIVATE_COUNTS = {
    ("correlators", None, "_compute"): "correlators.cells_computed",
    ("npoint", "NPointRecursion", "_compute"): "npoint.cells",
}


def _fatrec_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fatrec" or name.startswith("fatrec."))]


def _replace(orig, new):
    """Point every fatrec module attribute that holds ``orig`` at ``new``."""
    for mod in _fatrec_modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def install(tr: Tracer) -> None:
    """Wrap fatrec's layers; calls are recorded only while ``tr.enabled``."""
    importlib.import_module("fatrec.cli")  # every module that re-imports names
    mods = {layer: importlib.import_module(f"fatrec.{layer}") for layer in LAYERS}
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or (layer, name) in SKIP
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            if inspect.isgeneratorfunction(obj):
                new = tr.timed_iter(layer, obj, ITEM_COUNTS.get(
                    (layer, name), f"{layer}.{name}_items"))
            else:
                new = tr.timed(layer, f"{layer}.{name}", obj,
                               count=CALL_COUNTS.get((layer, name)),
                               timer=TIMERS.get((layer, name)),
                               after=AFTER.get((layer, name)))
            _replace(obj, new)

    fat = mods["ribbon"].FatGraph
    for name, obj in list(vars(fat).items()):
        if inspect.isfunction(obj) and (not name.startswith("_") or name in (
                "__init__", "__eq__", "__hash__")):
            count = "ribbon.canonical_calls" if name == "canonical_word" else None
            setattr(fat, name, tr.timed("ribbon", f"FatGraph.{name}", obj,
                                        count=count, record=False))
    for (layer, cls_name), (timed_layer, methods) in METHODS.items():
        cls = getattr(mods[layer], cls_name)
        for name, count in methods.items():
            obj = vars(cls)[name]
            if timed_layer is None:
                new = tr.counted(count, obj)
            else:
                qualname = f"{cls_name}.{name}"
                new = tr.timed(timed_layer, qualname, obj, count=count,
                               timer=METHOD_TIMERS.get(qualname),
                               record=qualname in RECORDED_METHODS)
            setattr(cls, name, new)
    for (layer, cls_name, name), key in PRIVATE_COUNTS.items():
        owner = mods[layer] if cls_name is None else getattr(mods[layer], cls_name)
        setattr(owner, name, tr.counted(key, vars(owner)[name]))
