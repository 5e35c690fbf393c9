"""Per-layer spans and counts, recorded from outside ``opdk``.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``opdk`` module that binds it, so calls between modules and calls
inside a module (looked up through its globals at call time) are both
seen.  Spans are kept in memory as ``[name, start, end, parent]`` and
written out by the caller; ``restore`` puts every original name back.
"""

from __future__ import annotations

import bisect
import functools
import sys
import time
from collections import Counter

# layer -> (module, traced functions); the layer of ``opdk._kernel`` is
# named ``kernel`` because metric names start with a letter
LAYERS = {
    "exactlin": ("opdk.exactlin", ("smith_normal_form", "rref", "kernel",
                                   "solve", "cokernel", "hnf_columns",
                                   "compose")),
    "kernel": ("opdk._kernel", ("rref_mod", "matmul_mod")),
    "operad": ("opdk.operad", ("composite_product", "dk_equivalence",
                               "homotopy_category")),
    "trees": ("opdk.trees", ("free_operad", "enumerate_trees",
                             "extension_stage")),
    "chain": ("opdk.chain", ("tensor", "homology", "is_quasi_iso")),
    "simp": ("opdk.simp", ("tensor",)),
    "doldkan": ("opdk.doldkan", ("normalize", "gamma", "aw", "shuffle",
                                 "normalize_operad")),
}

# a binding of a traced function that gets its own span around the
# function's span, attributing those calls to the calling layer
CALLER_SPANS = {
    ("opdk.operad", "cokernel"): "operad.generic_quotient",
    ("opdk.trees", "cokernel"): "trees.cokernel",
}

# classes whose constructions are timed as spans
SPAN_CLASSES = {"trees.FreeOperad": ("opdk.trees", "FreeOperad")}
# classes whose constructions are only counted: there are tens of
# thousands per pass, and a span each would swamp the figures
COUNT_CLASSES = {"exactlin.LinearMap": ("opdk.exactlin", "LinearMap")}

SMITH = "exactlin.smith_normal_form"


def span_names():
    names = [f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns]
    return names + list(CALLER_SPANS.values()) + list(SPAN_CLASSES)


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
    out += [(f"{name}.calls", "count") for name in COUNT_CLASSES]
    out.append((f"{SMITH}.max_cells", "cells"))
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    return out


def _opdk_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "opdk" or name.startswith("opdk.")) and m is not None]


class Tracer:
    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.max_cells = 0
        self._stack = []

    def _wrap(self, name, fn, before=None):
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _smith_cells(self, m, *_):
        self.max_cells = max(self.max_cells, m.source.rank * m.target.rank)

    def _patch(self, obj, attr, new):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self):
        """Wrap every traced function in every opdk module binding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _opdk_modules()
        by_name = {m.__name__: m for m in modules}
        for layer, (modname, fns) in LAYERS.items():
            home = by_name[modname]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                name = f"{layer}.{fn_name}"
                before = self._smith_cells if name == SMITH else None
                wrapped = self._wrap(name, orig, before)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is not orig:
                            continue
                        caller = CALLER_SPANS.get((m.__name__, attr))
                        self._patch(m, attr, wrapped if caller is None
                                    else self._wrap(caller, wrapped))
        for name, (modname, cls_name) in SPAN_CLASSES.items():
            cls = getattr(by_name[modname], cls_name)
            self._patch(cls, "__init__", self._wrap(name, cls.__init__))
        for name, (modname, cls_name) in COUNT_CLASSES.items():
            cls = getattr(by_name[modname], cls_name)
            self._patch(cls, "__init__", self._count(name, cls.__init__))
        missing = [n for n in CALLER_SPANS if not any(
            obj is by_name.get(n[0]) and attr == n[1]
            for obj, attr, _ in self._patches)]
        if missing:
            raise RuntimeError(f"caller bindings not found: {missing}")

    def restore(self):
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def metrics(self, pauses=()):
        """Per-layer metrics of the spans recorded since the last reset.

        ``pauses`` are (start, end) intervals in time order, taken by the
        caller inside the spans (the speed slices); each span's time
        excludes the pauses that began within it."""
        starts = [a for a, _ in pauses]
        paused = [0.0]
        for a, b in pauses:
            paused.append(paused[-1] + b - a)

        def net(start, end):
            i = bisect.bisect_left(starts, start)
            j = bisect.bisect_left(starts, end)
            return end - start - (paused[j] - paused[i])

        spans = self.spans
        dur = [net(start, end) for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        calls, incl = Counter(), Counter()
        self_s = Counter()
        open_names = []  # names of the ancestors of span i, by index
        for i, (name, _, _, parent) in enumerate(spans):
            ancestors = open_names[parent] if parent >= 0 else frozenset()
            open_names.append(ancestors | {name})
            calls[name] += 1
            if name not in ancestors:  # inclusive time counts the outermost
                incl[name] += dur[i]
            self_s[name.split(".")[0]] += dur[i] - child[i]
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
        for name in COUNT_CLASSES:
            out[f"{name}.calls"] = self.counts[name]
        out[f"{SMITH}.max_cells"] = self.max_cells
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out
