"""Spans and counts around the public entry points of absorb's layers.

The tracer wraps each entry point listed in ``LAYERS`` and rebinds every
reference to it: module globals (``cli``, ``suites`` and ``lattice`` import
functions by name), the ``PROPERTY_CHECKS`` table, and class attributes.  It
then asks the garbage collector who still holds an original function, so a
reference it missed is reported instead of silently leaking time out of its
layer.

Spans are kept in memory as (name, start, end, parent) and written out when
the traced process ends.  A layer's self time is its spans' time minus the
time of the spans they caused.
"""
from __future__ import annotations

import gc
import json
import sys
import time
import types
from collections import defaultdict

# layer -> (module, attribute) of each public entry point
LAYERS = {
    "specdsl": [("specdsl", f) for f in ("parse_module_spec", "parse_sub_spec", "parse_ring_spec")],
    "elab": [("specdsl", f) for f in ("elaborate_ring", "elaborate_module", "elaborate_sub",
                                      "elaborate_hom")],
    "lattice": [("lattice", f) for f in ("all_submodules", "all_multiplicative_sets",
                                         "decomposition_check")],
    "precompute": [("modules", "FiniteModule.scalar_hit_masks")],
    "scan": [("predicates", "setwise_sdf_primary"), ("suites", "classify_zn"),
             ("suites", "gsdf_zero_zn")],
    "suites": [("suites", "run_suite"), ("suites", "cached_check")],
    "cli": [("cli", "main")],
}
# the module properties count pairs times |M| in checked_count
_MODULE_PROPS = ("gsdf", "sdf", "cprimary", "primary", "prime")


def _pair_space(prop: str, n: int, nonzero_only: bool = False) -> int:
    """Size of the (u, v) space a scanner walks for a ring of order n."""
    if prop == "cprimary":
        return n * n
    if prop in ("primary", "prime"):
        return n
    if prop == "sdfideal" or nonzero_only:
        return n * (n - 1) // 2
    return n * (n + 1) // 2


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.spans = []          # [name, start, end, parent]
        self._stack = []         # open span indices
        self._child = []         # time covered by children of each open span
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.missing = []        # entry points that no longer exist: a warning
        self.leaks = []          # references the rebinding missed: an error
        self._originals = []
        self._keep = []          # keeps ids of seen modules unique for the run
        self._built = set()
        self._enumerated = set()
        self._zmod0 = package.rings.make_zmod.cache_info()

    # -- spans -----------------------------------------------------------

    def _wrap(self, layer, name, fn, after=None):
        spans, stack, child, self_s, clock = (
            self.spans, self._stack, self._child, self.self_s, time.perf_counter)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            rec = [name, 0.0, 0.0, parent]
            spans.append(rec)
            stack.append(idx)
            child.append(0.0)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                rec[2] = end
                stack.pop()
                dur = end - rec[1]
                self_s[layer] += dur - child.pop()
                if child:
                    child[-1] += dur
            if after is not None:
                after(args, kwargs, result, spans[parent][0] if parent >= 0 else None)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def root(self, fn):
        """Run fn inside the root span; returns its result."""
        return self._wrap("root", "root", fn)()

    # -- counters --------------------------------------------------------

    def _scan_after(self, prop):
        def after(args, kwargs, report, parent):
            N = args[0]
            R = N.ring if prop == "setwise" else N.module.ring
            module_level = prop in _MODULE_PROPS
            pairs = report.checked_count // N.module.order if module_level else report.checked_count
            self._verdict(report.holds, pairs,
                          _pair_space(prop, R.order, kwargs.get("nonzero_only", False)))
            if parent == "cached_check":
                self.counts["suites.verdict_cache_misses"] += 1
        return after

    def _zn_after(self, args, kwargs, result, parent):
        n = args[0]
        holds, wit = result
        pairs = n * (n + 1) // 2 if holds else wit[0] * (wit[0] + 1) // 2 + wit[1] + 1
        self._verdict(holds, pairs, n * (n + 1) // 2)

    def _verdict(self, holds, pairs, space):
        c = self.counts
        c["scan.calls"] += 1
        c["scan.negative"] += not holds
        c["scan.pairs_visited"] += pairs
        c["scan.pair_space"] += space

    def _precompute_after(self, args, kwargs, rows, parent):
        M, mask = args[0], args[1] if len(args) > 1 else kwargs["target_mask"]
        c = self.counts
        c["precompute.calls"] += 1
        c["precompute.cells"] += M.ring.order * M.order
        key = (id(M), mask)
        if key in self._built:
            c["precompute.rebuilds"] += 1
        else:
            self._built.add(key)
            self._keep.append(M)

    def _lattice_after(self, args, kwargs, result, parent):
        c = self.counts
        c["lattice.calls"] += 1
        c["lattice.submodules"] += len(result.members)
        if id(args[0]) in self._enumerated:
            c["lattice.repeat_calls"] += 1
        else:
            self._enumerated.add(id(args[0]))
            self._keep.append(args[0])

    def _count(self, key):
        def after(args, kwargs, result, parent):
            self.counts[key] += 1
        return after

    def _wrap_init(self, fn):
        """Wrap a constructor; an object counts once, in the __init__ its
        own class resolves to, not again in a super().__init__ it calls."""
        def after(args, kwargs, result, parent):
            if type(args[0]).__init__ is wrapper:
                self.counts["elab.structures"] += 1
        wrapper = self._wrap("elab", "__init__", fn, after)
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        pkg = self.pkg
        hooks = {
            "all_submodules": self._lattice_after,
            "all_multiplicative_sets": self._count("lattice.calls"),
            "decomposition_check": self._count("lattice.calls"),
            "FiniteModule.scalar_hit_masks": self._precompute_after,
            "setwise_sdf_primary": self._scan_after("setwise"),
            "gsdf_zero_zn": self._zn_after,
            "cached_check": self._count("suites.cached_checks"),
        }
        for layer, entries in LAYERS.items():
            for modname, attr in entries:
                mod = getattr(pkg, modname)
                owner, _, fname = attr.rpartition(".")
                holder = getattr(mod, owner) if owner else mod
                fn = holder.__dict__.get(fname) if owner else getattr(mod, fname, None)
                if fn is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                short = fname if not owner else attr
                self._replace(fn, self._wrap(layer, short, fn, hooks.get(attr)), holder, fname)
        checks = pkg.predicates.PROPERTY_CHECKS
        for prop, fn in list(checks.items()):
            checks[prop] = self._replace(fn, self._wrap("scan", prop, fn, self._scan_after(prop)))
        for base in (pkg.rings.FiniteRing, pkg.modules.FiniteModule):
            for cls in _subclasses(base):
                fn = cls.__dict__.get("__init__")
                if fn is not None:
                    self._replace(fn, self._wrap_init(fn), cls, "__init__")
        self._check_coverage()

    def _replace(self, fn, wrapper, holder=None, attr=None):
        self._originals.append(fn)
        if holder is not None:
            setattr(holder, attr, wrapper)
        for mod in list(sys.modules.values()):
            if isinstance(mod, types.ModuleType) and mod.__name__.split(".")[0] == self.pkg.__name__:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)
        return wrapper

    def _check_coverage(self):
        """Record any holder of an original function other than the tracer's
        own closures and bookkeeping."""
        gc.collect()
        own = id(self._originals)
        for fn in self._originals:
            for ref in gc.get_referrers(fn):
                if id(ref) == own or isinstance(ref, (types.CellType, types.FrameType)):
                    continue
                self.leaks.append(f"{fn.__qualname__} held by {type(ref).__name__}")

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        c = self.counts
        info = self.pkg.rings.make_zmod.cache_info()
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out.update({
            "precompute.calls": c["precompute.calls"],
            "precompute.cells": c["precompute.cells"],
            "precompute.rebuilds": c["precompute.rebuilds"],
            "scan.calls": c["scan.calls"],
            "scan.negative": c["scan.negative"],
            "scan.pairs_visited": c["scan.pairs_visited"],
            "scan.pair_space": c["scan.pair_space"],
            "lattice.calls": c["lattice.calls"],
            "lattice.submodules": c["lattice.submodules"],
            "lattice.repeat_calls": c["lattice.repeat_calls"],
            "elab.structures": c["elab.structures"],
            "elab.zmod_cache_hits": info.hits - self._zmod0.hits,
            "elab.zmod_cache_misses": info.misses - self._zmod0.misses,
            "suites.verdict_cache_hits": c["suites.cached_checks"] - c["suites.verdict_cache_misses"],
            "suites.verdict_cache_misses": c["suites.verdict_cache_misses"],
            "trace.uncovered_s": self.self_s.get("root", 0.0),
        })
        return out

    @staticmethod
    def write_spans(path, spans):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out
