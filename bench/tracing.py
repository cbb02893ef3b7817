"""Per-layer tracing for the benchmark, installed from outside the package.

`install()` replaces public functions of `greengrowth` modules with
wrappers that record spans (name, start, end, parent) in memory, and
replaces `multiply`, `word_length` and `hn_model_log` with wrappers that
only count calls, because they run millions of times.  A wrapper is put in
place of every module attribute bound to the original function, so names
imported with `from ... import` are covered as well as late lookups such
as `kernels.convolve`.  `Tracer.metrics()` reduces the spans to the
per-layer metrics listed in README.md.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import greengrowth
from greengrowth import (
    bitree, brw, freeprod, groups, growth, kernels, trees,
)

MODULES = (greengrowth, groups, kernels, trees, bitree, growth, freeprod, brw)

# span name -> (defining module, function name)
SPANS = {
    "kernels.convolve": (kernels, "convolve"),
    "kernels.first_return": (kernels, "first_return_coefficients"),
    "kernels.tree_chain": (kernels, "tree_green_by_distance"),
    "kernels.treeprod_chain": (kernels, "treeprod_green_by_distance"),
    "kernels.zd_batch": (kernels, "zd_lazy_green_batch"),
    "kernels.zd_scalar": (kernels, "zd_lazy_green"),
    "kernels.dl_classes": (kernels, "dl_green_classes"),
    "kernels.green_truncated": (kernels, "green_truncated"),
    "growth.sphere_sweep": (growth, "sphere_reduced_sweep"),
    "growth.h_series": (growth, "h_series"),
    "growth.gap_report": (growth, "parabolic_gap_report"),
    "freeprod.tagged_returns": (freeprod, "tagged_return_coefficients"),
    "freeprod.transfer": (freeprod, "transfer"),
    "freeprod.scan": (freeprod, "scan_construction"),
    "bitree.classify": (bitree, "classify"),
    "bitree.model_window": (bitree, "model_window"),
    "brw.simulate": (brw, "simulate"),
    "brw.coset_hits": (brw, "coset_hits"),
}

# a call of the first span with no child span of the second hit its cache
CACHE_CHILD = {"growth.sphere_sweep": "kernels.convolve",
               "freeprod.tagged_returns": "kernels.first_return"}

# bytes moved by one chain step, counted as one read and one write of
# every float64 cell: a computed lower bound, not a measurement
CHAIN_BYTES_PER_CELL_STEP = 16


def _replace_everywhere(original, wrapper):
    for mod in MODULES:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)


class Tracer:
    def __init__(self):
        self.on = False
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(int)
        self.extra = defaultdict(float)

    # -- recording -------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; used for the benchmark's own operations."""
        if not self.on:
            return fn(*args, **kwargs)
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def _span_wrapper(self, name, fn, probe=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if probe is not None:
                # a span of its own, so that the probe's cost is not
                # charged to the caller's self time
                tracer._open("trace.probe")
                probe(args, kwargs, out)
                tracer._close()
            return out

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- probes: counts read from arguments and results ------------------

    def _probe_convolve(self, args, kwargs, out):
        dist = args[0]
        restrict = kwargs.get("restrict")
        if restrict is None and len(args) > 4:
            restrict = args[4]
        mass_in = sum(float(p) for x, p in dist.items()
                      if restrict is None or restrict(x))
        self.extra["kernels.convolve.entries_in"] += len(dist)
        self.extra["kernels.convolve.entries_out"] += len(out)
        self.extra["kernels.convolve.dropped_mass"] += (
            mass_in - sum(float(p) for p in out.values()))

    def _probe_treeprod(self, args, kwargs, out):
        names = ("l1", "l2", "a1", "r", "n_max", "d1_max", "d2_max")
        a = dict(zip(names, args), **kwargs)
        cells = (a["n_max"] + 2 + a["d1_max"]) * (a["n_max"] + 2 + a["d2_max"])
        self.extra["kernels.treeprod_chain.cell_steps"] += a["n_max"] * cells

    def _probe_zd_batch(self, args, kwargs, out):
        self.extra["kernels.zd_batch.classes"] += len(out)

    def _probe_dl(self, args, kwargs, out):
        self.extra["kernels.dl_classes.keys"] += len(out)

    def _brw_wrapper(self, name, fn):
        """Span plus particle steps: one multiply on the walk's own group
        per child produced, read from the group class's call counter."""
        traced = self._span_wrapper(name, fn)
        tracer = self

        def brw_traced(spec, *args, **kwargs):
            if not tracer.on:
                return fn(spec, *args, **kwargs)
            key = "groups.multiply." + type(groups.group_for(spec)).__name__
            before = tracer.counts[key]
            out = traced(spec, *args, **kwargs)
            tracer.extra["brw.particle_steps"] += tracer.counts[key] - before
            return out

        return brw_traced

    # -- installation ----------------------------------------------------

    def install(self):
        probes = {
            "kernels.convolve": self._probe_convolve,
            "kernels.treeprod_chain": self._probe_treeprod,
            "kernels.zd_batch": self._probe_zd_batch,
            "kernels.dl_classes": self._probe_dl,
        }
        for name, (mod, attr) in SPANS.items():
            fn = getattr(mod, attr)
            if name.startswith("brw."):
                wrapper = self._brw_wrapper(name, fn)
            else:
                wrapper = self._span_wrapper(name, fn, probes.get(name))
            _replace_everywhere(fn, wrapper)
        fn = bitree.hn_model_log
        _replace_everywhere(fn, self._count_wrapper("bitree.hn_model_log", fn))
        classes = [groups.Group]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            for meth in ("multiply", "word_length"):
                if meth in vars(cls):
                    fn = vars(cls)[meth]
                    key = f"groups.{meth}.{cls.__name__}"
                    setattr(cls, meth, self._count_wrapper(key, fn))
        self.on = True
        return self

    def stop(self):
        self.on = False
        self.counts = dict(self.counts)

    # -- reduction -------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the spans and counts recorded so far."""
        n = len(self.spans)
        child_time = [0.0] * n
        has_child = defaultdict(set)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                has_child[parent].add(name)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        hits = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]
            calls[name] += 1
            if name in CACHE_CHILD and CACHE_CHILD[name] not in has_child[i]:
                hits[name] += 1

        def total(prefix):
            return sum(v for k, v in self.counts.items()
                       if k.startswith(prefix))

        brw_self = self_s["brw.simulate"] + self_s["brw.coset_hits"]
        steps = self.extra["brw.particle_steps"]
        cell_steps = self.extra["kernels.treeprod_chain.cell_steps"]
        return {
            "kernels.convolve.calls": calls["kernels.convolve"],
            "kernels.convolve.self_s": self_s["kernels.convolve"],
            "kernels.convolve.entries_in":
                self.extra["kernels.convolve.entries_in"],
            "kernels.convolve.entries_out":
                self.extra["kernels.convolve.entries_out"],
            "kernels.convolve.dropped_mass":
                self.extra["kernels.convolve.dropped_mass"],
            "groups.multiply.calls": total("groups.multiply."),
            "groups.word_length.calls": total("groups.word_length."),
            "growth.sphere_sweep.self_s": self_s["growth.sphere_sweep"],
            "growth.sphere_sweep.calls": calls["growth.sphere_sweep"],
            "growth.sphere_sweep.cache_hits": hits["growth.sphere_sweep"],
            "growth.h_series.self_s": self_s["growth.h_series"],
            "kernels.first_return.self_s": self_s["kernels.first_return"],
            "freeprod.tagged_returns.self_s":
                self_s["freeprod.tagged_returns"],
            "freeprod.tagged_returns.calls": calls["freeprod.tagged_returns"],
            "freeprod.tagged_returns.cache_hits":
                hits["freeprod.tagged_returns"],
            "freeprod.transfer.calls": calls["freeprod.transfer"],
            "freeprod.scan.self_s": self_s["freeprod.scan"],
            "kernels.treeprod_chain.self_s": self_s["kernels.treeprod_chain"],
            "kernels.treeprod_chain.cell_steps": cell_steps,
            "kernels.treeprod_chain.bytes_computed":
                cell_steps * CHAIN_BYTES_PER_CELL_STEP,
            "kernels.tree_chain.self_s": self_s["kernels.tree_chain"],
            "kernels.zd_batch.self_s": self_s["kernels.zd_batch"],
            "kernels.zd_batch.classes": self.extra["kernels.zd_batch.classes"],
            "kernels.zd_scalar.self_s": self_s["kernels.zd_scalar"],
            "kernels.zd_scalar.calls": calls["kernels.zd_scalar"],
            "kernels.dl_classes.self_s": self_s["kernels.dl_classes"],
            "kernels.dl_classes.keys": self.extra["kernels.dl_classes.keys"],
            "kernels.green_truncated.self_s":
                self_s["kernels.green_truncated"],
            "bitree.classify.self_s": self_s["bitree.classify"],
            "bitree.classify.calls": calls["bitree.classify"],
            "bitree.model_window.self_s": self_s["bitree.model_window"],
            "bitree.hn_model_log.calls":
                self.counts.get("bitree.hn_model_log", 0),
            "brw.self_s": brw_self,
            "brw.particle_steps": steps,
            "brw.particle_steps_per_s": steps / brw_self if brw_self else 0.0,
        }

    def write(self, path):
        """Write the spans and raw counts as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "extra": dict(self.extra)}, fh)
