"""Span recorder for the traced benchmark run.

The benchmark traces from its own files: :func:`install` replaces the public
functions of each ftok module, where their callers look them up, by wrappers
that open a span around the call.  Spans are kept in compact arrays until the
end of the process; :meth:`Recorder.summary` then computes each span's self
time (its duration minus the time covered by its child spans) and sums it per
layer.

``LAYER_METRICS`` lists every per-layer metric with the end-to-end metric it
should move.
"""

from __future__ import annotations

import collections
import functools
import json
import time
from array import array

# name -> (unit, better, which end-to-end metric it should move, on which workload)
LAYER_METRICS = {
    "poly.mul.calls": ("count", "lower", "wall_s/cpu_s on objects"),
    "poly.mul.term_pairs": ("count", "lower", "wall_s/cpu_s on objects"),
    "poly.mul.self_s": ("s", "lower", "wall_s/cpu_s on objects"),
    "poly.add.self_s": ("s", "lower", "wall_s on objects"),
    "poly.poly_sum.self_s": ("s", "lower", "wall_s on objects"),
    "poly.poly_sum.terms_in": ("count", "lower", "wall_s on objects"),
    "poly.canonical.calls": ("count", "lower", "wall_s on objects; latency_tail_s on cli-cache"),
    "poly.canonical.bytes_out": ("bytes", "lower", "wall_s on objects; latency_tail_s on cli-cache"),
    "poly.canonical.self_s": ("s", "lower", "wall_s on objects; latency_tail_s on cli-cache"),
    "poly.parse.calls": ("count", "lower", "latency_p50_s on cli-cache"),
    "poly.parse.bytes_in": ("bytes", "lower", "latency_p50_s on cli-cache"),
    "poly.parse.self_s": ("s", "lower", "latency_p50_s on cli-cache"),
    "poly.substitute.self_s": ("s", "lower", "wall_s on objects"),
    "poly.det.self_s": ("s", "lower", "wall_s on objects"),
    "symfun.tableau_sum.calls": ("count", "lower", "wall_s, latency_tail_s on objects"),
    "symfun.tableau_sum.memo_hits": ("count", "higher", "wall_s, latency_tail_s on objects"),
    "symfun.tableau_sum.self_s": ("s", "lower", "wall_s, latency_tail_s on objects"),
    "symfun.q_poly.self_s": ("s", "lower", "wall_s on objects"),
    "symfun.h_poly.self_s": ("s", "lower", "wall_s on objects"),
    "symfun.det_formula.self_s": ("s", "lower", "wall_s on objects"),
    "symfun.theorem_rhs.self_s": ("s", "lower", "wall_s on objects"),
    "tableaux.enumerate.objects": ("count", "lower", "wall_s, latency_tail_s on objects"),
    "tableaux.enumerate.self_s": ("s", "lower", "wall_s, latency_tail_s on objects"),
    "tableaux.weight.calls": ("count", "lower", "wall_s, latency_tail_s on objects"),
    "tableaux.weight.self_s": ("s", "lower", "wall_s, latency_tail_s on objects"),
    "tableaux.validate.self_s": ("s", "lower", "wall_s, latency_tail_s on objects"),
    "combin.enumerate.objects": ("count", "lower", "wall_s on objects"),
    "combin.enumerate.self_s": ("s", "lower", "wall_s on objects"),
    "combin.convert.self_s": ("s", "lower", "wall_s on objects"),
    "combin.weight.calls": ("count", "lower", "wall_s on objects"),
    "combin.weight.self_s": ("s", "lower", "wall_s on objects"),
    "sixvertex.partition_function.calls": ("count", "lower", "wall_s on objects"),
    "sixvertex.partition_function.self_s": ("s", "lower", "wall_s on objects"),
    "paths.families.objects": ("count", "lower", "wall_s on objects"),
    "paths.enumerate.self_s": ("s", "lower", "wall_s on objects"),
    "paths.weight.self_s": ("s", "lower", "wall_s on objects"),
    "harness.verify.calls": ("count", "lower", "all workloads"),
    "harness.verify.self_s": ("s", "lower", "all workloads"),
    "harness.cache.hits": ("count", "higher", "latency_p50_s on cli-cache"),
    "harness.cache.misses": ("count", "lower", "latency_tail_s on cli-cache"),
    "harness.cache.hit_ratio": ("ratio", "higher", "latency_p50_s on cli-cache"),
    "harness.cache.get_s": ("s", "lower", "latency_p50_s on cli-cache"),
    "harness.cache.put_s": ("s", "lower", "latency_tail_s on cli-cache"),
    "harness.cache.bytes_written": ("bytes", "lower", "latency_tail_s on cli-cache"),
    "cli.import_s": ("s", "lower", "setup_s, latency_p50_s on cli-cache"),
    "cli.main.self_s": ("s", "lower", "setup_s, latency_p50_s on cli-cache"),
    "trace.overhead_s": ("s", "lower", "none: traced wall_s minus untraced wall_s"),
}

# Counts that must repeat exactly between runs of one seed.
EXACT_COUNTS = (
    "poly.mul.term_pairs",
    "poly.canonical.bytes_out",
    "tableaux.enumerate.objects",
    "combin.enumerate.objects",
    "paths.families.objects",
    "harness.cache.hits",
    "harness.cache.misses",
)

# Metrics read straight from a span's self time; the rest are counters.
_SELF_TIME_SPANS = {
    name: name[: -len(".self_s")] for name in LAYER_METRICS if name.endswith(".self_s")
}
_SELF_TIME_SPANS["harness.cache.get_s"] = "harness.cache.get"
_SELF_TIME_SPANS["harness.cache.put_s"] = "harness.cache.put"


class Recorder:
    """Spans (name, start, end, parent) in arrays, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: collections.Counter = collections.Counter()

    def enter(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.stack.append(len(self.start))
        self.name_id.append(nid)
        self.parent.append(self.stack[-2] if len(self.stack) > 1 else -1)
        self.end.append(0.0)
        self.start.append(self.clock())

    def exit(self) -> None:
        t = self.clock()
        self.end[self.stack.pop()] = t

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    def wrap(self, name: str, fn):
        """``fn`` with every call timed as one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def wrap_gen(self, name: str, fn, objects: str | None = None):
        """``fn`` returning an iterator whose ``next()`` calls are timed.

        Creating the iterator is not timed.  Items are counted under
        ``objects``, except when the caller is itself a span of the same name
        (``enumerate_asm`` iterating ``enumerate_gtp``).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._timed_iter(name, iter(fn(*args, **kwargs)), objects)

        return traced

    def _timed_iter(self, name, it, objects):
        while True:
            self.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.exit()
            if objects and self.current() != name:
                self.counters[objects] += 1
            yield item

    def summary(self) -> dict:
        """Self time per span name, self time per (name, caller), and counters."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = collections.defaultdict(float)
        outer_s: dict[str, float] = collections.defaultdict(float)
        callers: dict[str, dict[str, float]] = collections.defaultdict(
            lambda: collections.defaultdict(float)
        )
        for i in range(n):
            name = self.names[self.name_id[i]]
            own = self.end[i] - self.start[i] - covered[i]
            self_s[name] += own
            p = self.parent[i]
            caller = self.names[self.name_id[p]] if p >= 0 else "-"
            callers[name][caller] += own
            if caller != name:
                outer_s[name] += self.end[i] - self.start[i]
        return {
            "spans": n,
            "self_s": dict(self_s),
            "total_s": dict(outer_s),
            "callers": {k: dict(v) for k, v in callers.items()},
            "counters": dict(self.counters),
        }


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values (without ``trace.overhead_s``) from a summary."""
    out = {}
    for name in LAYER_METRICS:
        if name in _SELF_TIME_SPANS:
            out[name] = summary["self_s"].get(_SELF_TIME_SPANS[name], 0.0)
        elif name != "trace.overhead_s":
            out[name] = summary["counters"].get(name, 0)
    lookups = out["harness.cache.hits"] + out["harness.cache.misses"]
    out["harness.cache.hit_ratio"] = out["harness.cache.hits"] / lookups if lookups else 0.0
    return out


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries (one per CLI request process) into one."""
    out = {"spans": 0, "self_s": {}, "total_s": {}, "callers": {}, "counters": {}}
    for s in summaries:
        out["spans"] += s["spans"]
        for key in ("self_s", "total_s", "counters"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        for name, by in s["callers"].items():
            dst = out["callers"].setdefault(name, {})
            for caller, v in by.items():
                dst[caller] = dst.get(caller, 0.0) + v
    return out


def install(rec: Recorder) -> None:
    """Wrap the public functions of every ftok layer where callers look them up."""
    from ftok import combin, harness, paths, poly, sixvertex, symfun, tableaux

    counters = rec.counters
    P = poly.Polynomial

    mul = P.__mul__

    def traced_mul(a, b):
        counters["poly.mul.calls"] += 1
        counters["poly.mul.term_pairs"] += len(a.terms) * len(b.terms)
        rec.enter("poly.mul")
        try:
            return mul(a, b)
        finally:
            rec.exit()

    P.__mul__ = traced_mul
    # +, - and unary - are all additive work and share one span name.
    P.__add__ = rec.wrap("poly.add", P.__add__)
    P.__sub__ = rec.wrap("poly.add", P.__sub__)
    P.__neg__ = rec.wrap("poly.add", P.__neg__)

    poly_sum = rec.wrap("poly.poly_sum", poly.poly_sum)

    def counted_poly_sum(terms):
        def counted():
            for p in terms:
                counters["poly.poly_sum.terms_in"] += len(p.terms)
                yield p

        return poly_sum(counted())

    poly.poly_sum = counted_poly_sum

    canonical = rec.wrap("poly.canonical", poly.canonical)

    def counted_canonical(p):
        text = canonical(p)
        counters["poly.canonical.calls"] += 1
        counters["poly.canonical.bytes_out"] += len(text.encode("utf-8"))
        return text

    poly.canonical = counted_canonical

    parse = rec.wrap("poly.parse", poly.parse)

    def counted_parse(text):
        counters["poly.parse.calls"] += 1
        counters["poly.parse.bytes_in"] += len(text.encode("utf-8"))
        return parse(text)

    poly.parse = counted_parse
    poly.substitute = rec.wrap("poly.substitute", poly.substitute)
    poly.det = rec.wrap("poly.det", poly.det)

    # symfun.tableau_sum and det_formula are functools.cache objects: wrap them
    # from outside and read the memo hits off cache_info().
    cached_sum = symfun.tableau_sum
    timed_sum = rec.wrap("symfun.tableau_sum", cached_sum)

    def counted_tableau_sum(*args, **kwargs):
        hits = cached_sum.cache_info().hits
        try:
            return timed_sum(*args, **kwargs)
        finally:
            counters["symfun.tableau_sum.calls"] += 1
            counters["symfun.tableau_sum.memo_hits"] += cached_sum.cache_info().hits - hits

    symfun.tableau_sum = counted_tableau_sum
    symfun.det_formula = rec.wrap("symfun.det_formula", symfun.det_formula)
    symfun.q_poly = harness.q_poly = rec.wrap("symfun.q_poly", symfun.q_poly)
    symfun.h_poly = rec.wrap("symfun.h_poly", symfun.h_poly)
    symfun.theorem_rhs = rec.wrap("symfun.theorem_rhs", symfun.theorem_rhs)

    tableaux.enumerate_tableaux = rec.wrap_gen(
        "tableaux.enumerate", tableaux.enumerate_tableaux, "tableaux.enumerate.objects"
    )
    tableaux.weight = _counted(rec, "tableaux.weight", tableaux.weight)
    tableaux.validate = rec.wrap("tableaux.validate", tableaux.validate)

    for fn in ("enumerate_gtp", "enumerate_asm"):
        setattr(
            combin,
            fn,
            rec.wrap_gen("combin.enumerate", getattr(combin, fn), "combin.enumerate.objects"),
        )
    for fn in ("asm_from_gtp", "gtp_from_asm", "cpm_from_asm", "validate_gtp", "validate_asm"):
        setattr(combin, fn, rec.wrap("combin.convert", getattr(combin, fn)))
    for fn in ("weight_gtp", "weight_cpm"):
        setattr(combin, fn, _counted(rec, "combin.weight", getattr(combin, fn)))

    sixvertex.partition_function = _counted(
        rec, "sixvertex.partition_function", sixvertex.partition_function
    )

    paths.nonintersecting_families = rec.wrap_gen(
        "paths.enumerate", paths.nonintersecting_families, "paths.families.objects"
    )
    paths.paths_weight = rec.wrap("paths.weight", paths.paths_weight)

    harness.verify_identity = _counted(rec, "harness.verify", harness.verify_identity)

    cache_get = rec.wrap("harness.cache.get", harness.cache_get)

    def counted_cache_get(request):
        entry = cache_get(request)
        counters["harness.cache.hits" if entry is not None else "harness.cache.misses"] += 1
        return entry

    harness.cache_get = counted_cache_get

    cache_put = rec.wrap("harness.cache.put", harness.cache_put)

    def counted_cache_put(*args):
        entry = cache_put(*args)
        # cache_put writes json.dump(entry, fh, sort_keys=True); dumps gives the same text
        counters["harness.cache.bytes_written"] += len(
            json.dumps(entry, sort_keys=True).encode("utf-8")
        )
        return entry

    harness.cache_put = counted_cache_put


def _counted(rec: Recorder, name: str, fn):
    timed = rec.wrap(name, fn)
    key = name + ".calls"

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.counters[key] += 1
        return timed(*args, **kwargs)

    return counted
