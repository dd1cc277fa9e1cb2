"""Spans around the program's public functions, for the per-layer metrics.

``Tracer.install`` wraps each function in LAYERS at every ``itu.*`` module
binding of its name, so calls between the program's own modules are seen
as well as the benchmark's calls.  A wrapped generator function is timed
on each ``next``.  A direct self-recursive call (``apply`` on a subterm)
opens no span of its own: its time is its caller's self time.  Every
instance of the workload gets one span id, and its spans nest under it;
the tracer records only inside instances.

A span's self time is its duration minus the time its child spans cover.
A parent counts a child as covering the whole wrapper call, entry to
exit, so the wrapper's own bookkeeping lands in no layer's self time and
shows only in ``trace.overhead_s``.  Spans are kept in memory as they
close, merged per instance by (parent, name) into call count, total and
self time -- the n=5 golden instance alone opens millions of ``inter``
spans -- and written out at the end.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = {
    "types": ("parse_type", "print_type", "inter", "organize"),
    "subtyping": ("subtype",),
    "constraints": ("apply", "verify", "parse_constraints", "parse_substitution",
                    "format_constraints", "format_substitution"),
    "axioms": ("check_axiom_soundness",),
    "matching": ("solve_matching_bounded",),
    "tiling": ("game_values", "solve_spiral_game", "validate_strategy"),
    "reduction": ("compile_strategy", "build_CT", "build_CT_prime", "extract_play"),
    "rank1": ("rank1_transform", "iter_set_solutions"),
    "cli": ("run",),
}

# self time reported per metric: the sum over these functions
SELF_TIMES = {
    **{f"{name}.s": (name,) for name in (
        "types.parse_type", "types.print_type", "types.inter", "types.organize",
        "subtyping.subtype", "constraints.apply", "constraints.verify",
        "axioms.check_axiom_soundness", "matching.solve_matching_bounded",
        "tiling.game_values", "tiling.solve_spiral_game", "tiling.validate_strategy",
        "reduction.compile_strategy", "reduction.extract_play",
        "rank1.rank1_transform", "rank1.iter_set_solutions", "cli.run")},
    "constraints.parse.s": ("constraints.parse_constraints", "constraints.parse_substitution"),
    "constraints.format.s": ("constraints.format_constraints", "constraints.format_substitution"),
    "reduction.build_ct.s": ("reduction.build_CT", "reduction.build_CT_prime"),
}
CALL_COUNTS = ("types.parse_type", "types.inter", "subtyping.subtype", "constraints.verify")
# the program's tables, read at the end when they exist
TABLES = {
    "types.intern_entries": ("types", "_cache"),
    "types.organize_cache_entries": ("types", "_organize_cache"),
    "subtyping.memo_entries": ("subtyping", "_memo"),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []  # open spans: [name, time covered by children]
        self.spans: dict[tuple, list] = {}  # (instance, parent, name) -> [count, total, self]
        self.instance = -1
        self.kinds: list[str] = []
        self.generators = Counter()  # generators started, by function
        self.yields = Counter()  # values they produced
        self.raised = Counter()  # (function, exception type) leaving a traced call
        self.verify_calls = Counter()  # verify calls by the module whose binding made them
        self.verify_true = Counter()  # ... and of those, the ones that returned True
        self.memo_hits = 0
        self.alpha_components = 0
        self.gc_s = 0.0
        self._gc_start = 0.0
        self._start = 0.0
        self._patched: list[tuple] = []

    def install(self) -> None:
        import itu

        self._itu = itu
        originals = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"itu.{layer}")
            for name in names:
                originals[getattr(module, name)] = f"{layer}.{name}"
        for modname, module in list(sys.modules.items()):
            if modname != "itu" and not modname.startswith("itu."):
                continue
            for attr, value in list(vars(module).items()):
                key = originals.get(value) if inspect.isfunction(value) else None
                if key is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, key, modname))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        elif self.enabled:
            self.gc_s += perf_counter() - self._gc_start

    def begin_instance(self, kind: str) -> None:
        self.instance += 1
        self.kinds.append(kind)
        self.stack.append([f"instance.{kind}", 0.0])
        self.enabled = True
        self._start = perf_counter()

    def end_instance(self) -> None:
        dur = perf_counter() - self._start
        self.enabled = False
        name, covered = self.stack.pop()
        self.spans[(self.instance, None, name)] = [1, dur, dur - covered]

    def _wrap(self, fn, name: str, site: str):
        tracer = self
        stack = self.stack
        spans = self.spans

        def close(frame, t_in, t0, t1):
            stack.pop()
            parent = stack[-1]
            dur = t1 - t0
            own = dur - frame[1]
            key = (tracer.instance, parent[0], name)
            rec = spans.get(key)
            if rec is None:
                spans[key] = [1, dur, own]
            else:
                rec[0] += 1
                rec[1] += dur
                rec[2] += own
            parent[1] += perf_counter() - t_in

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                if tracer.enabled:
                    tracer.generators[name] += 1
                try:
                    while True:
                        if not tracer.enabled:
                            value = next(it, it)
                        else:
                            t_in = perf_counter()
                            frame = [name, 0.0]
                            stack.append(frame)
                            t0 = perf_counter()
                            try:
                                value = next(it, it)
                            except Exception as e:
                                tracer.raised[(name, type(e).__name__)] += 1
                                raise
                            finally:
                                close(frame, t_in, t0, perf_counter())
                        if value is it:
                            return
                        tracer.yields[name] += 1
                        yield value
                finally:
                    it.close()

            return traced_gen

        memo_probe = name == "subtyping.subtype"
        count_verdicts = name == "constraints.verify"
        count_alpha = name == "reduction.compile_strategy"

        def traced(*args, **kwargs):
            # a direct self-recursive call stays in its caller's span
            if not tracer.enabled or stack[-1][0] is name:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            if memo_probe:
                memo = getattr(tracer._itu.subtyping, "_memo", None)
                if memo is not None and args[:2] in memo:
                    tracer.memo_hits += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, t_in, t0, perf_counter())
            if count_verdicts:
                tracer.verify_calls[site] += 1
                if result:
                    tracer.verify_true[site] += 1
            elif count_alpha:
                alpha = result.mapping.get("alpha")
                if alpha is not None:
                    tracer.alpha_components += len(tracer._itu.components(alpha))
            return result

        return traced

    def metrics(self) -> dict:
        """Every per-layer metric; a table the program no longer has is
        left out rather than failing the run."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (_, _, name), (count, _, own) in self.spans.items():
            self_s[name] += own
            calls[name] += count
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def ratio(num, den):
            return num / den if den else 0.0

        for metric, names in SELF_TIMES.items():
            put(metric, sum(self_s[n] for n in names), "s")
        for name in CALL_COUNTS:
            put(f"{name}.calls", calls[name], "count")
        put("reduction.alpha_components", self.alpha_components, "count")
        for layer, site, tried, rate in (("matching", "itu.matching", "candidates_tried", "candidate_yield"),
                                         ("rank1", "itu.rank1", "candidates", "candidate_yield")):
            put(f"{layer}.{tried}", self.verify_calls[site], "count")
            put(f"{layer}.{rate}", ratio(self.verify_true[site], self.verify_calls[site]), "ratio")
        put("rank1.branches", self.yields["rank1.rank1_transform"], "count")
        put("rank1.set_searches", self.generators["rank1.iter_set_solutions"], "count")
        put("rank1.search_limits", self.raised[("rank1.iter_set_solutions", "SearchLimit")], "count")
        for metric, (layer, attr) in TABLES.items():
            table = getattr(sys.modules[f"itu.{layer}"], attr, None)
            if table is not None:
                put(metric, len(table), "count")
        if getattr(self._itu.subtyping, "_memo", None) is not None:
            put("subtyping.memo_hit_ratio", ratio(self.memo_hits, calls["subtyping.subtype"]), "ratio")
        put("runtime.gc_pause_s", self.gc_s, "s")
        return out

    def write(self, path: str, metrics: dict) -> None:
        """One line per instance with its merged spans, then the metrics."""
        by_instance: dict[int, list] = {}
        for (inst, parent, name), (count, total, own) in self.spans.items():
            by_instance.setdefault(inst, []).append([parent, name, count, total, own])
        with open(path, "w") as fh:
            for i, kind in enumerate(self.kinds):
                fh.write(json.dumps({"span_id": i, "kind": kind, "spans": by_instance.get(i, [])}) + "\n")
            fh.write(json.dumps({"metrics": metrics}) + "\n")
