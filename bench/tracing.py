"""Spans around calls into stackedcx, recorded from outside the program.

The tracer replaces each traced public function at every place it is
bound: the defining module, the package namespace, and sibling modules
that imported the name.  Spans (name, start, end, parent) and counts are
kept in flat arrays in memory and written out when the run ends.  A
span's self time is its busy time minus the busy time of its child
spans; for a generator, busy time is the time spent inside ``next``.
"""

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

FUNCTIONS = {
    "cli": ("main",),
    "textio": ("parse_complex", "parse_vertex_partition", "parse_facet_partition",
               "parse_prefix_partition", "format_partition_line"),
    "complexes": ("build_complex", "find_stacking_order"),
    "paths": ("facet_path", "face_path", "facet_distance_matrix",
              "vertex_distance_matrix"),
    "partitions": ("facet_to_vertex", "vertex_to_facet"),
    "oracle": ("enumerate_partitions", "verify_bijection", "census"),
    "natline": ("refine_once", "check_colimit_compatibility"),
    "generators": ("random_stacked",),
}

GENERATORS = {"oracle.enumerate_partitions"}
MAPS = {"partitions.facet_to_vertex", "partitions.vertex_to_facet"}


class Tracer:
    def __init__(self):
        self.recording = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_busy = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self._map_seen: dict[str, dict[int, object]] = {name: {} for name in MAPS}
        self._patches: list[tuple[object, str, object]] = []

    def _new_span(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        now = perf_counter()
        self.span_start.append(now)
        self.span_end.append(now)
        self.span_busy.append(0.0)
        return idx

    def _wrap(self, name: str, fn):
        tracer = self

        if name in GENERATORS:
            def traced_iter(idx, gen):
                try:
                    while True:
                        tracer.stack.append(idx)
                        t0 = perf_counter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            t1 = perf_counter()
                            tracer.stack.pop()
                            tracer.span_busy[idx] += t1 - t0
                            tracer.span_end[idx] = t1
                        tracer.counts[name + ".yielded"] += 1
                        yield item
                finally:
                    gen.close()

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                return traced_iter(tracer._new_span(name), fn(*args, **kwargs))
            return wrapper

        seen = self._map_seen.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            cold = False
            if seen is not None:
                X = args[0]
                cold = id(X) not in seen
                seen[id(X)] = X  # kept alive so its id is not reused
            idx = tracer._new_span(name)
            tracer.stack.append(idx)
            t0 = tracer.span_start[idx]
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.span_end[idx] = t1
                tracer.span_busy[idx] = t1 - t0
                if seen is not None:
                    tracer.seconds["partitions.map.cold_s" if cold
                                   else "partitions.map.warm_s"] += t1 - t0
        return wrapper

    def install(self, package) -> None:
        """Wrap every traced function wherever the package binds it."""
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in FUNCTIONS]
        for module_name, names in FUNCTIONS.items():
            home = sys.modules[f"{package.__name__}.{module_name}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{module_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self.recording = False
        for seen in self._map_seen.values():
            seen.clear()

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, busy seconds and self seconds."""
        calls, busy, self_s = Counter(), Counter(), Counter()
        child = [0.0] * len(self.span_name)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_busy[i]
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            calls[name] += 1
            busy[name] += self.span_busy[i]
            self_s[name] += self.span_busy[i] - child[i]
        return calls, busy, self_s

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json."""
        calls, busy, self_s = self.totals()
        parse_partition = sum(busy[f"textio.parse_{k}_partition"]
                              for k in ("vertex", "facet", "prefix"))
        out = {
            "cli.main.calls": (calls["cli.main"], "count"),
            "cli.main.self_s": (self_s["cli.main"], "s"),
            "textio.parse_complex.s": (busy["textio.parse_complex"], "s"),
            "textio.parse_partition.s": (parse_partition, "s"),
            "textio.format_partition_line.s": (busy["textio.format_partition_line"], "s"),
            "complexes.build_complex.calls": (calls["complexes.build_complex"], "count"),
            "complexes.build_complex.s": (busy["complexes.build_complex"], "s"),
            "complexes.find_stacking_order.calls": (calls["complexes.find_stacking_order"], "count"),
            "complexes.find_stacking_order.s": (busy["complexes.find_stacking_order"], "s"),
            "paths.facet_path.calls": (calls["paths.facet_path"], "count"),
            "paths.facet_path.s": (busy["paths.facet_path"], "s"),
            "paths.face_path.calls": (calls["paths.face_path"], "count"),
            "paths.face_path.s": (busy["paths.face_path"], "s"),
            "paths.distance_matrix.s": (busy["paths.facet_distance_matrix"]
                                        + busy["paths.vertex_distance_matrix"], "s"),
            "partitions.map.cold_s": (self.seconds["partitions.map.cold_s"], "s"),
            "partitions.map.warm_s": (self.seconds["partitions.map.warm_s"], "s"),
            "partitions.facet_to_vertex.calls": (calls["partitions.facet_to_vertex"], "count"),
            "partitions.vertex_to_facet.calls": (calls["partitions.vertex_to_facet"], "count"),
            "oracle.enumerate_partitions.calls": (calls["oracle.enumerate_partitions"], "count"),
            "oracle.enumerate_partitions.yielded": (self.counts["oracle.enumerate_partitions.yielded"], "count"),
            "oracle.enumerate_partitions.self_s": (self_s["oracle.enumerate_partitions"], "s"),
            "oracle.verify_bijection.self_s": (self_s["oracle.verify_bijection"], "s"),
            "oracle.census.self_s": (self_s["oracle.census"], "s"),
            "natline.refine_once.calls": (calls["natline.refine_once"], "count"),
            "natline.refine_once.self_s": (self_s["natline.refine_once"], "s"),
            "natline.check_colimit_compatibility.s": (busy["natline.check_colimit_compatibility"], "s"),
            "generators.random_stacked.s": (busy["generators.random_stacked"], "s"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}

    def write_spans(self, path) -> None:
        """One span per line: name, start, end, busy seconds, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tbusy\tparent\n")
            for i, nid in enumerate(self.span_name):
                fh.write(f"{self.names[nid]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_busy[i]:.9f}\t"
                         f"{self.span_parent[i]}\n")
