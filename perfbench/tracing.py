"""Layer-boundary spans for the traced benchmark run.

The wrappers are installed from here, around cgva's public functions and
methods; nothing inside the package changes.  Each call of a wrapped
function records a span (name, start, end, parent).  Spans stay in memory
and are written out once, when the run ends.

A span's self time is its duration minus the time its child spans cover.
Summing self time by layer (the cgva module a function belongs to) says
which layer a run spent its time in.  Arithmetic on LinComb, Matrix and
scalar values is not wrapped, because it is far too hot: it counts as
self time of the nearest wrapped caller.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
import weakref

LAYERS = ("lie", "linalg", "cg", "vertex", "degree2", "cli", "bench")

# (module, attribute or Class.method, metric key, result size measure)
TARGETS = [
    ("cgva.lie", "load_algebra", "lie.load_algebra", None),
    ("cgva.lie", "algebra_from_name", "lie.algebra_from_name", None),
    ("cgva.lie", "LieAlgebra.validate", "lie.validate", None),
    ("cgva.linalg", "row_reduce", "linalg.row_reduce", None),
    ("cgva.linalg", "matrix_rank", "linalg.row_reduce", None),
    ("cgva.linalg", "rank_and_kernel", "linalg.rank_and_kernel", None),
    ("cgva.linalg", "solve", "linalg.solve", None),
    ("cgva.linalg", "Subspace.__init__", "linalg.subspace", None),
    ("cgva.linalg", "Subspace.reduce", "linalg.subspace", None),
    ("cgva.linalg", "Subspace.contains", "linalg.subspace", None),
    ("cgva.linalg", "Subspace.add", "linalg.subspace", None),
    ("cgva.linalg", "Subspace.intersect", "linalg.subspace", None),
    ("cgva.cg", "s_map", "cg.s_map", None),
    ("cgva.cg", "s_matrix", "cg.s_matrix", lambda m: len(m.entries)),
    ("cgva.cg", "star", "cg.star", None),
    ("cgva.cg", "build_cg", "cg.build_cg", None),
    ("cgva.cg", "identity_suite", "cg.identity_suite", None),
    ("cgva.cg", "CGAlgebra.diamond", "cg.diamond", None),
    ("cgva.cg", "CGAlgebra.unit", "cg.unit", None),
    ("cgva.cg", "CGAlgebra.export_tables", "cg.export_tables", None),
    ("cgva.vertex", "VertexEngine.nth_product", "vertex.nth_product", len),
    ("cgva.vertex", "VertexEngine.apply_mode", "vertex.apply_mode", len),
    ("cgva.vertex", "axiom_suite", "vertex.axiom_suite", None),
    ("cgva.vertex", "comp_lemma_suite", "vertex.comp_lemma_suite", None),
    ("cgva.degree2", "DegreeTwo.kernel", "degree2.kernel_t", None),
    ("cgva.degree2", "kernel_t", "degree2.kernel_t", None),
    ("cgva.degree2", "sym_quotient", "degree2.sym_quotient", None),
    ("cgva.degree2", "correspondence_suite", "degree2.correspondence", None),
    ("cgva.degree2", "conformal_suite", "degree2.conformal", None),
    ("cgva.degree2", "ideal_closure_suite", "degree2.ideal_closure", None),
    ("cgva.degree2", "jordan_product", "degree2.jordan_product", None),
]

# per-layer metric -> (span key, what to report)
SPAN_METRICS = {
    "lie.validate_s": ("lie.validate", "time"),
    "linalg.row_reduce_s": ("linalg.row_reduce", "time"),
    "linalg.row_reduce_calls": ("linalg.row_reduce", "calls"),
    "linalg.solve_s": ("linalg.solve", "time"),
    "linalg.solve_calls": ("linalg.solve", "calls"),
    "linalg.rank_and_kernel_s": ("linalg.rank_and_kernel", "time"),
    "linalg.subspace_s": ("linalg.subspace", "time"),
    "linalg.s_matrix_nnz": ("cg.s_matrix", "size_max"),
    "cg.s_matrix_s": ("cg.s_matrix", "time"),
    "cg.build_cg_s": ("cg.build_cg", "time"),
    "cg.build_cg_calls": ("cg.build_cg", "calls"),
    "cg.star_s": ("cg.star", "time"),
    "cg.star_calls": ("cg.star", "calls"),
    "cg.s_map_calls": ("cg.s_map", "calls"),
    "vertex.nth_product_s": ("vertex.nth_product", "time"),
    "vertex.nth_product_calls": ("vertex.nth_product", "calls"),
    "vertex.apply_mode_s": ("vertex.apply_mode", "time"),
    "vertex.apply_mode_calls": ("vertex.apply_mode", "calls"),
    "degree2.kernel_t_s": ("degree2.kernel_t", "time"),
    "degree2.sym_quotient_s": ("degree2.sym_quotient", "time"),
    "degree2.correspondence_s": ("degree2.correspondence", "time"),
    "degree2.conformal_s": ("degree2.conformal", "time"),
    "degree2.jordan_product_calls": ("degree2.jordan_product", "calls"),
}


def _cgva_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cgva" or name.startswith("cgva."))]


class Recorder:
    """Collects spans, result sizes and vertex-engine cache sizes."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.max_size: dict[str, int] = {}
        self.engines = {"apply_cache_entries": 0, "nth_cache_entries": 0,
                        "max_state_terms": 0}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself: a set-up, round or CLI
        request."""
        name_id = self._name_id(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name_id, start, end, parent)

    def _wrap(self, key: str, fn, measure):
        name_id = self._name_id(key)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        max_size = self.max_size

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if measure is not None:
                n = measure(result)
                if n > max_size.get(key, 0):
                    max_size[key] = n
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every target at every place that binds it.

        A function imported with `from .cg import star` is a separate
        binding in the importing module, so each cgva module is searched
        for the original object.  Methods are replaced on their class.
        """
        modules = _cgva_modules()
        originals = []
        for modname, attr, key, measure in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(key, orig, measure))
            else:
                orig = getattr(owner, attr)
                wrapped = self._wrap(key, orig, measure)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapped)
                originals.append((modname, attr, orig))
        for modname, attr, orig in originals:
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is orig:
                        raise RuntimeError(
                            f"{mod.__name__}.{name} still binds the unwrapped "
                            f"{modname}.{attr}")
        self._watch_engines()

    def _watch_engines(self) -> None:
        """Read each VertexEngine's caches when the engine is released.

        The engine is held only weakly: weakref.finalize keeps its instance
        dict, which the engine frees at the same moment anyway, and reads
        it once the engine is gone.  Holding engines past their job would
        add their caches to the peak RSS being measured.
        """
        from cgva.vertex import VertexEngine

        init = VertexEngine.__init__
        stats = self.engines

        def released(attrs: dict) -> None:
            caches = [attrs.get("_apply_cache", {}), attrs.get("_nth_cache", {})]
            stats["apply_cache_entries"] = max(stats["apply_cache_entries"],
                                               len(caches[0]))
            stats["nth_cache_entries"] = max(stats["nth_cache_entries"],
                                             len(caches[1]))
            for cache in caches:
                for state in cache.values():
                    if len(state) > stats["max_state_terms"]:
                        stats["max_state_terms"] = len(state)

        def watched_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            weakref.finalize(engine, released, engine.__dict__)

        watched_init.__wrapped__ = init
        VertexEngine.__init__ = watched_init

    # -- reduction ---------------------------------------------------------

    def per_layer(self) -> dict:
        """Per-layer metrics for one set-up plus one round.

        Each top-level span is a set-up or a round; totals in each phase
        are divided by the number of its spans, then added.
        """
        names, spans = self.names, self.spans
        n = len(spans)
        child = [0.0] * n
        top = [0] * n
        units: dict[str, int] = {}
        for i, (name_id, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                top[i] = top[parent]
            else:
                top[i] = i
                units[names[name_id]] = units.get(names[name_id], 0) + 1
        calls: dict[str, float] = {}
        incl: dict[str, float] = {}
        self_time = {layer: 0.0 for layer in LAYERS}
        for i, (name_id, start, end, parent) in enumerate(spans):
            key = names[name_id]
            weight = 1.0 / units[names[spans[top[i]][0]]]
            layer = key.split(".")[0] if parent >= 0 else "bench"
            self_time[layer] += (end - start - child[i]) * weight
            calls[key] = calls.get(key, 0.0) + weight
            p = parent
            while p >= 0 and spans[p][0] != name_id:
                p = spans[p][3]
            if p < 0:  # outermost span of its key: count its time once
                incl[key] = incl.get(key, 0.0) + (end - start) * weight
        out = {}
        for metric, (key, what) in SPAN_METRICS.items():
            if what == "time":
                out[metric] = incl.get(key, 0.0)
            elif what == "calls":
                out[metric] = round(calls.get(key, 0.0), 6)
            else:
                out[metric] = self.max_size.get(key, 0)
        out["vertex.max_state_terms"] = max(
            self.engines["max_state_terms"],
            self.max_size.get("vertex.nth_product", 0),
            self.max_size.get("vertex.apply_mode", 0))
        out["vertex.apply_cache_entries"] = self.engines["apply_cache_entries"]
        out["vertex.nth_cache_entries"] = self.engines["nth_cache_entries"]
        for key, value in incl.items():
            if key.startswith("cli."):
                out[key + "_s"] = value
        for layer, value in self_time.items():
            out[f"self.{layer}_s"] = value
        out["trace.spans"] = n
        return out

    def write(self, path) -> None:
        blob = json.dumps({"names": self.names,
                           "fields": ["name", "start", "end", "parent"],
                           "spans": self.spans}, separators=(",", ":"))
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(blob)
