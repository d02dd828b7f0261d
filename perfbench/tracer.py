"""Per-layer tracing of the package from outside.

`install` wraps the package's public functions and the arithmetic
operators of its classes. A module that does `from .x import f` holds
its own binding of `f`, so each wrapper replaces the original at every
binding found in every loaded `spectral_torelli` module, and methods are
patched on the class (aliases such as `__rmul__ = __mul__` included).

Each wrapper counts calls and accumulates self time: the span's duration
minus the time covered by traced spans nested inside it. Spans of the
coarse layers are also kept in memory, with their parent and the job
that caused them, and written out once the run ends. The exact-algebra
operators run millions of times per replay, so they are only counted.
Only a run that asked for tracing imports this module; the untraced run
has no wrappers at all.
"""

import functools
import gc
import itertools
import sys
import time

PACKAGE = "spectral_torelli"

# (module, function, metric name); spans of these are kept.
FUNCTIONS = (
    ("curve_catalog", "reduce_mod_p", "curve_catalog.reduce_mod_p"),
    ("finite_arithmetic", "count_points", None),
    ("galois_certificates", "root_ratio_orders", "galois_certificates.root_ratio_orders"),
    ("galois_certificates", "galois_group", "galois_certificates.galois_group"),
    ("galois_certificates", "tate_condition", "galois_certificates.tate_condition"),
    ("galois_certificates", "quadratic_subfield", "galois_certificates.quadratic_subfield"),
    ("igusa_invariants", "igusa", "igusa_invariants.igusa"),
    ("igusa_invariants", "binary_sextic_discriminant",
     "igusa_invariants.binary_sextic_discriminant"),
    ("igusa_invariants", "rank_at_point", "igusa_invariants.rank_at_point"),
    ("series_kernel", "substitute_hamiltonian", "series_kernel.substitute_hamiltonian"),
    ("series_kernel", "verify_hamilton_flow", "series_kernel.verify_hamilton_flow"),
    ("endo_pipeline", "certify_endomorphisms", "endo_pipeline.certify_endomorphisms"),
    ("endo_pipeline", "verify_painleve_divisor_gar92",
     "endo_pipeline.verify_painleve_divisor_gar92"),
    ("cli", "main", "cli.main"),
)
# Exact-algebra entry points: counted, spans not kept.
COUNTED_FUNCTIONS = (
    ("exact_algebra", "resultant", "exact_algebra.resultant"),
    ("exact_algebra", "rational_matrix_rank", "exact_algebra.rational_matrix_rank"),
)
# (module, class, methods, metric name, keep spans)
METHODS = (
    ("curve_catalog", "CurveFamily", ("specialize",), "curve_catalog.specialize", True),
    ("exact_algebra", "MultiPoly", ("__init__",), "exact_algebra.multipoly_init", False),
    ("exact_algebra", "MultiPoly", ("__mul__",), "exact_algebra.multipoly_mul", False),
    ("exact_algebra", "MultiPoly", ("__add__", "__sub__", "__rsub__", "__neg__"),
     "exact_algebra.multipoly_add", False),
    ("exact_algebra", "MultiPoly", ("substitute",), "exact_algebra.multipoly_substitute",
     False),
    ("exact_algebra", "UniPoly", ("divmod",), "exact_algebra.unipoly_divmod", False),
    ("exact_algebra", "Jet1", ("__mul__",), "exact_algebra.jet1_mul", False),
)
COUNT_POINTS = ("finite_arithmetic.count_points.ext1", "finite_arithmetic.count_points.ext2")


def span_names():
    """Every metric name a wrapper reports, in a stable order."""
    names = []
    for _, _, name in FUNCTIONS + COUNTED_FUNCTIONS:
        names.extend(COUNT_POINTS if name is None else (name,))
    names.extend(name for *_, name, _ in METHODS)
    return names


class Tracer:
    """Call counts, self times and kept spans of the wrapped functions,
    plus garbage-collector passes and their time."""

    def __init__(self):
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.elements_scanned = 0
        self.gc_collections = 0
        self.gc_s = 0.0
        self.job = None
        # Kept spans: (job, span id, parent span id, name, start, end).
        self.spans = []
        # Time covered by traced children, one entry per open span.
        self._inner = []
        # Ids of the open kept spans; the last is the parent of a new one.
        self._open = []
        self._ids = itertools.count()
        self._gc_start = None
        self.bindings = {}

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_collections += 1
            self.gc_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    def start_gc(self):
        gc.callbacks.append(self._on_gc)

    def stop_gc(self):
        gc.callbacks.remove(self._on_gc)

    def counters(self):
        """Every counter by metric name, as a flat snapshot."""
        flat = {f"{name}.calls": n for name, n in self.calls.items()}
        flat.update((f"{name}.self_s", t) for name, t in self.self_s.items())
        flat["finite_arithmetic.elements_scanned"] = self.elements_scanned
        flat["runtime.gc_collections"] = self.gc_collections
        flat["runtime.gc_s"] = self.gc_s
        return flat

    def wrap(self, fn, name, keep, label=None):
        """`fn` wrapped to report under `name`, or under `label(kwargs)`
        when the name depends on the call."""
        inner, open_ids, spans, ids = self._inner, self._open, self.spans, self._ids
        calls, self_s = self.calls, self.self_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        clock = time.perf_counter

        if keep:
            def wrapper(*args, **kwargs):
                key = name if label is None else label(args, kwargs)
                sid = next(ids)
                parent = open_ids[-1] if open_ids else None
                open_ids.append(sid)
                inner.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    elapsed = t1 - t0
                    covered = inner.pop()
                    open_ids.pop()
                    if inner:
                        inner[-1] += elapsed
                    calls[key] += 1
                    self_s[key] += elapsed - covered
                    spans.append((self.job, sid, parent, key, t0, t1))
        else:
            def wrapper(*args, **kwargs):
                inner.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    covered = inner.pop()
                    if inner:
                        inner[-1] += elapsed
                    calls[name] += 1
                    self_s[name] += elapsed - covered

        return functools.wraps(fn)(wrapper)

    def _count_points_label(self, args, kwargs):
        p = int(args[1])
        if kwargs.get("extension", 1) == 2:
            self.elements_scanned += p * p
            return COUNT_POINTS[1]
        self.elements_scanned += p
        return COUNT_POINTS[0]

    def install(self):
        """Wrap every target at every binding in the loaded package."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        targets = [(m, f, n, True) for m, f, n in FUNCTIONS]
        targets += [(m, f, n, False) for m, f, n in COUNTED_FUNCTIONS]
        for module, func, name, keep in targets:
            original = getattr(by_name[module], func)
            label = self._count_points_label if name is None else None
            wrapped = self.wrap(original, name or COUNT_POINTS[0], keep, label)
            hits = [
                f"{m.__name__}.{attr}"
                for m in modules
                for attr, value in list(vars(m).items())
                if value is original
            ]
            for binding in hits:
                mod_name, _, attr = binding.rpartition(".")
                setattr(sys.modules[mod_name], attr, wrapped)
            self.bindings[f"{module}.{func}"] = hits
        for module, cls_name, methods, name, keep in METHODS:
            cls = getattr(by_name[module], cls_name)
            for method in methods:
                original = cls.__dict__[method]
                wrapped = self.wrap(original, name, keep)
                hits = [a for a, v in list(vars(cls).items()) if v is original]
                for attr in hits:
                    setattr(cls, attr, wrapped)
                self.bindings[f"{module}.{cls_name}.{method}"] = [
                    f"{cls_name}.{a}" for a in hits
                ]
