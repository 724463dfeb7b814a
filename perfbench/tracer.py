"""Per-layer tracing of gptkit from outside the package.

Each listed public function is replaced, at every place it is looked up
(its home module and every gptkit module that imported the name), by a
wrapper that records a span (id, parent, root, name, start, end) and
counts calls, total time and self time.  Self time is a span's duration
minus the time its wrapped children cover.  Spans and counts stay in
memory until ``write`` is called.
"""

import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict

FUNCTIONS = {
    "lp": ("solve",),
    "geometry": ("cone_extreme_rays", "polytope_vertices"),
    "spaces": ("contains_state", "is_pure", "is_effect", "mat_to_coords",
               "coords_to_mat"),
    "distinguish": ("perfectly_distinguishable", "capacity"),
    "composites": ("max_tensor", "effect_cone_generators", "enumerate_vertices"),
    "bell": ("classical_membership", "mix_deterministic", "chsh",
             "is_nonsignalling", "quantum_table", "maximize_chsh_quantum"),
    "interference": ("sorkin_i2", "sorkin_i3", "sorkin_i3_with_blockers"),
    "bloch": ("haar_so3", "group_average_state", "unitary_to_rotation",
              "bloch_to_density", "density_to_bloch"),
}
MODULES = ("gptkit", "gptkit.lp", "gptkit.geometry", "gptkit.spaces",
           "gptkit.distinguish", "gptkit.composites", "gptkit.bell",
           "gptkit.interference", "gptkit.bloch", "gptkit.cli")
# lp.solve size classes by the posed variable count
LP_CLASSES = (("small", 16), ("medium", 64), ("large", float("inf")))


class Tracer:
    def __init__(self):
        self.recording = False
        self.stack = []  # [span id, seconds covered by children]
        self.spans = []
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.lp_times = {name: [] for name, _ in LP_CLASSES}
        self.lp_infeasible = 0
        self.lp_failures = 0
        self.rays = 0
        self._patched = []
        self._next_id = 0

    def install(self):
        from gptkit.errors import NumericalFailure

        self._numerical_failure = NumericalFailure
        modules = [importlib.import_module(m) for m in MODULES]
        for home, names in FUNCTIONS.items():
            home_module = importlib.import_module("gptkit." + home)
            for name in names:
                original = getattr(home_module, name)
                wrapper = self.wrap(f"{home}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            return self._span(name, fn, args, kwargs)
        return traced

    def _span(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        root = self.stack[0][0] if self.stack else span_id
        frame = [span_id, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self._numerical_failure:
            if name == "lp.solve":
                self.lp_failures += 1
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            elapsed = end - start
            if self.stack:
                self.stack[-1][1] += elapsed
            self.calls[name] += 1
            self.total[name] += elapsed
            self.self_time[name] += elapsed - frame[1]
            self.spans.append((span_id, parent, root, name, start, end))
            if name == "lp.solve":
                n_vars = args[0].n_vars
                size = next(c for c, top in LP_CLASSES if n_vars <= top)
                self.lp_times[size].append(elapsed)
        if name == "lp.solve" and result.status == "infeasible":
            self.lp_infeasible += 1
        elif name == "geometry.cone_extreme_rays":
            self.rays += len(result)
        return result

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}; 0 for uncalled layers."""
        out = {}
        for home, names in FUNCTIONS.items():
            for name in names:
                key = f"{home}.{name}"
                out[key + ".calls"] = (self.calls[key], "count")
                out[key + ".total_s"] = (self.total[key], "s")
                out[key + ".self_s"] = (self.self_time[key], "s")
        for size, times in self.lp_times.items():
            p50 = 1e3 * statistics.median(times) if times else 0.0
            out[f"lp.solve.{size}.p50_ms"] = (p50, "ms")
        out["lp.solve.infeasible"] = (self.lp_infeasible, "count")
        out["lp.solve.failures"] = (self.lp_failures, "count")
        out["geometry.cone_extreme_rays.rays"] = (self.rays, "count")
        return out

    def write(self, path):
        """Spans as [id, parent, root, name, start_ns, end_ns], times from
        the first span's start."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        spans = [[i, p, r, n, round((a - t0) * 1e9), round((b - t0) * 1e9)]
                 for i, p, r, n, a, b in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "root", "name", "start_ns",
                                  "end_ns"], "spans": spans}, fh)
