"""Spans around homcommon's public functions, recorded from outside the package.

`Tracer.instrument` replaces each traced function at every homcommon
module that binds it (the package imports with `from .x import y`, so a
function lives under several names) and wraps `StepKernel.__init__`, so
kernels built anywhere, `dataclasses.replace` included, are counted.  Spans
(name, start, end, parent) are kept in memory as flat arrays; the per-layer
metrics are derived from them after the run, with self time taken as a
span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from array import array
from collections import defaultdict

# module -> functions wrapped in that module's namespace (and wherever else
# the same function object is bound)
TRACED = {
    "graphons": ("density", "one_minus"),
    "graphs": ("hom_count", "automorphisms"),
    "gluing": ("build_j", "canonical_class", "x_vector"),
    "cone": ("enumerate_generators", "check_good", "verify_certificate",
             "binomial_inequality_check"),
    "commonness": ("falsify", "convexity_conditions", "certify_pair_via_templates"),
    "identities": ("goodman_residual", "c5_goodman_residual", "expansion_residual",
                   "strongly_common_gap"),
}
RESIDUALS = tuple(f"identities.{name}" for name in TRACED["identities"])


def _density_terms(args, kwargs, result):
    h = args[0] if args else kwargs["h"]
    w = args[1] if len(args) > 1 else kwargs["w"]
    return "graphons.density.terms", w.block_count ** h.vertex_count


def _generator_count(args, kwargs, result):
    return "cone.generators", len(result)


def _graphs_checked(args, kwargs, result):
    return "cone.binomial_graphs", result["graphs_checked"]


def _evaluations(args, kwargs, result):
    return "commonness.objective_evals", result.evaluations


# counts read at a span's boundary, from its arguments or its result
COUNTERS = {
    "graphons.density": _density_terms,
    "cone.enumerate_generators": _generator_count,
    "cone.binomial_inequality_check": _graphs_checked,
    "commonness.falsify": _evaluations,
}


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str):
        nid = self._name(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                self.counts[key] += amount
            return result

        return traced

    def instrument(self, modules: dict):
        """Wrap the TRACED functions and StepKernel construction in a freshly
        imported homcommon; `modules` maps short module names to modules."""
        replacements = {}
        for mod_name, functions in TRACED.items():
            for fn_name in functions:
                original = getattr(modules[mod_name], fn_name)
                replacements[id(original)] = (original,
                                              self.wrap(original, f"{mod_name}.{fn_name}"))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        kernel = modules["graphons"].StepKernel
        kernel.__init__ = self.wrap(kernel.__init__, "graphons.StepKernel")

    def mark(self) -> int:
        """Start a new pass: clear the counts and return the next span index."""
        self.counts.clear()
        return len(self.name_id)

    def summarise(self, lo: int) -> dict:
        """Per-name calls, total and self seconds over the spans from index
        lo on, plus the counts gathered since the last mark."""
        hi = len(self.name_id)
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child = defaultdict(float)
        for i in range(lo, hi):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
        selft: dict[str, float] = defaultdict(float)
        for i in range(lo, hi):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += dur
            selft[name] += dur - child.get(i, 0.0)
        return {"calls": dict(calls), "s": dict(total), "self_s": dict(selft),
                "counts": dict(self.counts)}

    def write(self, path, extra: dict):
        """Write every span as columns (times in microseconds from the first
        span) together with `extra`."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = dict(extra)
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.name_id.tolist(),
            "start_us": [round((t - t0) * 1e6, 3) for t in self.start],
            "end_us": [round((t - t0) * 1e6, 3) for t in self.end],
            "parent": self.parent.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def layer_metrics(passes: list[dict], overheads: list[float], untraced: list[float]) -> dict:
    """The per-layer metrics of BENCHMARK.json from per-pass summaries:
    medians over passes for times and counts, ratios over all passes."""

    def med(fn) -> float:
        return float(statistics.median(fn(p) for p in passes))

    def s(name):
        return med(lambda p: p["s"].get(name, 0.0))

    def calls(name):
        return med(lambda p: p["calls"].get(name, 0))

    def count(key):
        return med(lambda p: p["counts"].get(key, 0))

    def ratio(num, den, scale=1.0) -> float:
        n = sum(num(p) for p in passes)
        d = sum(den(p) for p in passes)
        return scale * n / d if d else 0.0

    def residual(p, field):
        return sum(p[field].get(name, 0) for name in RESIDUALS)

    out = {
        "graphons.density.calls": (calls("graphons.density"), "count"),
        "graphons.density.s": (s("graphons.density"), "s"),
        "graphons.density.us_per_call": (ratio(lambda p: p["s"].get("graphons.density", 0.0),
                                               lambda p: p["calls"].get("graphons.density", 0),
                                               1e6), "us"),
        "graphons.density.terms_per_s": (ratio(
            lambda p: p["counts"].get("graphons.density.terms", 0),
            lambda p: p["s"].get("graphons.density", 0.0)), "1/s"),
        "graphons.StepKernel.calls": (calls("graphons.StepKernel"), "count"),
        "graphons.StepKernel.s": (s("graphons.StepKernel"), "s"),
        "graphons.one_minus.s": (s("graphons.one_minus"), "s"),
        "graphs.hom_count.calls": (calls("graphs.hom_count"), "count"),
        "graphs.hom_count.s": (s("graphs.hom_count"), "s"),
        "graphs.automorphisms.s": (s("graphs.automorphisms"), "s"),
        "gluing.build_j.s": (s("gluing.build_j"), "s"),
        "gluing.canonical_class.s": (s("gluing.canonical_class"), "s"),
        "gluing.x_vector.calls": (calls("gluing.x_vector"), "count"),
        "gluing.x_vector.s": (s("gluing.x_vector"), "s"),
        "cone.enumerate_generators.s": (s("cone.enumerate_generators"), "s"),
        "cone.generators": (count("cone.generators"), "count"),
        "cone.check_good.self_s": (med(lambda p: p["self_s"].get("cone.check_good", 0.0)), "s"),
        "cone.verify_certificate.s": (s("cone.verify_certificate"), "s"),
        "cone.binomial_inequality_check.s": (s("cone.binomial_inequality_check"), "s"),
        "cone.binomial_graphs": (count("cone.binomial_graphs"), "count"),
        "commonness.falsify.s": (s("commonness.falsify"), "s"),
        "commonness.objective_evals": (count("commonness.objective_evals"), "count"),
        "commonness.us_per_eval": (ratio(lambda p: p["s"].get("commonness.falsify", 0.0),
                                         lambda p: p["counts"].get("commonness.objective_evals", 0),
                                         1e6), "us"),
        "commonness.convexity_conditions.s": (s("commonness.convexity_conditions"), "s"),
        "commonness.certify_pair_via_templates.s": (s("commonness.certify_pair_via_templates"), "s"),
        "identities.residual.calls": (med(lambda p: residual(p, "calls")), "count"),
        "identities.residual.s": (med(lambda p: residual(p, "s")), "s"),
        "trace.overhead_s": (float(statistics.median(overheads)), "s"),
        "trace.overhead_pct": (100.0 * float(statistics.median(overheads))
                               / float(statistics.median(untraced)), "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
