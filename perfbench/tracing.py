"""Per-layer tracing from outside the program.

`install()` replaces each traced public function or operator method with a
wrapper that counts calls and accumulates inclusive and self time.  A
function is replaced in every `rinehart` module namespace that binds it,
because the modules import each other's functions by name.  Scalar and
polynomial operations run millions of times, so the tracer keeps one
aggregate per function and no per-call spans.

Self time is a call's duration minus the time spent in traced calls below
it; untraced helpers count toward their nearest traced caller.
"""

from __future__ import annotations

import functools
import sys
import time

# (stat key, module, function name)
FUNCTIONS = (
    ("poly.divmod", "rinehart.poly", "divmod_poly"),
    ("poly.normal_form", "rinehart.poly", "normal_form"),
    ("tensors.inner", "rinehart.tensors", "inner"),
    ("tensors.pairing", "rinehart.tensors", "pairing"),
    ("tensors.sharp", "rinehart.tensors", "sharp"),
    ("space.derive", "rinehart.space", "derive"),
    ("space.lie_bracket", "rinehart.space", "lie_bracket"),
    ("space.curvature", "rinehart.space", "curvature"),
    ("hypersurface.project_tangent", "rinehart.hypersurface", "project_tangent"),
    ("hypersurface.second_form", "rinehart.hypersurface", "second_fundamental_form"),
    ("randgen.random_poly", "rinehart.randgen", "random_poly"),
    ("randgen.other", "rinehart.randgen", "random_fn"),
    ("randgen.other", "rinehart.randgen", "random_field"),
    ("randgen.other", "rinehart.randgen", "random_scalar"),
    ("randgen.other", "rinehart.randgen", "monomials_up_to"),
    ("parse.parse_poly", "rinehart.parse", "parse_poly"),
    ("parse.other", "rinehart.parse", "parse_scalar"),
    ("parse.other", "rinehart.parse", "parse_vector"),
    ("cli.build_workspace", "rinehart.cli", "build_workspace"),
)

# (stat key, module, class name, method names)
METHODS = (
    ("rings.scalar", "rinehart.rings", "GroundScalar",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
      "inverse")),
    ("poly.mul", "rinehart.poly", "Poly", ("__mul__", "__rmul__")),
    ("poly.add", "rinehart.poly", "Poly", ("__add__", "__radd__", "__sub__", "__rsub__")),
    ("poly.diff", "rinehart.poly", "Poly", ("diff",)),
    ("poly.quotient_elem", "rinehart.poly", "QuotientElem", ("__post_init__",)),
    ("tensors.det", "rinehart.tensors", "Metric", ("det",)),
    ("tensors.adjugate", "rinehart.tensors", "Metric", ("adjugate",)),
    ("space.connection", "rinehart.space", "EuclideanConnection", ("__call__",)),
    ("space.connection", "rinehart.space", "KoszulConnection", ("__call__", "form")),
    ("space.koszul_build", "rinehart.space", "KoszulConnection", ("__init__",)),
    ("hypersurface.induced", "rinehart.hypersurface", "InducedConnection", ("__call__",)),
)

CHECK_NAMES = (
    "anchor-compatibility", "connection-leibniz", "curvature-tensorial",
    "differential-leibniz", "flat-curvature", "gauss-split", "induced-identities",
    "induced-metric", "jacobi-identity", "koszul-flat-agreement", "levi-civita",
    "metric-transfer", "musical-roundtrip", "normal-form-homomorphism", "pairing-duality",
    "projection-orthogonal", "projection-retraction", "representative-independence",
    "second-form-symmetric", "space-form", "tangency",
)


class Tracer:
    """Aggregates [calls, inclusive seconds, self seconds] per stat key."""

    def __init__(self):
        self.stats: dict = {}
        self.sizes = {"poly.mul.terms_out": 0, "poly.divmod.terms_in": 0,
                      "poly.divmod.peak_terms": 0, "hypersurface.induced.memo_hits": 0}
        self._stack = [0.0]

    def wrap(self, key, fn, before=None, after=None):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                below = stack.pop()
                stack[-1] += spent
                stat[0] += 1
                stat[1] += spent
                stat[2] += spent - below
            if after is not None:
                after(args, result, token)
            return result

        return functools.update_wrapper(traced, fn)

    # -- size hooks ------------------------------------------------------------

    def _mul_terms(self, args, result, token):
        if result is not NotImplemented:
            self.sizes["poly.mul.terms_out"] += len(result.terms)

    def _divmod_terms(self, args, result, token):
        size = len(args[0].terms)
        self.sizes["poly.divmod.terms_in"] += size
        if size > self.sizes["poly.divmod.peak_terms"]:
            self.sizes["poly.divmod.peak_terms"] = size

    @staticmethod
    def _memo_size(args):
        return len(args[0]._memo)

    def _memo_hit(self, args, result, token):
        # a call that leaves the memo table unchanged was answered from it
        if len(args[0]._memo) == token:
            self.sizes["hypersurface.induced.memo_hits"] += 1

    def hooks(self, key):
        if key == "poly.mul":
            return None, self._mul_terms
        if key == "poly.divmod":
            return None, self._divmod_terms
        if key == "hypersurface.induced":
            return self._memo_size, self._memo_hit
        return None, None

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()}, "sizes": dict(self.sizes)}


def _rebind(original, replacement):
    """Point every rinehart module attribute bound to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "rinehart" or name.startswith("rinehart.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap every traced function, method and check runner of rinehart."""
    import importlib

    tracer = Tracer()
    for key, module_name, func_name in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, func_name)
        before, after = tracer.hooks(key)
        _rebind(original, tracer.wrap(key, original, before, after))
    for key, module_name, class_name, methods in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        before, after = tracer.hooks(key)
        for method in methods:
            setattr(cls, method, tracer.wrap(key, vars(cls)[method], before, after))
    suites = importlib.import_module("rinehart.suites")
    for i, spec in enumerate(suites.REGISTRY):
        runner = tracer.wrap(f"suites.{spec.name}", spec.runner)
        suites.REGISTRY[i] = type(spec)(spec.name, spec.needs, runner)
    return tracer


def merge(snapshots) -> dict:
    """Sum the snapshots of several processes (peak sizes take the maximum)."""
    stats: dict = {}
    sizes: dict = {}
    for snap in snapshots:
        for key, (calls, incl, self_s) in snap["stats"].items():
            acc = stats.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for key, value in snap["sizes"].items():
            if key.endswith("peak_terms"):
                sizes[key] = max(sizes.get(key, 0), value)
            else:
                sizes[key] = sizes.get(key, 0) + value
    return {"stats": stats, "sizes": sizes}


def layer_metrics(merged: dict) -> dict:
    """Name every per-layer metric, as (value, unit)."""
    stats = merged["stats"]
    sizes = merged["sizes"]

    def calls(key):
        return stats.get(key, [0, 0.0, 0.0])[0]

    def incl(key):
        return stats.get(key, [0, 0.0, 0.0])[1]

    def self_s(*keys):
        return sum(stats.get(k, [0, 0.0, 0.0])[2] for k in keys)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "rings.scalar_ops": (calls("rings.scalar"), "count"),
        "rings.self_s": (self_s("rings.scalar"), "s"),
        "poly.mul.calls": (calls("poly.mul"), "count"),
        "poly.mul.terms_out": (sizes.get("poly.mul.terms_out", 0), "count"),
        "poly.mul.self_s": (self_s("poly.mul"), "s"),
        "poly.add.calls": (calls("poly.add"), "count"),
        "poly.add.self_s": (self_s("poly.add"), "s"),
        "poly.diff.calls": (calls("poly.diff"), "count"),
        "poly.divmod.calls": (calls("poly.divmod"), "count"),
        "poly.divmod.terms_in": (sizes.get("poly.divmod.terms_in", 0), "count"),
        "poly.divmod.peak_terms": (sizes.get("poly.divmod.peak_terms", 0), "count"),
        "poly.divmod.self_s": (self_s("poly.divmod"), "s"),
        "poly.quotient_elem.calls": (calls("poly.quotient_elem"), "count"),
        "poly.reduce_ratio": (ratio(calls("poly.normal_form"), calls("poly.quotient_elem")),
                              "ratio"),
        "tensors.inner.calls": (calls("tensors.inner"), "count"),
        "tensors.inner.self_s": (self_s("tensors.inner"), "s"),
        "tensors.pairing.calls": (calls("tensors.pairing"), "count"),
        "tensors.det.calls": (calls("tensors.det"), "count"),
        "tensors.det.self_s": (self_s("tensors.det"), "s"),
        "tensors.adjugate.calls": (calls("tensors.adjugate"), "count"),
        "tensors.adjugate.self_s": (self_s("tensors.adjugate"), "s"),
        "tensors.sharp.calls": (calls("tensors.sharp"), "count"),
        "space.derive.calls": (calls("space.derive"), "count"),
        "space.derive.self_s": (self_s("space.derive"), "s"),
        "space.lie_bracket.calls": (calls("space.lie_bracket"), "count"),
        "space.connection.calls": (calls("space.connection"), "count"),
        "space.connection.self_s": (self_s("space.connection"), "s"),
        "space.koszul.builds": (calls("space.koszul_build"), "count"),
        "space.koszul.build_s": (incl("space.koszul_build"), "s"),
        "space.curvature.calls": (calls("space.curvature"), "count"),
        "space.curvature.self_s": (self_s("space.curvature"), "s"),
        "hypersurface.project_tangent.calls": (calls("hypersurface.project_tangent"), "count"),
        "hypersurface.project_tangent.self_s": (self_s("hypersurface.project_tangent"), "s"),
        "hypersurface.induced.calls": (calls("hypersurface.induced"), "count"),
        "hypersurface.induced.self_s": (self_s("hypersurface.induced"), "s"),
        "hypersurface.induced.memo_hit_ratio": (
            ratio(sizes.get("hypersurface.induced.memo_hits", 0), calls("hypersurface.induced")),
            "ratio"),
        "hypersurface.second_form.calls": (calls("hypersurface.second_form"), "count"),
        "hypersurface.second_form.self_s": (self_s("hypersurface.second_form"), "s"),
        "randgen.random_poly.calls": (calls("randgen.random_poly"), "count"),
        "randgen.self_s": (self_s("randgen.random_poly", "randgen.other"), "s"),
        "parse.parse_poly.calls": (calls("parse.parse_poly"), "count"),
        "parse.self_s": (self_s("parse.parse_poly", "parse.other"), "s"),
    }
    for name in CHECK_NAMES:
        out[f"suites.{name}.s"] = (incl(f"suites.{name}"), "s")
    out["cli.build_workspace.s"] = (incl("cli.build_workspace"), "s")
    return out
