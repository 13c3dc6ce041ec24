"""Layer spans for the traced benchmark run, recorded from outside the library.

``install`` swaps wrappers in for the public functions that verdicts are
built from, in every ``colombeau.*`` namespace that binds them (modules
import each other with ``from .x import y``, so patching the defining
module alone would miss most calls).  It also wraps
``SmoothMapHandle.__call__``/``.jet`` and the handles returned by
``make_bump``, ``make_box_bump`` and ``regularized_geodesic_system``.
``uninstall`` puts every original back.

Each wrapped call is a span: name, start, end, parent span, verdict id.
Spans are aggregated in memory per (verdict, name, parent); a span's self
time is its duration minus the durations of its direct children.  Only
the aggregates are kept: a traced bundles pass makes about 560,000 spans,
and as tuples in a list they would take about 115 MB (measured with
tracemalloc), more than the untraced benchmark process uses.  When a span
ends, ``call`` checks it against its parent frame (started no earlier,
same verdict) and counts breaches in ``Tracer.breaches``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time

MODULES = (
    "nets",
    "geometry",
    "asymptotics",
    "manifold_maps",
    "bundle_maps",
    "association",
    "ppwave",
    "cli",
)

# public functions wrapped as spans, by defining module
FUNCTIONS = {
    "nets": ("finite_difference_jet",),
    "geometry": ("chord_distance", "default_test_bank", "partition_of_unity"),
    "asymptotics": (
        "estimate_growth_order",
        "is_negligible",
        "negligible_to_resolution",
    ),
    "manifold_maps": (
        "check_cbounded",
        "check_moderate",
        "check_equivalent",
        "point_value",
        "adversarial_gpoint",
        "check_pointvalue_equality",
    ),
    "bundle_maps": (
        "check_vb_moderate",
        "check_hybrid_moderate",
        "check_vb_equivalent",
        "check_hybrid_equivalent",
        "compose_homs",
        "compose_hybrid",
        "align_representative",
        "hom_u_add",
        "hom_u_scale",
    ),
    "association": (
        "adaptive_simpson",
        "weak_integral",
        "check_associated_zero",
        "shadow",
        "check_k_associated",
        "embed_distribution",
    ),
    "ppwave": ("solve_geodesic", "kink_limit_study"),
    "cli": ("load_config",),
}

# span names that are not module.function
FD_JET = "nets.fd_jet"
BUMP = "geometry.bump"
RHS = "ppwave.rhs"
EVAL = "nets.eval"
JET = "nets.jet"


def _points(x):
    """Number of points in a (..., dim) array argument."""
    shape = getattr(x, "shape", None)
    if not shape:
        return 1
    n = 1
    for s in shape[:-1]:
        n *= s
    return n


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.verdict = None
        self.stack = []
        # (verdict, name, parent) -> [calls, points, total_s, self_s, raised]
        self.agg = {}
        self.cbounded_calls = []
        # spans that started before their parent or under another verdict
        self.breaches = 0
        self._tags = itertools.count(1)
        self._patches = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, points=0):
        """Run ``fn`` as a span; also used for the harness's own spans (a
        verdict or a build phase)."""
        stack = self.stack
        frame = [name, time.perf_counter(), 0.0, self.verdict]
        stack.append(frame)
        raised = True
        try:
            out = fn(*args, **kwargs)
            raised = False
            return out
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - frame[1]
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[2] += dur
                if frame[1] < parent[1] or frame[3] != parent[3]:
                    self.breaches += 1
            key = (self.verdict, name, parent[0] if parent else None)
            row = self.agg.get(key)
            if row is None:
                row = self.agg[key] = [0, 0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += points
            row[2] += dur
            row[3] += dur - frame[2]
            row[4] += raised

    def tag(self, obj):
        """Stable identity for an object seen by the tracer, never reused."""
        t = getattr(obj, "_perfbench_tag", None)
        if t is None:
            t = next(self._tags)
            obj._perfbench_tag = t
        return t

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def _wrap_points(self, name, fn, at=0):
        """Span whose points are counted from positional argument ``at``
        (1 for a method, whose first argument is the instance)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, _points(args[at]))

        return wrapper

    def _wrap_simpson(self, fn):
        @functools.wraps(fn)
        def wrapper(integrand, *args, **kwargs):
            count = [0]

            def counted(x):
                count[0] += len(x)
                return integrand(x)

            stack = self.stack
            out = self.call("association.adaptive_simpson", fn,
                            (counted,) + args, kwargs)
            # the abscissae are known only once the quadrature has run
            key = (self.verdict, "association.adaptive_simpson",
                   stack[-1][0] if stack else None)
            self.agg[key][1] += count[0]
            return out

        return wrapper

    def _wrap_cbounded(self, fn):
        from colombeau.asymptotics import EpsGrid

        @functools.wraps(fn)
        def wrapper(u, K, grid=None, *args, **kwargs):
            g = grid if grid is not None else EpsGrid.default()
            self.cbounded_calls.append(
                (self.tag(u), K.chart_id, K.box.tobytes(), g.values)
            )
            return self.call("manifold_maps.check_cbounded", fn,
                             (u, K, grid) + args, kwargs)

        return wrapper

    def _wrap_handle_factory(self, fn):
        """Factory returning a bump handle: wrap its value and jet paths."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            h = fn(*args, **kwargs)
            h.eval_fn = self._wrap_points(BUMP, h.eval_fn)
            if h.jet_impl is not None:
                h.jet_impl = self._wrap_points(BUMP, h.jet_impl)
            return h

        return wrapper

    def _wrap_rhs_factory(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rhs = fn(*args, **kwargs)
            return self._wrap(RHS, rhs)

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, namespaces=()):
        """Wrap in every ``colombeau.*`` module and in ``namespaces``, the
        caller's own modules that imported library names directly."""
        mods = {m: importlib.import_module(f"colombeau.{m}") for m in MODULES}
        importlib.import_module("colombeau.acceptance")
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name.startswith("colombeau.") and mod is not None
        ] + list(namespaces)

        wrapped = {}  # id(original) -> (original, wrapper)
        for m, names in FUNCTIONS.items():
            for fname in names:
                orig = getattr(mods[m], fname)
                span = FD_JET if fname == "finite_difference_jet" else f"{m}.{fname}"
                if span == "association.adaptive_simpson":
                    new = self._wrap_simpson(orig)
                elif span == "manifold_maps.check_cbounded":
                    new = self._wrap_cbounded(orig)
                else:
                    new = self._wrap(span, orig)
                wrapped[id(orig)] = (orig, new)
        for fname in ("make_bump", "make_box_bump"):
            orig = getattr(mods["geometry"], fname)
            wrapped[id(orig)] = (orig, self._wrap_handle_factory(orig))
        orig = mods["ppwave"].regularized_geodesic_system
        wrapped[id(orig)] = (orig, self._wrap_rhs_factory(orig))

        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

        handle = mods["nets"].SmoothMapHandle
        self._patch(handle, "__call__", self._wrap_points(EVAL, handle.__call__, at=1))
        self._patch(handle, "jet", self._wrap_points(JET, handle.jet, at=1))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def totals(self):
        """name -> [calls, points, total_s, self_s, raised], summed over
        verdicts and parents."""
        out = {}
        for (_, name, _), row in self.agg.items():
            acc = out.setdefault(name, [0, 0, 0.0, 0.0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        return out

    def rows(self):
        return [
            {
                "verdict": v, "name": n, "parent": p, "calls": r[0],
                "points": r[1], "total_s": r[2], "self_s": r[3], "raised": r[4],
            }
            for (v, n, p), r in sorted(
                self.agg.items(), key=lambda kv: tuple(str(k) for k in kv[0])
            )
        ]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics (name -> (value, unit)) from a finished trace."""
    t = tracer.totals()
    zero = [0, 0, 0.0, 0.0, 0]

    def calls(n):
        return t.get(n, zero)[0]

    def points(n):
        return t.get(n, zero)[1]

    def self_s(n):
        return t.get(n, zero)[3]

    m = {}
    for n in (BUMP, "association.adaptive_simpson"):
        m[f"{n}.calls"] = (calls(n), "count")
        m[f"{n}.points"] = (points(n), "count")
        m[f"{n}.self_s"] = (self_s(n), "s")
    cb = "manifold_maps.check_cbounded"
    distinct = len(set(tracer.cbounded_calls))
    m[f"{cb}.calls"] = (calls(cb), "count")
    m[f"{cb}.distinct"] = (distinct, "count")
    m[f"{cb}.useful_ratio"] = (distinct / calls(cb) if calls(cb) else 0.0, "ratio")
    m[f"{cb}.self_s"] = (self_s(cb), "s")
    for n in (
        "geometry.chord_distance",
        "geometry.default_test_bank",
        EVAL,
        JET,
        FD_JET,
        "asymptotics.estimate_growth_order",
        "asymptotics.is_negligible",
        "ppwave.solve_geodesic",
        RHS,
    ):
        m[f"{n}.calls"] = (calls(n), "count")
        m[f"{n}.self_s"] = (self_s(n), "s")
    m["nets.fd_share"] = (calls(FD_JET) / calls(JET) if calls(JET) else 0.0, "ratio")
    m["association.weak_integral.calls"] = (calls("association.weak_integral"), "count")
    m["manifold_maps.point_value.calls"] = (calls("manifold_maps.point_value"), "count")
    for n in (
        "manifold_maps.check_equivalent",
        "manifold_maps.check_moderate",
        "association.check_k_associated",
        "bundle_maps.check_vb_equivalent",
        "bundle_maps.check_hybrid_equivalent",
        "bundle_maps.align_representative",
        "cli.load_config",
    ):
        m[f"{n}.self_s"] = (self_s(n), "s")
    for mod in MODULES:
        own = [row for name, row in t.items() if name.startswith(mod + ".")]
        m[f"layer.{mod}.self_s"] = (sum(r[3] for r in own), "s")
        m[f"layer.{mod}.raised"] = (sum(r[4] for r in own), "count")
    return m
