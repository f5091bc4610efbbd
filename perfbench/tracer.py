"""Per-layer tracing from outside the engine.

The tracer wraps public functions and methods of the ``wildcycle`` modules.
Every wrapped call bumps a counter; calls marked as timed also record a span
``[name, start, end, parent]``.  Spans stay in memory until the run ends.
A function imported by name is wrapped in every module that holds it, so a
call through any of those names is seen.

Nothing here is imported by the engine, and nothing is installed unless a
traced run asks for it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (layer name, module, attribute path, timed).  An attribute path with a dot
# is a method on a class; every alias of the function in the class is
# wrapped too (``__rmul__ = __mul__``).
TARGETS = [
    ("cyclotomic.cyc_mul", "wildcycle.cyclotomic", "Cyc.__mul__", False),
    ("cyclotomic.cyc_lift", "wildcycle.cyclotomic", "Cyc.lift", False),
    ("cyclotomic.cyc_inverse", "wildcycle.cyclotomic", "Cyc.inverse", False),
    ("cyclotomic.totient", "wildcycle.cyclotomic", "totient", False),
    ("params.paramscalar_new", "wildcycle.params", "ParamScalar.__init__", False),
    ("params.lpoly_divmod", "wildcycle.params", "LPoly.divmod", False),
    ("params.lpoly_gcd", "wildcycle.params", "LPoly.gcd", False),
    ("series.mul", "wildcycle.series", "LaurentSeries.__mul__", False),
    ("series.invert", "wildcycle.series", "LaurentSeries.invert", False),
    ("matrices.inverse", "wildcycle.matrices", "LaurentMatrix.inverse", True),
    ("matrices.charpoly", "wildcycle.matrices", "charpoly", False),
    ("connection.gauge_transform", "wildcycle.connection",
     "LambdaConnection.gauge_transform", True),
    ("roots.roots_in_field", "wildcycle.roots", "roots_in_field", True),
    ("roots.factor_rational_poly", "wildcycle.roots", "factor_rational_poly", True),
    ("reduction.cyclic_data", "wildcycle.reduction", "cyclic_data", True),
    ("reduction.saturate_lattice", "wildcycle.reduction", "saturate_lattice", True),
    ("turrittin.formal_decompose", "wildcycle.turrittin", "formal_decompose", True),
    ("turrittin.verify_decomposition", "wildcycle.turrittin",
     "verify_decomposition", True),
    ("regular.reduce_to_constant", "wildcycle.regular", "reduce_to_constant", True),
    ("regular.psi_beta", "wildcycle.regular", "psi_beta", True),
    ("nearby.deligne_nearby_cycles", "wildcycle.nearby",
     "deligne_nearby_cycles", True),
    ("nearby.regular_part", "wildcycle.nearby", "regular_part", False),
    ("document.parse", "wildcycle.document", "InputDocument.parse", True),
    ("report.render", "wildcycle.report", "Report.human_text", True),
    ("report.render", "wildcycle.report", "Report.to_json_text", True),
    ("cli.run_command", "wildcycle.cli", "run_command", True),
]

# The per-layer metrics a traced run reports, named ``<layer>_<kind>``.
# ``calls`` is a count per pass; ``s`` is the inclusive time per pass of the
# outermost spans of that layer (a recursive call is not counted twice).
PER_LAYER = [
    "cyclotomic.cyc_mul_calls", "cyclotomic.cyc_lift_calls",
    "cyclotomic.cyc_inverse_calls", "cyclotomic.totient_calls",
    "params.paramscalar_new_calls", "params.lpoly_divmod_calls",
    "params.lpoly_gcd_calls",
    "series.mul_calls", "series.invert_calls",
    "matrices.inverse_calls", "matrices.inverse_s", "matrices.charpoly_calls",
    "connection.gauge_transform_calls", "connection.gauge_transform_s",
    "roots.roots_in_field_calls", "roots.roots_in_field_s",
    "roots.factor_rational_poly_calls", "roots.factor_rational_poly_s",
    "reduction.cyclic_data_s", "reduction.saturate_lattice_s",
    "turrittin.formal_decompose_calls", "turrittin.formal_decompose_s",
    "turrittin.verify_decomposition_s",
    "regular.reduce_to_constant_calls", "regular.reduce_to_constant_s",
    "regular.psi_beta_s",
    "nearby.deligne_nearby_cycles_s", "nearby.regular_part_calls",
    "document.parse_s", "report.render_s", "cli.import_s", "cli.run_command_s",
]


class Tracer:
    """Counters and spans of one process; install() wraps, restore() undoes."""

    def __init__(self):
        self.counts = Counter()
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self._undo = []

    # -- recording --------------------------------------------------------
    def _wrap(self, layer, fn, timed):
        counts, spans, stack = self.counts, self.spans, self._stack
        clock = time.perf_counter
        if not timed:
            def counted(*args, **kwargs):
                counts[layer] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            counts[layer] += 1
            idx = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return spanned

    def add_span(self, layer, start, end):
        """Record a span measured by the caller (no enclosing span)."""
        self.counts[layer] += 1
        self.spans.append([layer, start, end, -1])

    def merge(self, data):
        """Add the counts and spans another process wrote with dump()."""
        self.counts.update(data["counts"])
        base = len(self.spans)
        for name, start, end, parent in data["spans"]:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1])

    def dump(self):
        return {"counts": dict(self.counts), "spans": self.spans}

    # -- installing --------------------------------------------------------
    def install(self):
        """Wrap every target in every loaded ``wildcycle`` module."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, modname, path, timed in TARGETS:
            module = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                self._wrap_method(layer, getattr(module, cls_name), attr, timed)
            else:
                self._wrap_function(layer, getattr(module, path), timed)

    def _wrap_method(self, layer, cls, attr, timed):
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = self._wrap(layer, fn, timed)
        if is_classmethod:
            wrapped = classmethod(wrapped)
        for name, value in list(cls.__dict__.items()):
            if value is raw:
                self._undo.append((cls, name, value))
                setattr(cls, name, wrapped)

    def _wrap_function(self, layer, fn, timed):
        wrapped = self._wrap(layer, fn, timed)
        for modname, module in list(sys.modules.items()):
            if modname != "wildcycle" and not modname.startswith("wildcycle."):
                continue
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrapped)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def layer_totals(spans, start, end):
    """Per-layer inclusive and self time of the spans[start:end].

    Inclusive time counts only the outermost span of each layer; self time
    is a span's duration minus the time its direct children cover.
    """
    inclusive, self_time = Counter(), Counter()
    child_time = Counter()
    for idx in range(start, end):
        name, t0, t1, parent = spans[idx]
        if parent >= start:
            child_time[parent] += t1 - t0
        outer = True
        p = parent
        while p >= start:
            if spans[p][0] == name:
                outer = False
                break
            p = spans[p][3]
        if outer:
            inclusive[name] += t1 - t0
    for idx in range(start, end):
        name, t0, t1, _ = spans[idx]
        self_time[name] += (t1 - t0) - child_time[idx]
    return inclusive, self_time


def pass_metrics(counts, inclusive):
    """The PER_LAYER values of one pass, from its counts and inclusive times."""
    out = {}
    for metric in PER_LAYER:
        layer, kind = metric.rsplit("_", 1)
        out[metric] = counts.get(layer, 0) if kind == "calls" \
            else inclusive.get(layer, 0.0)
    return out
