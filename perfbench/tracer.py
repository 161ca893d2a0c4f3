"""Spans and counts around normplane's public functions, from outside.

The tracer replaces module attributes (``normplane.corpus.iso_ledger``,
``normplane.quadrature.panel``, ``AdmissibleCurve.point`` ...) with thin
wrappers.  A function that other modules imported by name is replaced in
every module that holds it, so calls through any of those names are seen.
Nothing under ``src/`` is edited.

Spans nest on one stack (the workloads are single-threaded).  A span's
inclusive time counts only its outermost activation, and its self time is
its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# span name -> (module, attribute) pairs whose calls open that span
SPANS = {
    "curve.construct": [("normplane.curve", "AdmissibleCurve.__init__")],
    "curve.point": [("normplane.curve", "AdmissibleCurve.point")],
    "measures.mixed_area": [("normplane.measures", "mixed_area")],
    "measures.dual_length": [("normplane.measures", "dual_length")],
    "decomp.decompose": [("normplane.decomp", "decompose")],
    "expressions.compile": [("normplane.expressions", "compile_fn")],
    "ball.build": [("normplane.ball", "build_ball")],
    "ball.area": [("normplane.ball", "UnitBall.area")],
    "inequalities.iso_ledger": [("normplane.inequalities", "iso_ledger")],
    "inequalities.lhuilier_check": [("normplane.inequalities",
                                     "lhuilier_check")],
    "inequalities.polygon": [
        ("normplane.inequalities", "circumscribed_parallel_polygon"),
        ("normplane.inequalities", "symmetrize_polygon")],
    "inequalities.embed": [("normplane.inequalities", "embed_polygon")],
    "corpus.generate": [
        ("normplane.corpus", "random_convex_curve"),
        ("normplane.corpus", "random_symmetric_zero_dual"),
        ("normplane.corpus", "random_constant_width_zero_dual")],
    "jsonio.load": [("normplane.jsonio", "load_curve"),
                    ("normplane.jsonio", "load_ball"),
                    ("normplane.jsonio", "load_polygon")],
    "jsonio.dump": [("normplane.jsonio", "dump_report")],
    "svg.write": [("normplane.svg", "write")],
}

# spans whose call count is a reported metric, and the metric's name
CALL_COUNTS = {
    "curve.construct": "curve.construct_calls",
    "curve.point": "curve.point_calls",
    "expressions.compile": "expressions.compile_calls",
    "ball.build": "ball.build_calls",
    "corpus.generate": "corpus.generate_calls",
}

# the benchmark's own span around one command run through click
CLI_SPAN = "cli.command"
ROOT_SPAN = "bench.op"

# metrics that must repeat exactly between two runs of the same work
EXACT_COUNTS = ("quadrature.integrate_calls", "quadrature.panels",
                "quadrature.nodes", "quadrature.panels_per_integrate_max",
                "curve.point_params", *CALL_COUNTS.values())


class Tracer:
    def __init__(self):
        self.inclusive = {}   # span -> seconds (outermost activations)
        self.self_time = {}   # span -> seconds
        self.calls = {}       # span -> activations
        self.counts = dict.fromkeys(EXACT_COUNTS, 0)
        self.accuracy = {"decomp.residual_max": 0.0,
                         "inequalities.identity_resid_max": 0.0,
                         "inequalities.gap_margin_min": None}
        self._stack = []      # [name, start, child_seconds]
        self._active = {}     # span -> nesting depth
        self._panels = []     # panel counters of the open integrate calls

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        self._stack.append([name, time.perf_counter(), 0.0])
        self._active[name] = self._active.get(name, 0) + 1
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _, start, child = self._stack.pop()
            elapsed = end - start
            self._active[name] -= 1
            if not self._active[name]:
                self.inclusive[name] = self.inclusive.get(name, 0.0) + elapsed
            self.self_time[name] = (self.self_time.get(name, 0.0)
                                    + elapsed - child)
            self.calls[name] = self.calls.get(name, 0) + 1
            if self._stack:
                self._stack[-1][2] += elapsed

    def _wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, out)
            return out
        return wrapper

    # -- counters ------------------------------------------------------------

    def _wrap_integrate(self, fn):
        @functools.wraps(fn)
        def integrate(*args, **kwargs):
            self.counts["quadrature.integrate_calls"] += 1
            self._panels.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                n = self._panels.pop()
                key = "quadrature.panels_per_integrate_max"
                self.counts[key] = max(self.counts[key], n)
        return integrate

    def _wrap_panel(self, fn):
        @functools.wraps(fn)
        def panel(f, a, b, n):
            self.counts["quadrature.panels"] += 1
            self.counts["quadrature.nodes"] += int(n)
            if self._panels:
                self._panels[-1] += 1
            return fn(f, a, b, n)
        return panel

    def _observe_point(self, args, out):
        self.counts["curve.point_params"] += int(np.size(args[1]))

    # -- accuracy ------------------------------------------------------------

    def _observe_decompose(self, args, dec):
        acc = self.accuracy
        acc["decomp.residual_max"] = max(acc["decomp.residual_max"],
                                         abs(dec.residual))

    def _observe_ledger(self, args, led):
        acc = self.accuracy
        acc["inequalities.identity_resid_max"] = max(
            acc["inequalities.identity_resid_max"],
            abs(led.identity_residual) / abs(led.lhs))
        for gap in (led.gap_sym, led.gap_cw, led.gap_busemann):
            self._margin(gap / led.scale)

    def _observe_lhuilier(self, args, rep):
        self._margin(rep.gap / rep.scale)

    def _margin(self, value):
        old = self.accuracy["inequalities.gap_margin_min"]
        self.accuracy["inequalities.gap_margin_min"] = (
            value if old is None else min(old, value))

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced attribute; call after normplane is imported."""
        observers = {
            "curve.point": self._observe_point,
            "decomp.decompose": self._observe_decompose,
            "inequalities.iso_ledger": self._observe_ledger,
            "inequalities.lhuilier_check": self._observe_lhuilier,
        }
        import normplane.quadrature as quad
        _replace(quad.integrate, self._wrap_integrate(quad.integrate))
        _replace(quad.panel, self._wrap_panel(quad.panel))
        for name, targets in SPANS.items():
            for module, attr in targets:
                owner, leaf = _resolve(module, attr)
                original = owner.__dict__[leaf]
                if isinstance(original, property):
                    wrapped = property(self._wrap(name, original.fget,
                                                  observers.get(name)))
                    setattr(owner, leaf, wrapped)
                elif isinstance(owner, type):
                    setattr(owner, leaf,
                            self._wrap(name, original, observers.get(name)))
                else:
                    _replace(original, self._wrap(name, original,
                                                  observers.get(name)))

    # -- report --------------------------------------------------------------

    def metrics(self, ops):
        """Per-layer metrics as name -> (value, unit).

        Counts are totals over the traced work; span times are ms per
        operation.
        """
        out = {}
        for name in (*SPANS, CLI_SPAN, ROOT_SPAN):
            out[f"{name}.ms"] = (
                1e3 * self.inclusive.get(name, 0.0) / ops, "ms")
            out[f"{name}.self_ms"] = (
                1e3 * self.self_time.get(name, 0.0) / ops, "ms")
        counts = dict(self.counts)
        for span, key in CALL_COUNTS.items():
            counts[key] = self.calls.get(span, 0)
        for key, value in counts.items():
            out[key] = (value, "count")
        acc = self.accuracy
        out["decomp.residual_max"] = (acc["decomp.residual_max"], "length")
        out["inequalities.identity_resid_max"] = (
            acc["inequalities.identity_resid_max"], "rel")
        margin = acc["inequalities.gap_margin_min"]
        out["inequalities.gap_margin_min"] = (
            0.0 if margin is None else margin, "rel")
        return out

    def absent(self):
        """Traced layers this run never reached, reported as 0."""
        missing = [n for n in (*SPANS, CLI_SPAN) if n not in self.calls]
        if self.accuracy["inequalities.gap_margin_min"] is None:
            missing.append("inequalities.gap_margin_min")
        return missing


def _resolve(module, attr):
    owner = importlib.import_module(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _replace(original, wrapper):
    """Rebind every normplane module attribute that is `original`."""
    for name, module in list(sys.modules.items()):
        if name != "normplane" and not name.startswith("normplane."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
