"""In-memory spans around bbstl's public functions, for the traced run.

A span is ``[name, start, end, parent, op]``: ``start`` and ``end`` come
from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans recorded in
a CLI subprocess line up with the client's), ``parent`` is the index of the
enclosing span or -1, and ``op`` numbers the operation within the cycle.

``Tracer.install`` rebinds each traced function where its callers look it
up -- for example ``bbstl.volterra.sliding_extremum`` for the calls that
``fit_poly_delay`` makes and ``bbstl.monitor.sliding_extremum`` for the
monitor's own -- and ``uninstall`` restores the originals.  Wrappers record
only while ``active`` is set, so output checks run between operations add
no spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _terms(g) -> int:
    return sum(g.term_counts().values())


def _points(order: int, omegas) -> int:
    if np.isscalar(omegas) or (isinstance(omegas, np.ndarray) and order == 1):
        return int(np.size(omegas))
    return int(np.broadcast(*[np.asarray(w) for w in omegas]).size)


def _grid_points(a, out):
    n = a["g"].term_counts().get(a["order"], 0)
    points = a["num_points"] ** a["order"]
    return {"analysis.gfrf_grid.term_points": n * points}


def _scan_points(a, out):
    counts = a["g"].term_counts()
    return {"analysis.cutoff_scan.term_points": sum(
        counts.get(n, 0) * a["num_points"] ** n
        for n in range(1, a["max_order"] + 1))}


def _convolutions(a, out):
    # computed from the term counts: one grid convolution per extra slot
    return {"analysis.output_spectrum.convolutions": sum(
        c * (n - 1) for n, c in a["g"].term_counts().items()
        if n <= a["max_order"])}


def _evaluate_points(a, out):
    n = a["self"].term_counts().get(a["order"], 0)
    return {"volterra.Gfrf.evaluate.term_points":
            n * _points(a["order"], a["omegas"])}


def _merge_counts(a, out):
    return {"compose.merge_terms.terms_in": _terms(a["g"]),
            "compose.merge_terms.terms_out": _terms(out)}


def _built_terms(a, out):
    return {f"compose.terms.order{n}": c
            for n, c in out.report.term_counts.items()}


# (module, attribute, span name, counter); one span name may be bound at
# several lookup sites.  A counter maps the bound arguments and the result
# to increments of named per-layer counts.
TARGETS = [
    ("bbstl.monitor", "sliding_extremum", "monitor.sliding_extremum",
     lambda a, out: {"monitor.sliding_extremum.samples": len(a["u"])}),
    ("bbstl.volterra", "sliding_extremum", "monitor.sliding_extremum",
     lambda a, out: {"monitor.sliding_extremum.samples": len(a["u"])}),
    ("bbstl.monitor", "since_robustness", "monitor.since_robustness",
     lambda a, out: {"monitor.since_robustness.samples": len(a["rho1"])}),
    ("bbstl.monitor", "robustness", "monitor.robustness", None),
    ("bbstl.analysis", "robustness", "monitor.robustness", None),
    ("bbstl.monitor", "correlate", "signals.correlate", None),
    ("bbstl.volterra", "correlate", "signals.correlate", None),
    ("bbstl.analysis", "lowpass", "signals.lowpass", None),
    ("bbstl.compose", "fit_poly_delay", "volterra.fit_poly_delay",
     lambda a, out: {"volterra.fit_poly_delay.rows": out.diagnostics.rows}),
    ("bbstl.volterra", "polynomial_features", "volterra.polynomial_features",
     None),
    ("bbstl.compose", "fit_separable_minmax", "volterra.fit_separable_minmax",
     None),
    ("bbstl.compose", "build_formula_operator",
     "compose.build_formula_operator", _built_terms),
    ("bbstl.compose", "compose_gfrf", "compose.compose_gfrf", None),
    ("bbstl.compose", "merge_terms", "compose.merge_terms", _merge_counts),
    ("bbstl.volterra", "Gfrf.evaluate", "volterra.Gfrf.evaluate",
     _evaluate_points),
    ("bbstl.analysis", "gfrf_grid", "analysis.gfrf_grid", _grid_points),
    ("bbstl.analysis", "cutoff_scan", "analysis.cutoff_scan", _scan_points),
    ("bbstl.analysis", "output_spectrum", "analysis.output_spectrum",
     _convolutions),
    ("bbstl.analysis", "compression_safety_report",
     "analysis.compression_safety_report", None),
]

# Cache lookups: a lookup that runs no fit is a hit.
CACHE_LOOKUPS = [("bbstl.compose", "cached_poly_fit"),
                 ("bbstl.compose", "cached_separable_fit")]
FIT_SPANS = ("volterra.fit_poly_delay", "volterra.fit_separable_minmax")


def _owner(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span and counter recorder for one traced cycle."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count):
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            self.counters[name + ".calls"] += 1
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in count(bound.arguments, out).items():
                    self.counters[key] += value
            return out
        return traced

    def _cache_lookup(self, fn):
        @functools.wraps(fn)
        def looked_up(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            before = self._fits()
            out = fn(*args, **kwargs)
            kind = "hits" if self._fits() == before else "misses"
            self.counters["compose.fit_cache." + kind] += 1
            return out
        return looked_up

    def _fits(self) -> int:
        return sum(self.counters[name + ".calls"] for name in FIT_SPANS)

    def _rebind(self, module, attr, make):
        owner, name = _owner(module, attr)
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> None:
        for module, attr, name, count in TARGETS:
            self._rebind(module, attr,
                         lambda fn, n=name, c=count: self._wrap(n, fn, c))
        for module, attr in CACHE_LOOKUPS:
            self._rebind(module, attr, self._cache_lookup)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: total duration minus the time child spans cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), inner in zip(spans, child_time):
        out[name] += (end - start) - inner
    return out
