"""Layer spans for cgolab, installed from outside the package.

Each traced function is wrapped once, and the wrapper is bound in every
``cgolab`` module namespace that holds the original, because the modules
import each other's names with ``from .grid import ...``.  ``numpy.fft``'s
``fftn`` and ``ifftn`` are wrapped in place, which catches every transform the
package makes.  A traced name that no longer exists is skipped, so its metrics
read zero and the run goes on.

A span records its layer, its parent span and its start and end.  A layer's
self time is its spans' time minus the time of their child spans.  A call into
a layer that is already open on the stack is not a new span, so a layer's time
is never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

# layer span -> the (module, attribute) pairs whose calls it times
TRACED = {
    "grid.fft": (("numpy.fft", "fftn"), ("numpy.fft", "ifftn")),
    "symbol.lattice": (("cgolab.symbol", "symbol_lattice"),),
    "spaces.norm": (("cgolab.spaces", "xdot_norm"), ("cgolab.spaces", "x_norm")),
    "spaces.inverse": (("cgolab.spaces", "inverse_delta_zeta"),),
    "potential.q": (("cgolab.potential", "potential_q"),),
    # every evaluation of the m_q pairing, wherever it is implemented
    "potential.mq": (
        ("cgolab.potential", "mq_bilinear"),
        ("cgolab.potential", "mq_bilinear_split"),
        ("cgolab.recovery", "_mq_product_form"),
    ),
    "recovery.terms": (("cgolab.recovery", "alessandrini_terms"),),
    "cgo.select": (("cgolab.cgo", "select_zeta_sequence"),),
    "cgo.solve": (("cgolab.cgo", "solve_psi"),),
    "estimates.schur": (("cgolab.estimates", "schur_bound"),),
    "estimates.localization": (("cgolab.estimates", "localization_ratios"),),
    "estimates.mq_ratio": (("cgolab.estimates", "mq_operator_ratio"),),
    "estimates.avg_decay": (("cgolab.estimates", "averaged_decay"),),
    "estimates.singbound": (("cgolab.estimates", "singbound_quadrature"),),
}

# counts taken at the span boundaries, besides calls, with their units
COUNTS = {
    "grid.fft_mpoints": "Mpoint",  # grid points transformed, computed from shapes
    "grid.fft_repeat": "count",  # forward transforms of an input already transformed
    "cgo.zeta_samples": "count",
    "cgo.iterations": "count",
}


def metric_units() -> dict:
    """Every metric that summarize() returns, with its unit."""
    units = {}
    for layer in TRACED:
        units.update({f"{layer}_calls": "count", f"{layer}_s": "s", f"{layer}_self_s": "s"})
    return {**units, **COUNTS}


@dataclass
class Span:
    name: str
    parent: int  # index of the parent span, -1 at the top
    start: float
    end: float = 0.0
    overhead: float = 0.0  # the tracer's own time inside the span

    @property
    def duration(self) -> float:
        return self.end - self.start - self.overhead


def summarize(spans: list[Span], counts: dict) -> dict:
    """Calls, total and self seconds per layer, plus the boundary counts."""
    calls, total, self_s = Counter(), Counter(), Counter()
    for span in spans:
        calls[span.name] += 1
        total[span.name] += span.duration
        self_s[span.name] += span.duration
        if span.parent >= 0:
            self_s[spans[span.parent].name] -= span.duration
    out = {}
    for layer in TRACED:
        out[f"{layer}_calls"] = calls[layer]
        out[f"{layer}_s"] = total[layer]
        out[f"{layer}_self_s"] = self_s[layer]
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    return out


class Tracer:
    """Records spans while installed; reset() starts a new pass."""

    def __init__(self):
        self._installed = []  # (namespace, attribute, original)
        self.reset()

    def reset(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._transformed: set = set()

    def summary(self) -> dict:
        return summarize(self.spans, self.counts)

    # -- boundary counts ------------------------------------------------------

    def _count_forward(self, args):
        started = time.perf_counter()
        data = args[0]
        self.counts["grid.fft_mpoints"] += data.size / 1e6
        key = (data.shape, data.dtype.str, zlib.crc32(np.ascontiguousarray(data)))
        if key in self._transformed:
            self.counts["grid.fft_repeat"] += 1
        self._transformed.add(key)
        spent = time.perf_counter() - started
        for index in self._open:
            self.spans[index].overhead += spent

    def _count_inverse(self, args):
        self.counts["grid.fft_mpoints"] += args[0].size / 1e6

    def _count_selection(self, result):
        self.counts["cgo.zeta_samples"] += sum(len(band.samples) for band in result)

    def _count_solve(self, result):
        self.counts["cgo.iterations"] += result[1].iterations

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, layer, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if any(self.spans[i].name == layer for i in self._open):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            parent = self._open[-1] if self._open else -1
            span = Span(layer, parent, time.perf_counter())
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def install(self):
        """Bind the wrappers; a traced name that does not exist is skipped."""
        hooks = {
            ("numpy.fft", "fftn"): (self._count_forward, None),
            ("numpy.fft", "ifftn"): (self._count_inverse, None),
            ("cgolab.cgo", "select_zeta_sequence"): (None, self._count_selection),
            ("cgolab.cgo", "solve_psi"): (None, self._count_solve),
        }
        for layer, targets in TRACED.items():
            for module_name, attribute in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attribute, None)
                if original is None:
                    continue
                before, after = hooks.get((module_name, attribute), (None, None))
                wrapper = self._wrap(layer, original, before, after)
                for namespace in _namespaces(module):
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapper)
                            self._installed.append((namespace, key, original))

    def uninstall(self):
        while self._installed:
            namespace, key, original = self._installed.pop()
            setattr(namespace, key, original)


def _namespaces(module):
    """The defining module and every cgolab module that may bind its names."""
    found = [module]
    for name, other in list(sys.modules.items()):
        if other is not module and (name == "cgolab" or name.startswith("cgolab.")):
            found.append(other)
    return found
