"""Span tracing of spikegrad's layer functions, installed from outside the package.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.install` replaces
each traced function in every ``spikegrad`` module namespace that holds it
(``from .x import f`` copies the binding, so ``bptt.eval_objective`` and
``objectives.eval_objective`` are both replaced), and :meth:`Tracer.uninstall`
puts the originals back.  Functions that look a name up at call time, such
as ``backward`` importing ``surrogate_grad`` inside its body, see the
replacement through the module attribute.

Timed functions record one span each (name, start, end, parent span).
Scalar helpers called once per element only count calls: a span around
each of them would cost more than the helper and inflate its parent's
self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass

PACKAGE = "spikegrad"

# (module, qualified name) of every function that records a span
TIMED = (
    ("config", "load_run_config"),
    ("tasks", "gen_rate_task"),
    ("tasks", "gen_latency_task"),
    ("bptt", "SnnLayer.init"),
    ("bptt", "train_bptt"),
    ("bptt", "forward"),
    ("bptt", "backward"),
    ("bptt", "optimizer_step"),
    ("objectives", "eval_objective"),
    ("objectives", "regularize"),
    ("objectives", "predict_class"),
    ("online", "train_online"),
    ("online", "influence_step"),
    ("online", "online_grad"),
    ("spikeprop", "train_spikeprop"),
    ("spikeprop", "spikeprop_grad"),
    ("spikeprop", "find_spike_time"),
    ("spikeprop", "spike_time_weight_grad"),
    ("plasticity", "stdp_update"),
)

# per-element helpers: call counts only
COUNTED = (
    ("surrogate", "surrogate_grad"),
    ("neuron", "lif_step"),
    ("spikeprop", "alpha_kernel"),
    ("plasticity", "stdp_delta_w"),
)


def layer_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap and
    the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    totals: dict[str, float] = {}
    for idx, span in enumerate(spans):
        totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start) - covered[idx]
    return totals


class Tracer:
    """In-memory spans and call counts for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _timed(self, name: str, fn):
        spans, stack, calls, errors = self.spans, self._stack, self.calls, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] = errors.get(name, 0) + 1
                raise
            finally:
                span.end = clock()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span for one of the benchmark's own phases."""
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module, qualname in TIMED:
            self._replace(module, qualname, self._timed)
        for module, qualname in COUNTED:
            self._replace(module, qualname, self._counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, module: str, qualname: str, make) -> None:
        name = layer_name(module, qualname)
        self.calls.setdefault(name, 0)
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        if "." in qualname:  # a classmethod, e.g. SnnLayer.init
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, classmethod(make(name, raw.__func__)))
            return
        original = getattr(mod, qualname)
        wrapper = make(name, original)
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, attr, original))
                    setattr(other, attr, wrapper)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, keyed ``<module>.<function>.<stat>``."""
        own = self_times(self.spans)
        out: dict[str, float] = {}
        for module, qualname in TIMED:
            name = layer_name(module, qualname)
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = own.get(name, 0.0)
        for module, qualname in COUNTED:
            name = layer_name(module, qualname)
            out[f"{name}.calls"] = self.calls.get(name, 0)
        attempts = self.calls.get("spikeprop.spikeprop_grad", 0)
        failures = self.errors.get("spikeprop.spikeprop_grad", 0)
        # 0 when nothing was attempted (workloads that never run SpikeProp)
        out["spikeprop.grad_success_ratio"] = (attempts - failures) / attempts if attempts else 0.0
        return out

    def spans_as_rows(self) -> list[list]:
        origin = self.spans[0].start if self.spans else 0.0
        return [[s.name, s.start - origin, s.end - origin, s.parent] for s in self.spans]
