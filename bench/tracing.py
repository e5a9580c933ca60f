"""In-memory spans and counters around each layer's public entry point.

The tracer wraps functions of the package from the outside: no file
under ``src/`` changes.  A name bound with ``from module import name``
lives on in the importing module, so each wrapper replaces the original
object wherever a package module holds it, and is undone afterwards.

A span is (name, start, end, parent); the layer of a span is the part of
its name before the first dot.  A layer's self time is the sum over its
spans of the span's duration minus the durations of its direct children,
so the self times of all layers add up to the root span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter


def _audit_draws(bound, out):
    return out.audited_states * bound.arguments["audit_samples"]


# (module, attribute, span name, counters); a counter maps the call's
# bound arguments and its return value to the amount it adds.
HOOKS = (
    ("ofdma_underlay.harness", "sweep", "harness.sweep", {}),
    ("ofdma_underlay.harness", "run_experiment", "harness.run_experiment",
     {"harness.audit_draws": _audit_draws}),
    ("ofdma_underlay.channel", "sample_realizations", "channel.sample_realizations",
     {"channel.states": lambda bound, out: len(out)}),
    ("ofdma_underlay.optimizer", "solve_dual", "optimizer.solve_dual",
     {"optimizer.states": lambda bound, out: len(out.policies),
      "optimizer.iterations": lambda bound, out: out.dual.iterations}),
    ("ofdma_underlay.sinr", "SinrDistribution.pdf", "sinr.pdf",
     {"sinr.pdf_calls": lambda bound, out: 1}),
    ("ofdma_underlay.interference", "surrogate_budget", "interference.surrogate_budget",
     {"interference.budget_calls": lambda bound, out: 1}),
    ("ofdma_underlay.interference", "audit_probabilistic",
     "interference.audit_probabilistic", {}),
    ("ofdma_underlay.modulation", "discretize_rate", "modulation.discretize_rate", {}),
)


class Tracer:
    """Records spans and counts while installed; nothing when not."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, counters):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, count in counters.items():
                    self.counts[key] += count(bound, out)
            return out
        return wrapper

    def install(self):
        """Replace every binding of each hooked function by its wrapper."""
        for module_name, attr, name, counters in HOOKS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(original, name, counters)
            self._rebind(owner, leaf, original, wrapper)
            if path:
                continue   # a method is looked up on its class only
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("ofdma_underlay")
                        and module is not owner):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, original, wrapper)

    def _rebind(self, holder, key, original, wrapper):
        setattr(holder, key, wrapper)
        self._undo.append((holder, key, original))

    def uninstall(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def layers_entered(self) -> set:
        return {name.split(".")[0] for name, *_ in self.spans}

    def self_by_name(self) -> Counter:
        """Self time per span name: each span minus its direct children."""
        self_time = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        out = Counter()
        for (name, *_), value in zip(self.spans, self_time):
            out[name] += value
        return out

    def total(self, name: str = None) -> float:
        """Summed duration of the spans called ``name``, or of the root spans."""
        return sum(end - start for span_name, start, end, parent in self.spans
                   if span_name == name or (name is None and parent < 0))
