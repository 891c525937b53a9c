"""Span recorder that times g2tori's public functions from outside the package.

``install`` replaces each listed function, at every module attribute that
refers to it (``g2tori.engine.lambda_witness_search`` as well as
``g2tori.hermitian.lambda_witness_search``), with a wrapper that records a
span.  Spans nest: a span's self time is its duration minus the durations
of the spans it caused.  Spans are folded into per-name totals in memory
(calls, busy seconds, self seconds) and written out once, when the run
ends, so memory stays flat however many calls a run makes.
"""

from __future__ import annotations

import functools
import sys
import time

# layer (module) -> public functions timed as spans
SPANS = {
    "arith": ("squarefree_class", "hilbert_symbol", "relevant_places"),
    "quadforms": ("invariants", "is_isometric", "represents_subform", "gram_diagonal"),
    "etale": ("trace_transfer_form",),
    "composition": ("is_split", "embeds_quadratic", "common_slot", "embeds_quaternion"),
    "hermitian": ("lambda_witness_search", "check_condition_ii"),
    "weyl": ("lattice_catalog", "h1", "smith_normal_form", "kernel_basis"),
    "engine": ("decide_over_Q",),
}


class Recorder:
    """Per-name span totals plus the outcome counters the wrappers see."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counts: dict[str, int] = {}
        self.rule_busy: dict[str, float] = {}
        self._open: list[float] = []  # child time of each open span

    def span(self, name, fn, on_return=None):
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - children
                if stack:
                    stack[-1] += duration
            if on_return is not None:
                on_return(result, duration)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def zero(self):
        """Forget what was recorded so far; the installed wrappers stay."""
        for totals in self.spans.values():
            totals[:] = [0, 0.0, 0.0]
        for name in self.counts:
            self.counts[name] = 0
        self.rule_busy.clear()

    def bump(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    def merge(self, other: dict):
        """Add totals exported by ``export`` (from another process)."""
        for name, (calls, busy, own) in other["spans"].items():
            totals = self.spans.setdefault(name, [0, 0.0, 0.0])
            totals[0] += calls
            totals[1] += busy
            totals[2] += own
        for name, n in other["counts"].items():
            self.bump(name, n)
        for rule, busy in other["rule_busy"].items():
            self.rule_busy[rule] = self.rule_busy.get(rule, 0.0) + busy

    def export(self) -> dict:
        """A copy of the totals, as plain data."""
        return {
            "spans": {name: list(totals) for name, totals in self.spans.items()},
            "counts": dict(self.counts),
            "rule_busy": dict(self.rule_busy),
        }


def cache_counters() -> dict:
    """Hits, misses and size of the two unbounded caches, read from outside."""
    from g2tori import arith, quadforms

    out = {}
    for name, fn in (("arith.hilbert_cache", arith._hilbert), ("quadforms.invariants_cache", quadforms._invariants)):
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return out


def _rule_key(verdict) -> str:
    return f"R3-{verdict.decision}" if verdict.rule == "R3" else verdict.rule


def install(recorder: Recorder):
    """Wrap every function in SPANS wherever a g2tori module refers to it."""
    import g2tori  # noqa: F401  (loads every submodule)

    modules = [m for n, m in sys.modules.items() if n == "g2tori" or n.startswith("g2tori.")]

    def on_decision(verdict, duration):
        key = _rule_key(verdict)
        recorder.rule_busy[key] = recorder.rule_busy.get(key, 0.0) + duration

    def on_lambda(found, _duration):
        recorder.bump("hermitian.lambda_found" if found is not None else "hermitian.lambda_exhausted")

    hooks = {"engine.decide_over_Q": on_decision, "hermitian.lambda_witness_search": on_lambda}
    for layer, names in SPANS.items():
        home = sys.modules[f"g2tori.{layer}"]
        for name in names:
            original = getattr(home, name)
            full = f"{layer}.{name}"
            wrapped = recorder.span(full, original, hooks.get(full))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    # the engine's own Pfister isometry tests, counted on top of quadforms'
    engine = sys.modules["g2tori.engine"]
    engine.is_isometric = recorder.counter("engine.is_isometric", engine.is_isometric)
