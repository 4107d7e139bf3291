"""In-process span tracer for the benchmark's traced run.

Every public function defined in a ``timnoma`` module is replaced, in every
``timnoma`` module namespace that holds it, by a wrapper that records one
span per call. The package itself is not edited: the harness calls its
layers through names in its own namespace (``timnoma.harness.add_noise``)
and ``sic_decode`` looks up ``timnoma.receiver.ml_detect`` at call time, so
rebinding those names is enough. A span belongs to the layer named by its
function's ``__module__``; its self time is its duration minus the time of
the spans it caused. Spans are folded into per-function totals as they
close, so memory stays flat however long the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "timnoma"

# counts taken at the layer boundary, from the shapes the call produced
_COUNTERS = {
    # real + imaginary standard normals behind each complex entry
    ("channel", "draw_fading"): ("normals", lambda result: 2 * result.size),
    ("channel", "add_noise"): ("normals", lambda result: 2 * result.size),
    ("receiver", "ml_detect"): ("symbols_detected", lambda result: getattr(result, "size", 1)),
}


class Tracer:
    """Context manager that wraps the package's public functions with spans."""

    def __init__(self) -> None:
        self.calls: dict = defaultdict(int)
        self.self_ns: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self._open: list = []  # child time of each open span
        self._restore: list = []

    def _wrap(self, fn):
        key = (fn.__module__.rsplit(".", 1)[-1], fn.__name__)
        counter = _COUNTERS.get(key)
        open_spans = self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0]
            open_spans.append(children)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                self.calls[key] += 1
                self.self_ns[key] += elapsed - children[0]
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return span

    def __enter__(self) -> "Tracer":
        prefix = PACKAGE + "."
        wrappers: dict = {}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if not (
                    inspect.isfunction(value)
                    and not value.__name__.startswith("_")
                    and value.__module__.startswith(prefix)
                ):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def layer_self_us(self, layer: str, names=None, exclude=()) -> float:
        """Self time in µs of one layer, or of the named functions in it."""
        total = sum(
            ns
            for (span_layer, fn), ns in self.self_ns.items()
            if span_layer == layer and (names is None or fn in names) and fn not in exclude
        )
        return total / 1e3

    def layer_calls(self, layer: str) -> int:
        return sum(n for (span_layer, _fn), n in self.calls.items() if span_layer == layer)

    def table(self) -> list[str]:
        """One line per traced function: layer, name, calls, self time."""
        return [
            f"{layer}.{fn}: calls={self.calls[(layer, fn)]} self_ms={ns / 1e6:.3f}"
            for (layer, fn), ns in sorted(self.self_ns.items())
        ]
