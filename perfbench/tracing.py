"""Spans and profile shares for the traced run.

Everything here observes the program from outside: spans wrap the
benchmark's own calls into the public API, and the profile is a plain
``cProfile`` pass over one round.  No source file of the program is
patched.
"""

import contextlib
import cProfile
import json
import os
import pstats
import time
from typing import Callable, Dict, List, Optional

#: The program's layers, named after the ``repro.<subpackage>`` they live in.
LAYERS = ("kernel", "interconnect", "ocp", "core", "memory", "cpu", "trace",
          "platform", "harness", "artifacts")
#: Self time outside those layers: the interpreter, the standard library,
#: the other subpackages (``apps``, ``faults``, ``stats``) and this benchmark.
OTHER = "other"


class Span:
    __slots__ = ("span_id", "parent", "name", "metric", "layer", "attrs",
                 "start", "end")

    def __init__(self, span_id: int, parent: Optional[int], name: str,
                 metric: Optional[str], layer: str, attrs: dict,
                 start: float):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.metric = metric
        self.layer = layer
        self.attrs = attrs
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps spans in memory; :meth:`write` puts them on disk at the end.

    A span has a name (the public call it wraps), the layer that call
    belongs to, an optional per-layer ``metric`` key it feeds, its start
    and end (seconds since the recorder was made), and its parent span.
    All spans of one benchmark run share :attr:`run_id`.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, layer: str, metric: Optional[str] = None,
             **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, metric, layer, attrs,
                    time.perf_counter() - self._origin)
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter() - self._origin
            self._stack.pop()

    def durations(self, metric: str) -> List[float]:
        return [span.duration for span in self.spans if span.metric == metric]

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the time its children cover."""
        own = {span.span_id: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def write(self, path: str) -> None:
        own = self.self_times()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "run_id": self.run_id, "span_id": span.span_id,
                    "parent": span.parent, "name": span.name,
                    "layer": span.layer, "metric": span.metric,
                    "start": round(span.start, 6), "end": round(span.end, 6),
                    "self_s": round(own[span.span_id], 6), **span.attrs,
                }, sort_keys=True) + "\n")


class NullRecorder:
    """The untraced run: spans cost one attribute lookup and record nothing."""

    def span(self, name, layer, metric=None, **attrs):
        return contextlib.nullcontext()


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    parts = filename.replace("\\", "/").split("/")
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        if index + 2 < len(parts) and parts[index + 1] in LAYERS:
            return parts[index + 1]
    return OTHER


def profile_shares(work: Callable[[], None]) -> Dict[str, float]:
    """Run ``work`` under cProfile; per-layer shares of self time in %.

    Self time of a function outside the program (a builtin such as
    ``heapq.heappush``, or a standard-library helper) is charged to the
    layers of its callers, split as cProfile splits it per caller, so
    the kernel's heap operations count as kernel time.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        work()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    totals = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) \
            in stats.items():
        layer = layer_of(filename)
        if layer != OTHER or not callers:
            totals[layer] += tottime
            continue
        for (caller_file, _l, _n), caller_stats in callers.items():
            totals[layer_of(caller_file)] += caller_stats[2]
        # cProfile's per-caller split can drop a little on recursion
        totals[OTHER] += max(0.0, tottime - sum(
            caller_stats[2] for caller_stats in callers.values()))
    whole = sum(totals.values()) or 1.0
    return {layer: 100.0 * value / whole for layer, value in totals.items()}
