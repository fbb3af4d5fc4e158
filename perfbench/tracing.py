"""Spans around the benchmark's calls into the library, and the per-layer
metrics derived from them.

A span records its name, start, end, parent span, op id, input size and
whether the call raised.  Spans stay in memory; the worker writes them out
when the run ends.  With tracing off, ``Tracer.call`` is a plain call.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "size", "error")

    def __init__(self, sid, name, start, parent, op, size):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.size = size
        self.error = False

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "size": self.size,
            "error": self.error,
        }


class Tracer:
    """Records spans when ``enabled``; otherwise adds one branch per call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._op: Optional[int] = None

    def open(self, name: str, op: Optional[int] = None, **size) -> Optional[Span]:
        if not self.enabled:
            return None
        if op is not None:
            self._op = op
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, _clock(), parent, self._op, size)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Optional[Span], error: bool = False) -> None:
        if span is None:
            return
        span.end = _clock()
        span.error = error
        self._stack.pop()

    def call(self, name: str, size: dict, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self.open(name, **size)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(span, error=True)
            raise
        self.close(span)
        return result

    def annotate(self, **size) -> None:
        """Add size fields known only after the call to the last span."""
        if self.enabled and self.spans:
            self.spans[-1].size.update(size)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def size_exponent(points) -> float:
    """Least-squares slope of log(duration) against log(size); 0 when fewer
    than two distinct sizes were seen."""
    pts = [(math.log(n), math.log(d)) for n, d in points if n > 0 and d > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


# Each metric function takes the spans grouped by name and the self time
# of every span id.

def _layer(prefix: str, span_name: str, sizes=()) -> dict:
    """calls, self_s and summed size fields for one span name."""
    def calls(g, selfs):
        return float(len(g[span_name]))

    def self_s(g, selfs):
        return float(sum(selfs[s.sid] for s in g[span_name]))

    out = {f"{prefix}.calls": ("count", calls), f"{prefix}.self_s": ("s", self_s)}
    for metric, key, unit in sizes:
        out[f"{prefix}.{metric}"] = (
            unit,
            lambda g, selfs, key=key: float(sum(s.size.get(key, 0) for s in g[span_name])),
        )
    return out


def _failed(span_name):
    return lambda g, selfs: float(sum(1 for s in g[span_name] if s.error))


def _eval_exponent(g, selfs):
    return size_exponent(
        (s.size["summands"], s.end - s.start)
        for s in g["catalog.eval"]
        if "summands" in s.size and not s.error
    )


def _wo_exponent(g, selfs):
    return size_exponent(
        (s.size["bound"], s.end - s.start)
        for s in g["waxioms.wo"]
        if s.size.get("fault") == "none" and not s.error
    )


def _median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _cli_startup(g, selfs):
    """Per op: child wall time minus the in-process main time for the same
    arguments; the median over the run."""
    mains = {s.op: s.end - s.start for s in g["cli.main"]}
    return _median_or_zero(
        (s.end - s.start) - mains[s.op] for s in g["cli.child"] if s.op in mains
    )


LAYER_METRICS: Dict[str, tuple] = {}
LAYER_METRICS.update(_layer("algebra.parse", "algebra.parse", [("chars", "chars", "chars")]))
LAYER_METRICS.update(
    _layer("algebra.normalize", "algebra.normalize", [("chars", "chars", "chars")])
)
LAYER_METRICS.update(
    _layer("catalog.eval", "catalog.eval", [("trace_steps", "steps", "steps")])
)
LAYER_METRICS["catalog.eval.failed"] = ("count", _failed("catalog.eval"))
LAYER_METRICS["catalog.eval.size_exponent"] = ("1", _eval_exponent)
LAYER_METRICS.update(_layer("catalog.classify", "catalog.classify"))
LAYER_METRICS.update(_layer("catalog.scale_note", "catalog.scale_note"))
LAYER_METRICS.update(
    _layer("orderzero.search", "orderzero.search", [("candidates", "samples", "count")])
)
for _name in ("leq", "witness", "certificate", "eps_cut", "check"):
    LAYER_METRICS.update(_layer(f"orderzero.{_name}", f"orderzero.{_name}"))
for _name in ("mf_leq", "mf_add", "recover"):
    LAYER_METRICS.update(
        _layer(f"multiplicity.{_name}", f"multiplicity.{_name}", [("tokens", "tokens", "tokens")])
    )
for _name in ("wo", "wm"):
    LAYER_METRICS.update(
        _layer(f"waxioms.{_name}", f"waxioms.{_name}", [("elements", "elements", "elements")])
    )
LAYER_METRICS["waxioms.wo.size_exponent"] = ("1", _wo_exponent)
LAYER_METRICS.update(_layer("cli.main", "cli.main"))
LAYER_METRICS["cli.startup_s"] = ("s", _cli_startup)


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Every per-layer metric computed from the traced run's spans; layers
    the workload does not touch read 0."""
    groups: Dict[str, list] = defaultdict(list)
    for s in spans:
        groups[s.name].append(s)
    selfs = self_times(spans)
    return {name: fn(groups, selfs) for name, (_unit, fn) in LAYER_METRICS.items()}
