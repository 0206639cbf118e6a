"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``.  It measures each layer by replacing
that layer's public functions, for the duration of one traced pass, with
wrappers that record a span (name, start, end, parent span) or, for
functions called hundreds of thousands of times per run, only a count.
Spans stay in memory and are written out when the pass ends.

Layers are named by module (``workload``, ``datacenter``, ``placement``,
``sim``, ``telemetry``, ``core.plane``, ``core.checkpoint``,
``core.parallel``, ``core.cache``).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Percentile ladder, in basis points (5000 = p50 … 9999 = p99.99).
PERCENTILE_LADDER_BP = (5000, 9000, 9900, 9990, 9999)

#: A percentile is reported only if at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


# ----------------------------------------------------------------------
# Statistics over one span name's durations
# ----------------------------------------------------------------------


def tail_percentile_bp(n: int) -> Optional[int]:
    """The highest ladder percentile with ≥10 of ``n`` samples beyond it.

    ``n × (1 − p)`` samples lie beyond the p-th percentile, so p qualifies
    when ``n × (10000 − bp) ≥ 10 × 10000``.  Integer arithmetic keeps the
    boundary exact (20 samples qualify for p50, 100 for p90, 1000 for
    p99).  Returns None when not even p50 qualifies.
    """
    best = None
    for bp in PERCENTILE_LADDER_BP:
        if n * (10000 - bp) >= TAIL_MIN_BEYOND * 10000:
            best = bp
    return best


def percentile(sorted_values: Sequence[float], bp: int) -> float:
    """Nearest-rank percentile of already sorted values (``bp`` in 1/100 %)."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = (len(sorted_values) * bp + 9999) // 10000  # ceil(n × p)
    return sorted_values[max(rank, 1) - 1]


def duration_stats(durations: Sequence[float]) -> Dict[str, float]:
    """Total, count, median and tail of per-call durations, in s and ms.

    ``tail_pct`` names the percentile ``tail_ms`` reports.  With fewer
    than 20 samples no percentile has ten samples beyond it: ``tail_pct``
    is then 0 and ``tail_ms`` repeats the median.
    """
    values = sorted(durations)
    if not values:
        return {"s": 0.0, "calls": 0, "p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0}
    p50 = percentile(values, 5000)
    bp = tail_percentile_bp(len(values))
    tail = p50 if bp is None else percentile(values, bp)
    return {
        "s": sum(values),
        "calls": len(values),
        "p50_ms": p50 * 1e3,
        "tail_ms": tail * 1e3,
        "tail_pct": 0.0 if bp is None else bp / 100.0,
    }


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------

#: One span: ``[id, name, parent_id, start, end]`` (end None while open).
Span = List[Any]


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, []), start, end)
        for sid, _, _, start, end in spans
    }


class SpanRecorder:
    """In-memory span and counter store for one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def span(
        self,
        fn: Callable[..., Any],
        name: str,
        on_exit: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` so every call records a span named ``name``.

        ``on_exit(result)`` runs after a successful call, to count what
        the call produced.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack
            span: Span = [
                len(recorder.spans), name, stack[-1] if stack else None,
                recorder.clock(), None,
            ]
            recorder.spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = recorder.clock()
                stack.pop()
            if on_exit is not None:
                on_exit(result)
            return result

        return wrapper

    def counter(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Wrap ``fn`` so every call only increments ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def durations(self, name: str) -> List[float]:
        return [end - start for _, n, _, start, end in self.spans if n == name]

    def self_seconds(self, name: str) -> float:
        own = self_times(self.spans)
        return sum(own[s[0]] for s in self.spans if s[1] == name)

    def dump(self) -> Dict[str, Any]:
        """JSON-ready record: every span plus per-name totals and self time."""
        own = self_times(self.spans)
        totals: Dict[str, Dict[str, float]] = {}
        for sid, name, _, start, end in self.spans:
            row = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own[sid]
        return {
            "columns": ["id", "name", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "totals": totals,
            "counts": dict(self.counts),
        }


# ----------------------------------------------------------------------
# Where each layer is entered
# ----------------------------------------------------------------------


def _counting_events(rec: SpanRecorder, run: Callable[..., Any]) -> Callable[..., Any]:
    """``Environment.run`` wrapper: a span plus the events the call processed."""

    @functools.wraps(run)
    def wrapper(env: Any, *args: Any, **kwargs: Any) -> Any:
        before = env.events_processed
        try:
            return run(env, *args, **kwargs)
        finally:
            rec.counts["sim.events"] += env.events_processed - before

    return wrapper


#: ``(module, attribute, span name)``: plain functions patched where the
#: caller looks them up (the module that imported the name), and methods
#: patched on their class.
SPAN_TARGETS = (
    ("repro.core.runner", "run_scenario", "core.runner.run_scenario"),
    ("repro.core.runner", "resume_scenario", "core.runner.resume_scenario"),
    ("repro.core.runner", "build_scenario", "core.runner.build_scenario"),
    ("repro.core.runner", "build_fleet", "workload.build_fleet"),
    ("repro.core.runner", "spread_placement", "placement.spread_placement"),
    ("repro.core.runner", "build_report", "telemetry.build_report"),
    ("repro.core.runner", "save_checkpoint", "core.checkpoint.save"),
    ("repro.core.runner", "load_checkpoint", "core.checkpoint.load"),
    ("repro.core.plane.arbiter", "plan_evacuation", "placement.plan_evacuation"),
    ("repro.datacenter.cluster:Cluster", "homogeneous", "datacenter.cluster_build"),
    ("repro.sim.environment:Environment", "run", "sim.run"),
    ("repro.telemetry.sampler:ClusterSampler", "sample_once", "telemetry.sample_once"),
    ("repro.telemetry.stream:StreamingMetricsSink", "emit_window", "telemetry.stream_emit"),
    ("repro.telemetry.trace:TraceBuffer", "to_jsonl", "telemetry.to_jsonl"),
    ("repro.core.plane.arbiter:PowerAwareManager", "evaluate", "core.plane.evaluate"),
    (
        "repro.core.plane.arbiter:PowerAwareManager",
        "react_to_shortfall",
        "core.plane.react_to_shortfall",
    ),
    ("repro.placement.balancer:LoadBalancer", "recommend", "placement.recommend"),
    ("repro.core.parallel:ScenarioSpec", "digest", "core.parallel.digest"),
    ("repro.core.cache:ResultCache", "get", "core.cache.get"),
    ("repro.core.cache:ResultCache", "put", "core.cache.put"),
)

#: Hot scalar paths: counted, never timed.
COUNT_TARGETS = (
    ("repro.datacenter.vm:VM", "demand_cores", "datacenter.vm_demand_calls"),
    ("repro.datacenter.host:Host", "demand_cores", "datacenter.host_demand_calls"),
    ("repro.telemetry.trace:TraceBuffer", "emit", "telemetry.trace_events"),
)


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _trace_classes() -> List[type]:
    """Every demand-trace class that defines its own scalar ``at``."""
    traces = importlib.import_module("repro.workload.traces")
    return [
        cls for cls in vars(traces).values()
        if isinstance(cls, type) and issubclass(cls, traces.Trace) and "at" in vars(cls)
    ]


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch every layer entry point for the enclosed block, then restore."""
    saved: List[Tuple[Any, str, Any]] = []

    def patch(obj: Any, attr: str, wrap: Callable[[Callable[..., Any]], Any]) -> None:
        raw = vars(obj)[attr] if isinstance(obj, type) else getattr(obj, attr)
        saved.append((obj, attr, raw))
        if isinstance(raw, classmethod):
            setattr(obj, attr, classmethod(wrap(raw.__func__)))
        else:
            setattr(obj, attr, wrap(raw))

    counts = recorder.counts

    def timed(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        if name == "sim.run":
            return lambda fn: _counting_events(recorder, recorder.span(fn, name))
        if name == "telemetry.to_jsonl":

            def count_bytes(text: str) -> None:
                counts["telemetry.trace_jsonl_bytes"] += len(text.encode("utf-8"))

            return lambda fn: recorder.span(fn, name, count_bytes)
        if name == "core.cache.get":

            def count_hit(entry: Any) -> None:
                counts["core.cache.misses" if entry is None else "core.cache.hits"] += 1

            return lambda fn: recorder.span(fn, name, count_hit)
        return lambda fn: recorder.span(fn, name)

    try:
        for owner, attr, name in SPAN_TARGETS:
            patch(_resolve(owner), attr, timed(name))
        for owner, attr, name in COUNT_TARGETS:
            patch(_resolve(owner), attr, lambda fn, n=name: recorder.counter(fn, n))
        for cls in _trace_classes():
            patch(cls, "at", lambda fn: recorder.counter(fn, "workload.trace_at_calls"))
        yield recorder
    finally:
        for obj, attr, raw in reversed(saved):
            setattr(obj, attr, raw)
