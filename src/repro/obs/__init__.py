"""Unified observability: structured events, metrics, sinks, reports.

This package is the fabric-agnostic observability layer of the
repository.  Every execution world — the discrete-event simulator, the
asyncio runtime over local queues, and the authenticated TCP fabric —
emits the same structured :class:`~repro.obs.events.Event` stream from
the same logical points (protocol sends/deliveries, decisions, wire
frames, retransmissions, netem verdicts), so one fixed-seed run can be
inspected, diffed, and replayed identically regardless of where it ran.

The pieces:

* :class:`~repro.obs.events.Event` — the structured record: monotonic
  time, node, protocol instance, round, kind, detail
  (:mod:`repro.obs.events`);
* :class:`~repro.obs.observer.Observer` — the emission hub the fabrics
  talk to; near-zero cost when disabled (one ``None`` check on the hot
  path) (:mod:`repro.obs.observer`);
* sinks — in-memory ring buffer (default), JSONL file writer, and a
  human-readable timeline renderer (:mod:`repro.obs.sinks`);
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  fixed-bucket histograms (p50/p95/p99 without dependencies) snapshotted
  onto every :class:`~repro.types.RunResult`
  (:mod:`repro.obs.metrics`);
* ``repro report`` — the one trace reader: from a JSONL trace it builds
  the delivery DAG (:class:`~repro.obs.report.CausalDag`, send/deliver
  correlated by the per-sender message ids stamped at the effect
  boundary when observing) and renders decision latency, per-round
  timing, the phase breakdown, per-decision critical paths and the
  queue-vs-processing split from it (:mod:`repro.obs.report`);
* span profiling — the ``profile`` Scenario field attaches a
  :class:`~repro.obs.profile.SpanProfiler` that times the hot paths
  (sim step/deliver, runtime flush, codec+MAC, WAL append) into
  ``span_*`` metrics histograms, rendered by ``repro run --set profile=on``
  (:mod:`repro.obs.profile`);
* the perf gate — benchmarks emit ``BENCH_<name>.json`` headline
  numbers through :mod:`repro.obs.bench`, and
  ``python -m repro.obs.check_floors`` compares them against committed
  floors so CI catches regressions (:mod:`repro.obs.check_floors`).

Selection is declarative: the ``observe`` :class:`~repro.scenario.Scenario`
field (``off`` | ``ring`` | ``ring:N`` | ``jsonl`` | ``jsonl:PATH``)
follows the same validated-field convention as ``link`` and
``batching``.  See ``docs/observability.md``.
"""

from .._lazy import lazy_exports
from .events import Event, classify_payload
from .metrics import Histogram, MetricsRegistry, MetricsSnapshot
from .observer import OBSERVE_MODES, Observer, build_observer, parse_observe
from .profile import (
    PROFILE_MODES,
    SpanProfiler,
    build_profiler,
    parse_profile,
    render_profile,
)
from .sinks import JsonlSink, RingSink, load_events, render_events

# The trace reader is for finished traces, never for a run: first use loads it.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".report": ("CausalDag", "PathHop", "render_report"),
})

__all__ = [
    "CausalDag",
    "Event",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "MetricsSnapshot",
    "OBSERVE_MODES",
    "Observer",
    "PROFILE_MODES",
    "PathHop",
    "RingSink",
    "SpanProfiler",
    "build_observer",
    "build_profiler",
    "classify_payload",
    "load_events",
    "parse_observe",
    "parse_profile",
    "render_events",
    "render_profile",
    "render_report",
]
