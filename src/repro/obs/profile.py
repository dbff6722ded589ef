"""Hot-path span profiling: wall-clock timers into metrics histograms.

The ROADMAP's "raw speed" work needs profile-first evidence: where does
a run actually spend its wall time — the simulator's deliver/effects
drain, the runtime's flush path, the codec+MAC pass, the WAL append?
:class:`SpanProfiler` answers that with the lightest instrument that
still yields quantiles: named spans timed with ``perf_counter`` and
recorded into the run's existing
:class:`~repro.obs.metrics.MetricsRegistry` histograms (one histogram
per span, prefixed ``span_``), so span summaries travel on
``RunResult.metrics`` like every other measurement.

Selection follows the validated-Scenario-field convention: ``profile:
off`` (the default — no profiler object exists, the hot paths pay one
``is None`` check) or ``profile: on`` (two clock reads, one dict lookup
and one histogram update per span).  Profiling never touches
virtual time, the rng, or the event stream, so a fixed-seed simulator
run with ``profile: on`` is bit-identical in its logical events to the
same run without it (``tests/obs/test_profile.py`` holds the repository
to this).  The spans the built-in instrumentation records:

==================  ========================================================
span                what it times
==================  ========================================================
``sim_step``        one full simulator step (scheduler choice + delivery)
``sim_deliver``     the delivery + protocol activation + effects drain
``node_flush``      one runtime pump flush (outbox → wire frames)
``tcp_encode``      codec encode + MAC for one TCP frame
``wal_append``      one write-ahead-log append on the deliver path
==================  ========================================================
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

from ..errors import ConfigError
from .metrics import Histogram, MetricsRegistry, MetricsSnapshot

#: The validated profile modes of the Scenario field.
PROFILE_MODES = ("off", "on")

#: Histogram-name prefix marking span timings in a metrics snapshot.
SPAN_PREFIX = "span_"


def parse_profile(spec: Any) -> str:
    """Validate a profile spec; return the mode (``"off"`` | ``"on"``)."""
    if spec is None or spec == "off":
        return "off"
    if spec == "on":
        return "on"
    raise ConfigError(
        f"unknown profile spec {spec!r}; choose from {list(PROFILE_MODES)}"
    )


class SpanProfiler:
    """Named wall-clock spans recorded into a metrics registry.

    The hot-path form avoids a context-manager allocation per span::

        started = profiler.start()
        ...the timed work...
        profiler.stop("node_flush", started)

    Each ``stop`` records the elapsed seconds into the registry
    histogram ``span_<name>``; counts, means, and p50/p95/p99 fall out
    of the histogram summary for free.  The histogram is looked up (and
    created) at the first ``stop`` of a name; every later one is a
    clock read, one dict lookup and the histogram update — written out
    here rather than calling :meth:`Histogram.record
    <repro.obs.metrics.Histogram.record>`, so a span costs one frame.
    """

    __slots__ = ("registry", "clock", "_histograms")

    def __init__(
        self, registry: MetricsRegistry, clock: Any = time.perf_counter
    ):
        self.registry = registry
        self.clock = clock
        #: span name -> its ``span_<name>`` histogram.
        self._histograms: Dict[str, Histogram] = {}

    def start(self) -> float:
        return self.clock()

    def stop(self, name: str, started: float) -> None:
        value = float(self.clock() - started)
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = self.registry.histogram(
                SPAN_PREFIX + name
            )
        histogram.counts[bisect_left(histogram.bounds, value)] += 1
        histogram.count += 1
        histogram.total += value
        if histogram.minimum is None or value < histogram.minimum:
            histogram.minimum = value
        if histogram.maximum is None or value > histogram.maximum:
            histogram.maximum = value

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context-manager form for non-hot-path call sites."""
        started = self.clock()
        try:
            yield
        finally:
            self.stop(name, started)


def build_profiler(
    spec: Any, registry: MetricsRegistry
) -> Optional[SpanProfiler]:
    """The profiler selected by a profile spec (``None`` = off)."""
    if parse_profile(spec) == "off":
        return None
    return SpanProfiler(registry)


def span_summaries(
    snapshot: Optional[MetricsSnapshot],
) -> Tuple[Tuple[str, dict], ...]:
    """The span histograms of a snapshot as ``(name, summary)`` pairs.

    Names come back without the ``span_`` prefix, sorted, so renderers
    can list "the profile" without re-deriving the convention.
    """
    if snapshot is None:
        return ()
    return tuple(
        (name[len(SPAN_PREFIX):], dict(summary))
        for name, summary in sorted(snapshot.histograms.items())
        if name.startswith(SPAN_PREFIX)
    )


def render_profile(snapshot: Optional[MetricsSnapshot]) -> str:
    """The span table ``repro run`` prints for a ``profile: on`` scenario:
    one row per span, microsecond units."""
    from ..analysis.tables import format_table

    spans = span_summaries(snapshot)
    if not spans:
        return "no span timings recorded (was the run profiled?)"
    scale = 1e6  # seconds -> µs
    rows = []
    for name, h in spans:
        rows.append([
            name,
            int(h.get("count", 0)),
            f"{h.get('mean', 0.0) * scale:.1f}",
            f"{h.get('p50', 0.0) * scale:.1f}",
            f"{h.get('p95', 0.0) * scale:.1f}",
            f"{h.get('p99', 0.0) * scale:.1f}",
            f"{h.get('max', 0.0) * scale:.1f}",
            f"{h.get('count', 0) * h.get('mean', 0.0) * 1000.0:.2f}",
        ])
    return format_table(
        ["span", "calls", "mean µs", "p50 µs", "p95 µs", "p99 µs",
         "max µs", "total ms"],
        rows,
        title="Hot-path span profile",
    )


__all__ = [
    "PROFILE_MODES",
    "SPAN_PREFIX",
    "SpanProfiler",
    "build_profiler",
    "parse_profile",
    "render_profile",
    "span_summaries",
]
