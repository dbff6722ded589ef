"""Typed run metrics: counters, gauges, and fixed-bucket histograms.

The registry replaces the ad-hoc ``RunResult.meta[...]`` accounting the
runtime cluster used to smuggle: the one result builder
(:func:`repro.outcome.build_result`) records every run into one
:class:`MetricsRegistry` — named counters/gauges/histograms — and
attaches a single typed :class:`MetricsSnapshot` to the result
(``RunResult.metrics``).  Tables, grids, and the CLI read the snapshot
through one shape instead of hunting for per-fabric meta keys.

Histograms are fixed-bucket (geometric boundaries, no dependencies):
``record`` is O(log buckets) and quantiles interpolate inside the
matched bucket, which is plenty for decision-latency p50/p95/p99 at the
scales this repository runs.  Everything snapshots to plain dicts so
results stay JSON-serializable end to end.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from ..errors import ConfigError

#: Default histogram buckets: geometric, 1 µs .. ~134 s in ×2 steps.
#: Wide enough for wall-clock decision latencies and virtual-time spans.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    1e-6 * (2.0 ** i) for i in range(28)
)

QUANTILES = (0.50, 0.95, 0.99)


class Histogram:
    """Fixed-bucket histogram with interpolated quantiles.

    ``bounds[i]`` is the inclusive upper edge of bucket ``i``; one
    overflow bucket catches everything beyond the last edge.  Exact
    ``count``/``total``/``minimum``/``maximum`` are tracked alongside the
    buckets, so means are exact and only quantiles are approximate.
    """

    __slots__ = ("bounds", "counts", "count", "total", "minimum", "maximum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ConfigError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 = overflow
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def record(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def quantile(self, q: float) -> float:
        """Approximate quantile by linear interpolation inside the bucket."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= target:
                lo = 0.0 if i == 0 else self.bounds[i - 1]
                hi = (
                    self.bounds[i]
                    if i < len(self.bounds)
                    else (self.maximum if self.maximum is not None else lo)
                )
                # Clamp to observed extremes: interpolation must never
                # report a quantile outside the recorded range.
                fraction = (target - seen) / bucket_count
                estimate = lo + fraction * (hi - lo)
                if self.minimum is not None:
                    estimate = max(estimate, self.minimum)
                if self.maximum is not None:
                    estimate = min(estimate, self.maximum)
                return estimate
            seen += bucket_count
        return self.maximum if self.maximum is not None else 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
        }
        for q in QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        return out


@dataclass
class MetricsSnapshot:
    """One immutable-by-convention readout of a registry.

    ``counters`` and ``gauges`` are name → value; ``histograms`` is
    name → summary dict (count/mean/min/max/p50/p95/p99).  The snapshot
    is what travels on :class:`~repro.types.RunResult` and through grid
    METRICS — plain data, JSON-serializable as-is.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsSnapshot":
        return cls(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            histograms={
                k: dict(v) for k, v in data.get("histograms", {}).items()
            },
        )

    def counter(self, name: str, default: int = 0) -> int:
        return int(self.counters.get(name, default))

    def histogram(self, name: str) -> Dict[str, float]:
        return self.histograms.get(name, {})

    def quantile(self, name: str, q: str) -> float:
        """Histogram quantile by name (``q`` is ``"p50"``/``"p95"``/``"p99"``)."""
        return float(self.histograms.get(name, {}).get(q, 0.0))


class MetricsRegistry:
    """Named counters, gauges, and histograms for one run."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- writers -------------------------------------------------------------

    def count(self, name: str, delta: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(bounds)
        return hist

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (created on demand)."""
        self.histogram(name).record(value)

    # -- readers -------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms={
                name: hist.summary()
                for name, hist in self._histograms.items()
            },
        )


__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
]
