"""Estimators and the comparison rule — pure arithmetic, no repro imports.

The estimators are the ones ISSUE 11 fixed after same-code sets on a
shared 2-core box differed by 20-40% under naive means: per-seed run
time is the median over rounds, throughput divides total instances by
the sum of those medians, and latency percentiles pool every round's
samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Mapping, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between order statistics."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def per_seed_median(walls: Mapping[int, Sequence[float]]) -> Dict[int, float]:
    """seed -> median run time over the rounds that ran it."""
    return {seed: statistics.median(times) for seed, times in walls.items()}


def decisions_per_s(instances: int, walls: Mapping[int, Sequence[float]]) -> float:
    """Σ instances ÷ Σ_seed median run time."""
    medians = per_seed_median(walls)
    return instances * len(medians) / sum(medians.values())


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def worsening(better: str, base: float, new: float, absolute: bool = False) -> float:
    """How much worse ``new`` is than ``base`` — a share of ``base``
    unless ``absolute``; negative when ``new`` is better."""
    delta = new - base if better == "lower" else base - new
    if absolute:
        return delta
    if base == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(base)


def verdict(
    better: str,
    bound: float,
    base: Mapping[str, float],
    new: Mapping[str, float],
    noisy: bool = False,
    absolute: bool = False,
) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one (metric, workload) row.

    ``base`` and ``new`` are ``{"value", "spread"}`` cells.  A row whose
    run-to-run spread is wider than its bound — or that comes from a set
    flagged ``noisy`` — cannot tell a regression from noise: it reads
    *unresolved*, never *unchanged*.  Exact rows (bound 0) have spread 0
    and resolve on any difference.
    """
    worse = worsening(better, base["value"], new["value"], absolute)
    if worse <= bound:
        return "ok"
    widest = max(base.get("spread", 0.0), new.get("spread", 0.0))
    if bound > 0 and (noisy or widest > bound):
        return "unresolved"
    return "regressed"


def self_times(spans: Sequence[Mapping[str, object]]) -> List[float]:
    """Each span's duration minus the part its direct children cover.

    Spans are ``{"id", "parent", "start", "end"}`` mappings; children of
    one parent do not overlap (the tracer is single-threaded), so the
    covered part is the sum of the children's durations.
    """
    covered: Dict[object, float] = {}
    for span in spans:
        parent: Optional[object] = span.get("parent")
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (
                float(span["end"]) - float(span["start"])  # type: ignore[arg-type]
            )
    return [
        float(span["end"]) - float(span["start"])  # type: ignore[arg-type]
        - covered.get(span["id"], 0.0)
        for span in spans
    ]
