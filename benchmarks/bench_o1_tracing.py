"""O1 — Tracing & profiling overhead: what observation costs.

The observability layer's overhead stance (docs/observability.md): an
unobserved run pays one ``is None`` check per hot-path event, an
observed run pays causal stamping plus event construction, and a
profiled run additionally pays two ``perf_counter`` reads per span.
This benchmark regenerates the evidence — the same fixed-seed simulator
scenario wall-timed under ``observe: off``, ``observe: ring`` (with
causal stamping), and ``observe: ring`` + ``profile: on`` — and gates
the overhead ratios in CI through ``floors.json``.

Each trial runs the three variants back to back, after one untimed
pass; a row is the median over trials, and a ratio is the median of the
per-trial ratios, so drift in the machine's speed hits both sides of
it.  A row's times are reference milliseconds: each trial's wall time
divided by (the host calibration taken just before the trial ÷ the e2e
harness's reference calibration), so a host running slow for a while
does not read as a slow run.
"""

import os
import statistics
import sys
import time

from conftest import run_once

from repro.analysis.tables import format_table
from repro.scenario import Scenario, run

# The e2e harness's host probe, so both gates share one reference speed.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "e2e"))
from harness import REF_CALIB_MS, calibrate  # noqa: E402


def test_o1_tracing_overhead(benchmark, table_sink, bench_sink, smoke):
    trials = 11 if smoke else 21
    scenario = Scenario(protocol="bracha", n=4, instances=2, proposals=1,
                        seed=13)
    variants = [
        ("observe off", {}),
        ("observe ring", {"observe": "ring"}),
        ("ring + profile", {"observe": "ring", "profile": "on"}),
    ]

    def experiment():
        samples = {label: [] for label, _ in variants}
        for trial in range(trials + 1):
            host_x = calibrate() / REF_CALIB_MS
            for label, overrides in variants:
                start = time.perf_counter()
                result = run(scenario, **overrides)
                ms = (time.perf_counter() - start) * 1000.0 / host_x
                assert result.decided_values == {1}
                if trial:  # trial 0 warms the interpreter
                    samples[label].append(ms)
        off = samples["observe off"]
        return [
            [label, round(statistics.median(ms), 2),
             round(statistics.median(a / b for a, b in zip(ms, off)), 2)]
            for label, ms in samples.items()
        ]

    rows = run_once(benchmark, experiment)
    table_sink(
        "o1_tracing_overhead",
        format_table(
            ["variant", "median ref ms", "x baseline"],
            rows,
            title="O1. Tracing/profiling overhead, one fixed-seed sim run "
                  f"(bracha n=4 x2 instances, {trials} interleaved trials, "
                  f"{'smoke' if smoke else 'full'} mode)",
        ),
    )
    by_label = {row[0]: row for row in rows}
    # The stance is "cheap enough to leave on while debugging", not
    # "free": ratios are gated in floors.json, not asserted here, so a
    # noisy CI box degrades the gate margin instead of flaking the test.
    bench_sink(
        "o1_tracing",
        {
            "observe_off_ms": by_label["observe off"][1],
            "observe_ring_ms": by_label["observe ring"][1],
            "profile_on_ms": by_label["ring + profile"][1],
            "observe_overhead_x": by_label["observe ring"][2],
            "profile_overhead_x": by_label["ring + profile"][2],
        },
        meta={"trials": trials, "interleaved": True,
              "scenario": "bracha n=4 x2 seed=13",
              "times": f"reference ms (calibration / {REF_CALIB_MS} ms)"},
    )
