"""Metrics snapshots end to end: fabrics, grids, CLI.

The registry is the source of truth for run accounting; this module
pins the integration contracts:

* every fabric attaches a :class:`MetricsSnapshot` to ``RunResult``;
* the framing counters live on the registry only — the historical
  ``meta[...]`` mirror is gone;
* ring-mode observation lands events on ``meta["obs_events"]``;
* the grid METRICS read the snapshot.
"""

import pytest

from repro.obs import MetricsSnapshot
from repro.scenario import Scenario, ScenarioGrid, run


@pytest.mark.parametrize("fabric", ["sim", "local", "tcp"])
def test_every_fabric_attaches_a_metrics_snapshot(fabric):
    result = run(Scenario(protocol="bracha", n=4, proposals=1, seed=5,
                          fabric=fabric))
    snap = result.metrics
    assert isinstance(snap, MetricsSnapshot)
    assert snap.counter("decisions") == 4
    assert snap.counter("messages_sent") == result.messages_sent
    latency = snap.histogram("decision_latency")
    assert latency["count"] == 4
    assert 0.0 <= latency["p50"] <= latency["max"]


def test_framing_counters_live_on_the_registry_only():
    result = run(Scenario(
        protocol="bracha", n=4, instances=4, proposals=1, fabric="local",
        batching="flush", seed=29,
    ))
    snap = result.metrics
    # The PR 6 back-compat meta mirror is gone: framing numbers are read
    # from the typed snapshot and nowhere else.
    for key in ("frames_sent", "wire_messages_sent", "messages_per_frame",
                "frames_rejected"):
        assert key not in result.meta
    assert snap.counter("frames_sent") > 0
    assert snap.counter("wire_messages_sent") > snap.counter("frames_sent")
    assert snap.gauges["messages_per_frame"] == pytest.approx(
        snap.counter("wire_messages_sent") / snap.counter("frames_sent")
    )
    assert result.messages_sent == snap.counter("messages_sent")
    assert result.messages_delivered == snap.counter("messages_delivered")
    assert snap.counter("module_decisions") == 4 * 4  # instances × nodes


def test_netem_totals_mirror_registry_counters():
    result = run(Scenario(
        protocol="bracha", n=4, proposals=1, fabric="local", seed=37,
        link={"loss": 0.15, "rto": 0.02}, timeout=120.0,
    ))
    netem = result.meta["netem"]
    snap = result.metrics
    assert netem["dropped"] > 0
    for name in ("frames", "dropped", "retransmitted"):
        assert snap.counter(f"netem_{name}") == netem[name]


def test_ring_mode_retains_events_on_the_result():
    result = run(Scenario(protocol="bracha", n=4, proposals=1, seed=5,
                          observe="ring:500"))
    summary = result.meta["obs"]
    assert summary["sink"] == "ring"
    events = result.meta["obs_events"]
    assert events
    assert len(events) == summary["retained"]
    assert summary["events"] >= summary["retained"]
    assert any(e.kind == "decide" for e in events)


def test_observe_off_attaches_no_observability_meta():
    result = run(Scenario(protocol="bracha", n=4, proposals=1, seed=5))
    assert "obs" not in result.meta
    assert "obs_events" not in result.meta
    assert result.metrics is not None  # metrics are always on


def test_grid_metrics_read_the_snapshot():
    grid = ScenarioGrid(
        Scenario(protocol="bracha", proposals=1), trials=2, seed=11
    )
    grid.add("n", [4])
    sweep = grid.run()
    cell = sweep.cell(n=4)
    assert cell.metric("decisions").mean == 4.0
    p95 = cell.metric("decision_latency_p95").mean
    maximum = cell.metric("decision_latency_max").mean
    assert 0.0 <= p95 <= maximum
    assert "decisions" in sweep.table(metric="decisions")
