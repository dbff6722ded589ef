"""One node assembly (:func:`repro.runtime.node.assemble_node`) on every
runtime fabric: what it keeps per node reads the same on local, tcp and mp.

* ``decide_time`` is the node's *first* Decide, as on sim and as
  docs/scenarios.md defines ``decision_latency`` — multi-instance
  local/tcp included, where it once was the time the last instance
  decided;
* the scenario's ``stop: "halted"`` flag ends a tcp and an mp run as it
  ends a local one (``tests/runtime/test_cluster.py``).
"""

import pytest

from repro.obs.events import round_time
from repro.scenario import Scenario, run


@pytest.mark.parametrize("fabric", ["local", "tcp"])
def test_decision_latency_is_the_first_decide_event(fabric):
    result = run(Scenario(n=4, instances=4, seed=3, fabric=fabric,
                          observe="ring"))
    first = {}
    for event in result.meta["obs_events"]:
        if event.kind == "decide":
            first[event.node] = min(event.time, first.get(event.node, event.time))
    latency = result.meta["decision_latency"]
    assert sorted(latency) == [0, 1, 2, 3]
    assert ({pid: round_time(t) for pid, t in latency.items()}
            == {pid: round_time(t) for pid, t in first.items()})
    # Each (node, instance) decision counts once.
    assert result.metrics.counter("module_decisions") == 4 * 4


@pytest.mark.parametrize("fabric", ["tcp", "mp"])
def test_stop_halted_ends_the_run_with_every_correct_node_halted(fabric):
    result = run(Scenario(proposals=0, seed=9, fabric=fabric, stop="halted",
                          faults={3: "silent"}))
    assert result.halted == {0, 1, 2}
