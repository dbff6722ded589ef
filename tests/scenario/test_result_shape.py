"""One result shape on every fabric.

All four fabrics hand per-node reports to the same builder
(:mod:`repro.outcome`), so a ``RunResult`` carries the same ``meta``
keys and registry counters wherever the scenario ran.  The only
differences allowed are the per-fabric keys below — the same table
docs/scenarios.md documents.
"""

import pytest

from repro.scenario import Scenario, ScenarioGrid, get_scenario, run

from .test_runner import PROTOCOL_REPS

#: ``meta`` keys every fabric returns for every protocol.
COMMON_META = {
    "batching", "codec", "coin_flips", "decision_latency", "decision_rounds",
    "fabric", "faulty", "instance_decisions", "instances",
    "messages_by_kind", "proposals", "protocol", "scenario",
}

#: What a fabric adds on top (for a scenario without netem, recovery,
#: observe or kill/restart faults, which add their own documented keys).
FABRIC_META = {
    "sim": set(),
    "local": {"transport"},
    "tcp": {"transport"},
    "mp": {"transport"},
}

RUNS = [
    (protocol, fabric)
    for protocol in sorted(PROTOCOL_REPS) for fabric in ("sim", "local", "tcp")
] + [("bracha", "mp"), ("acs", "mp")]


@pytest.fixture(scope="module")
def results():
    return {
        (protocol, fabric): run(
            get_scenario(PROTOCOL_REPS[protocol]), fabric=fabric
        )
        for protocol, fabric in RUNS
    }


@pytest.mark.parametrize("protocol,fabric", RUNS)
def test_meta_keys_differ_only_by_the_documented_set(results, protocol, fabric):
    meta = results[protocol, fabric].meta
    assert set(meta) == COMMON_META | FABRIC_META[fabric]
    assert meta["codec"] == "binary" and meta["protocol"] == protocol


@pytest.mark.parametrize("protocol,fabric", RUNS)
def test_instance_decisions_rows_agree_and_are_complete(
    results, protocol, fabric
):
    result = results[protocol, fabric]
    rows = list(result.meta["instance_decisions"].values())
    assert len(rows) == len(result.decisions) > 0
    assert all(row == rows[0] and None not in row for row in rows)
    assert sorted(result.meta["decision_latency"]) == sorted(result.decisions)


@pytest.mark.parametrize("protocol,fabric", RUNS)
def test_counters_are_the_same_set_per_wire_kind(results, protocol, fabric):
    counters = set(results[protocol, fabric].metrics.counters)
    common = {
        "decisions", "messages_delivered", "messages_sent", "module_decisions",
    }
    framed = {"frames_rejected", "frames_sent", "wire_messages_sent"}
    assert counters == (common if fabric == "sim" else common | framed)


def test_acs_module_decisions_match_across_fabrics(results):
    """Decide *effects* are counted at the node, not re-derived from the
    reported outcomes — mp used to read 0 for ACS."""
    counts = {
        fabric: results["acs", fabric].metrics.counter("module_decisions")
        for fabric in ("sim", "local", "tcp", "mp")
    }
    assert counts == dict.fromkeys(counts, 16)  # n ABAs at each of n nodes


def test_coin_flips_metric_is_live_on_runtime_fabrics():
    """``meta["coin_flips"]`` used to be sim-only, so the grid metric
    silently read 0 on local/tcp."""
    grid = ScenarioGrid(
        Scenario(protocol="benor", n=4, proposals=[0, 1, 0, 1]),
        trials=1, seed=3,
    ).add("fabric", ["sim", "local"])
    result = grid.run()
    assert result.cell(fabric="local").metric("coin_flips").mean > 0
    assert result.cell(fabric="sim").metric("coin_flips").mean > 0


def test_decision_time_is_the_first_decide_time_on_sim(results):
    result = results["bracha", "sim"]
    latency = result.meta["decision_latency"]
    assert {d.time for d in result.decisions.values()} == set(latency.values())
    assert max(latency.values()) <= result.virtual_time
