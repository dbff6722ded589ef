"""Batched-vs-unbatched equivalence, per protocol, per fabric.

The engine/driver refactor's central promise: the ``batching`` knob is
*observable only on the wire*.  On the simulator a fixed seed must
produce identical decisions whatever the mode; on the runtime fabrics
every protocol must still decide with batching enabled.
"""

import pytest

from repro.scenario import Scenario, run

PROTOCOL_SYSTEMS = {
    "bracha": dict(n=4),
    "benor": dict(n=4),
    "benor-crash": dict(n=5, t=2),
    "mmr14": dict(n=4, coin="dealer"),
    "acs": dict(n=4),
}


def _fingerprint(result):
    return (
        result.steps,
        result.messages_sent,
        result.messages_delivered,
        result.rounds,
        {pid: d.value for pid, d in result.decisions.items()},
        result.meta["messages_by_kind"],
    )


class TestSimBitIdentical:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_SYSTEMS))
    def test_batched_run_equals_unbatched(self, protocol):
        spec = PROTOCOL_SYSTEMS[protocol]
        base = Scenario(protocol=protocol, seed=13, **spec)
        off = run(base, batching="off")
        batched = run(base, batching="flush")
        assert _fingerprint(off) == _fingerprint(batched)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_SYSTEMS))
    def test_batched_run_with_faults_equals_unbatched(self, protocol):
        spec = dict(PROTOCOL_SYSTEMS[protocol])
        faults = {3: "silent"} if protocol != "benor-crash" else {4: "silent"}
        base = Scenario(protocol=protocol, seed=29, faults=faults, **spec)
        assert _fingerprint(run(base, batching="off")) == _fingerprint(
            run(base, batching="flush")
        )


class TestRuntimeFabricsDecide:
    """Acceptance: all five protocols decide with batching enabled on
    every fabric (sim is covered bit-for-bit above)."""

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_SYSTEMS))
    def test_local_batched(self, protocol):
        spec = PROTOCOL_SYSTEMS[protocol]
        result = run(Scenario(protocol=protocol, fabric="local",
                              batching="flush", seed=17, **spec))
        assert len(result.decisions) >= 1
        assert result.meta["batching"] == "flush"

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_SYSTEMS))
    def test_tcp_batched(self, protocol):
        spec = PROTOCOL_SYSTEMS[protocol]
        result = run(Scenario(protocol=protocol, fabric="tcp",
                              batching="flush", seed=19, **spec))
        assert len(result.decisions) >= 1
        assert result.metrics.counter("frames_sent") > 0


class TestSpecValidation:
    def test_round_trips_through_json(self):
        scenario = Scenario(protocol="bracha", fabric="local",
                            batching="flush", instances=4, proposals=1)
        assert Scenario.from_json(scenario.to_json()) == scenario
        assert scenario.to_dict()["batching"] == "flush"

    def test_default_is_omitted_from_dict(self):
        assert "batching" not in Scenario().to_dict()

    def test_bad_specs_rejected(self):
        from repro.errors import ConfigError

        for bad in ("on", "size:8", "batch"):
            with pytest.raises(ConfigError):
                Scenario(batching=bad)

    def test_grid_can_sweep_batching(self):
        from repro.scenario import ScenarioGrid

        grid = ScenarioGrid(
            Scenario(protocol="bracha", fabric="local", proposals=1,
                     instances=2),
            trials=1, seed=3,
        )
        grid.add("batching", ["off", "flush"])
        result = grid.run()
        off = result.cell(batching="off")
        flush = result.cell(batching="flush")
        assert off.metric("messages_per_frame").mean == 1.0
        assert flush.metric("messages_per_frame").mean > 1.0
        assert flush.metric("frames_sent").mean < off.metric("frames_sent").mean
