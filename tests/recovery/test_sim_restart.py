"""The simulated ``restart`` fault: crash a correct node, get it back.

The sim fabric models the mp fabric's SIGKILL + WAL-replay lifecycle
without processes or files: discard the stack, buffer traffic while
down, reset the node's private RNG streams, rebuild, replay the
in-memory delivery log.  These tests pin the contract — every protocol
decides through a mid-run restart, the restarted node is held to the
same safety checks as any correct node, the run is still bit-
reproducible, and a node that never comes back is a *named* liveness
failure — plus the scenario-validation story for the restart/recovery
surface.
"""

import pytest

from repro.errors import ConfigError, LivenessFailure
from repro.scenario import Scenario, run

RESTART = {0: {"kind": "restart", "after": 4, "down": 2}}

SCENARIOS = {
    "bracha": Scenario(protocol="bracha", n=4, proposals=1,
                       faults=RESTART, seed=3),
    "benor": Scenario(protocol="benor", n=4, proposals=1,
                      faults=RESTART, seed=3),
    "benor-crash": Scenario(protocol="benor-crash", n=5, t=2, proposals=1,
                            faults=RESTART, seed=3),
    "mmr14": Scenario(protocol="mmr14", n=4, coin="dealer", proposals=1,
                      faults=RESTART, seed=3),
    "acs": Scenario(protocol="acs", n=4, faults=RESTART, seed=3),
}


class TestSimRestart:
    @pytest.mark.parametrize("protocol", sorted(SCENARIOS))
    def test_every_protocol_decides_through_a_restart(self, protocol):
        result = run(SCENARIOS[protocol].replace(observe="ring"))
        assert not result.violations
        assert len(result.decisions) == SCENARIOS[protocol].n
        if protocol != "acs":
            assert result.decided_values == {1}

        counters = result.metrics.counters
        assert counters.get("restarts") == 1
        assert counters.get("recovery_replayed", 0) >= 4
        assert result.metrics.gauges.get("recovery_time", 0) > 0
        assert result.meta["restarted"] == [0]

        kinds = [e.kind for e in result.meta["obs_events"]]
        for kind in ("restart", "recovery_replayed", "recovery_complete"):
            assert kind in kinds

    def test_restart_runs_are_reproducible(self):
        scenario = SCENARIOS["bracha"]
        first, second = run(scenario), run(scenario)
        assert first.decisions == second.decisions
        assert first.steps == second.steps
        assert first.messages_sent == second.messages_sent

    def test_restart_node_counts_toward_the_fault_budget(self):
        with pytest.raises(ConfigError, match="faults injected but t="):
            Scenario(protocol="bracha", n=4, proposals=1,
                     faults={0: {"kind": "restart", "after": 4, "down": 2},
                             1: "silent"})

    def test_never_recovering_is_a_named_liveness_failure(self):
        # A down window no traffic can fill: the node crashes and stays
        # down, and the harness names the failure instead of spinning.
        scenario = Scenario(
            protocol="bracha", n=4, proposals=1, seed=3,
            faults={0: {"kind": "restart", "after": 8, "down": 10_000}},
        )
        with pytest.raises(LivenessFailure, match="never recovered"):
            run(scenario)
        result = run(scenario, check=False)
        assert any("never recovered" in v for v in result.violations)


class TestRestartValidation:
    def test_fault_kind_errors_name_the_supported_fabrics(self):
        with pytest.raises(ConfigError, match="'sim' fabric or 'mp' fabric"):
            Scenario(protocol="bracha", n=4, fabric="tcp",
                     faults={0: {"kind": "restart", "after": 1}})

    def test_fault_kind_errors_suggest_the_nearest_kind(self):
        with pytest.raises(ConfigError, match="nearest kind.*'crash'"):
            Scenario(protocol="bracha", n=4, fabric="local",
                     faults={0: {"kind": "restart", "after": 1}})
        with pytest.raises(ConfigError, match="nearest kind.*'crash'"):
            Scenario(protocol="bracha", n=4,
                     faults={0: {"kind": "kill", "after": 1}})

    def test_restart_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown field"):
            Scenario(protocol="bracha", n=4,
                     faults={0: {"kind": "restart", "afterr": 1}})

    def test_restart_bounds_its_numbers(self):
        with pytest.raises(ConfigError, match="'after' >= 0"):
            Scenario(protocol="bracha", n=4,
                     faults={0: {"kind": "restart", "after": -1}})
        with pytest.raises(ConfigError, match="'down' > 0"):
            Scenario(protocol="bracha", n=4,
                     faults={0: {"kind": "restart", "down": 0}})
        with pytest.raises(ConfigError, match="'max_restarts' >= 1"):
            Scenario(protocol="bracha", n=4,
                     faults={0: {"kind": "restart", "max_restarts": 0}})

    def test_recovery_field_is_validated(self):
        assert Scenario(n=4, fabric="local", recovery="wal").recovery == "wal"
        with pytest.raises(ConfigError, match="unknown recovery mode"):
            Scenario(n=4, fabric="local", recovery="snapshot")

    def test_recovery_needs_a_runtime_fabric(self):
        with pytest.raises(ConfigError, match="runtime fabric"):
            Scenario(n=4, fabric="sim", recovery="wal")

    def test_mp_restart_needs_recovery_and_retransmission(self):
        faults = {3: {"kind": "restart", "after": 0.1, "down": 0.5}}
        with pytest.raises(ConfigError, match="needs recovery enabled"):
            Scenario(n=4, fabric="mp", faults=faults)
        with pytest.raises(ConfigError, match="retransmission"):
            Scenario(n=4, fabric="mp", faults=faults, recovery="wal")
        ok = Scenario(n=4, fabric="mp", faults=faults, recovery="wal",
                      link={"retransmit": True, "rto": 0.1})
        assert ok.fault_specs("restart") == {3: {"after": 0.1, "down": 0.5}}

    def test_restart_scenario_round_trips_through_json(self):
        scenario = Scenario(
            protocol="bracha", n=4, proposals=1, fabric="mp", seed=67,
            faults={3: {"kind": "restart", "after": 0.1, "down": 0.5,
                        "max_restarts": 2}},
            recovery="wal", link={"retransmit": True, "rto": 0.1},
        )
        again = Scenario.from_json(scenario.to_json())
        assert again == scenario
        assert again.recovery == "wal"
        assert again.fault_specs("restart")[3]["max_restarts"] == 2
