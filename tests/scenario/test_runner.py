"""The fabric dispatcher: one scenario, three execution worlds.

The acceptance bar for the scenario API: one catalog entry per protocol
executes unchanged on the discrete-event simulator, the asyncio local
transport, and authenticated TCP, passing the same ``verify_outcome``
safety standard everywhere.  Unanimous entries must decide the *same
value* across fabrics (strong validity pins it); split-proposal entries
must each satisfy agreement/validity/integrity/liveness.
"""

import pytest

from repro.errors import ConfigError, EventBudgetExceeded, LivenessFailure
from repro.scenario import Scenario, get_scenario, repeat, run

#: One fabric-agnostic catalog representative per protocol.
PROTOCOL_REPS = {
    "bracha": "unanimous-fast-path",
    "benor": "benor-split",
    "benor-crash": "crash-majority",
    "mmr14": "mmr14-dealer",
    "acs": "acs-batch",
}

FABRICS = ["sim", "local", "tcp"]


@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("protocol", sorted(PROTOCOL_REPS))
def test_catalog_representative_runs_on_every_fabric(protocol, fabric):
    scenario = get_scenario(PROTOCOL_REPS[protocol])
    result = run(scenario, fabric=fabric)  # run() verifies, raising on violation
    assert result.violations == []
    assert result.meta["fabric"] == fabric
    if protocol == "acs":
        subsets = {d.value for d in result.decisions.values()}
        assert len(subsets) == 1
        assert len(result.decisions) == scenario.n
    else:
        assert len(result.decided_values) == 1
        expected_correct = scenario.n - len(scenario.faults)
        assert len(result.decisions) == expected_correct


@pytest.mark.parametrize("fabric", FABRICS)
def test_unanimous_value_is_fabric_independent(fabric):
    scenario = get_scenario("unanimous-fast-path")
    assert run(scenario, fabric=fabric).decided_values == {1}


class TestSimFabric:
    def test_multi_instance_batching_on_sim(self):
        """Parallel instances — previously runtime-only — run on the
        simulator through the shared ProtocolPlan."""
        result = run(Scenario(n=4, instances=3, proposals=1, seed=4))
        assert result.decided_values == {1}
        assert result.violations == []

    def test_scheduler_is_applied(self):
        fair = run(Scenario(n=4, seed=2))
        starved = run(Scenario(
            n=4, seed=2, scheduler="victim",
            scheduler_args={"victims": [0], "holdback": 50},
        ))
        assert starved.violations == [] and fair.violations == []
        assert starved.steps != fair.steps

    def test_stop_halted_halts_everyone(self):
        result = run(Scenario(n=4, proposals=1, seed=3, stop="halted"))
        assert result.halted == {0, 1, 2, 3}

    def test_budget_raises_under_check(self):
        with pytest.raises(EventBudgetExceeded):
            run(Scenario(n=4, max_steps=5))

    def test_budget_recorded_without_check(self):
        result = run(Scenario(n=4, max_steps=5), check=False)
        assert any("budget" in v for v in result.violations)

    def test_two_faced_fault_is_defeated(self):
        result = run(Scenario(n=4, faults={3: "two_faced"}, seed=6))
        assert len(result.decided_values) == 1

    def test_acs_silent_fault(self):
        result = run(Scenario(protocol="acs", n=4, faults={3: "silent"}, seed=5))
        subsets = {d.value for d in result.decisions.values()}
        assert len(subsets) == 1
        assert len(result.decisions) == 3

    def test_meta_names_the_scenario(self):
        result = run(get_scenario("benor-split"))
        assert result.meta["scenario"] == "benor-split"
        result = run(Scenario(n=4, proposals=1, seed=1))
        assert result.meta["scenario"] == "<inline>"


class TestOverrides:
    def test_override_leaves_spec_frozen(self):
        scenario = get_scenario("unanimous-fast-path")
        run(scenario, seed=99)
        assert scenario.seed == 1  # untouched

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            run(Scenario(), fabrics="tcp")

    def test_runtime_rejects_quiescent_stop(self):
        # Guarded at construction; the runner double-checks the override path.
        with pytest.raises(ConfigError):
            run(Scenario(stop="quiescent"), fabric="local")


class TestRepeat:
    def test_repeat_derives_distinct_seeds(self):
        results = repeat(Scenario(n=4, seed=0), trials=3)
        assert len(results) == 3
        assert all(not r.violations for r in results)
        # Different derived seeds should (generically) give different runs.
        assert len({r.steps for r in results}) > 1

    @pytest.mark.parametrize("trials", [0, -1])
    def test_repeat_needs_at_least_one_trial(self, trials):
        with pytest.raises(ConfigError, match="at least one trial"):
            repeat(Scenario(n=4), trials=trials)


def test_liveness_failure_surfaces_on_runtime_timeout():
    scenario = Scenario(n=4, fabric="local", timeout=0.05, seed=1,
                        faults={3: "silent"}, proposals=None, t=1)
    # A tiny timeout cannot reliably fail, so only assert the type when it
    # does; the point is that a timeout maps to LivenessFailure, not a hang.
    try:
        run(scenario)
    except LivenessFailure:
        pass
