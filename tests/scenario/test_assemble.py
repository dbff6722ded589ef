"""The seam in the sim fabric: ``assemble`` is ``run`` before it starts.

``run(scenario)`` on the sim fabric *is* ``assemble(scenario).run()
.result()``, so the handle cannot drift from the runner; and the only
things a :class:`Scenario` cannot spell as data — a live coin object, a
live scheduler, an ablated stack factory — enter through ``plan=`` and
``scheduler=`` on that one function.
"""

import pytest

from repro.adversary import CoinRushScheduler
from repro.core.coin import DealerCoin
from repro.core.validation import PermissiveValidator
from repro.errors import ConfigError, EventBudgetExceeded
from repro.scenario import Scenario, SimRun, assemble, get_scenario, run
from repro.stacks import ProtocolPlan, ablation_stack

SPLIT = dict(n=4, proposals=[0, 1, 0, 1])

ROWS = {
    "unanimous-fast-path": get_scenario("unanimous-fast-path"),
    "restart": Scenario(
        seed=7, faults={0: {"kind": "restart", "after": 4, "down": 2}}, **SPLIT
    ),
    "observe-ring": get_scenario("batched-pipeline").replace(fabric="sim"),
}

plan_for = ProtocolPlan.for_scenario


class TestHandleIsRun:
    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_assemble_run_result_equals_run(self, row):
        scenario = ROWS[row]
        direct = run(scenario)
        handle = assemble(scenario)
        assert isinstance(handle, SimRun) and not handle.started
        stepped = handle.run().result()
        assert (stepped.steps, stepped.messages_sent) == (
            direct.steps, direct.messages_sent)
        assert stepped.decisions == direct.decisions  # value, round and time
        assert stepped.meta == direct.meta  # incl. instance_decisions, obs_events
        assert stepped.metrics.counters == direct.metrics.counters
        assert len(stepped.meta.get("obs_events", ())) == len(
            direct.meta.get("obs_events", ()))

    def test_rows_cover_what_they_claim(self):
        assert run(ROWS["restart"]).meta["restarted"] == [0]
        assert len(run(ROWS["observe-ring"]).meta["obs_events"]) > 0

    def test_start_proposes_and_stepping_by_hand_reaches_the_same_run(self):
        scenario = Scenario(seed=3, **SPLIT)
        handle = assemble(scenario)
        handle.start()
        assert handle.sim.pending, "start() hands every stack its proposal"
        while not handle.until():
            assert handle.sim.step()
        assert handle.result().steps == run(scenario).steps

    def test_every_decision_carries_its_first_decide_time(self):
        result = assemble(Scenario(seed=3, **SPLIT)).run().result()
        times = [d.time for d in result.decisions.values()]
        assert len(set(times)) > 1 and max(times) <= result.virtual_time

    def test_budget_exhaustion_raises_under_check_and_is_recorded_without(self):
        scenario = Scenario(seed=3, max_steps=10, **SPLIT)
        with pytest.raises(EventBudgetExceeded):
            assemble(scenario).run().result()
        result = assemble(scenario).run().result(check=False)
        assert any("event budget exhausted" in v for v in result.violations)

    def test_sim_fabric_only(self):
        with pytest.raises(ConfigError, match="'sim' fabric only"):
            assemble(Scenario(fabric="local"))


class TestLiveObjects:
    @pytest.mark.parametrize("protocol", ["bracha", "mmr14"])
    def test_shared_dealer_coin_and_coin_rush_scheduler_decide(self, protocol):
        scenario = Scenario(protocol=protocol, seed=2, max_steps=3_000_000, **SPLIT)
        coin = DealerCoin(4, 1, seed=5)
        handle = assemble(
            scenario, plan=plan_for(scenario, coin=coin),
            scheduler=CoinRushScheduler(coin, holdback=50),
        )
        assert isinstance(handle.sim.scheduler, CoinRushScheduler)
        result = handle.run().result()
        assert len(result.decided_values) == 1 and len(result.decisions) == 4

    def test_coin_object_run_ignores_the_plan_coin_seed(self):
        """A coin *object* is used as given: two runs that share its seed
        but not the scenario's coin name decide identically."""
        scenario = Scenario(seed=4, **SPLIT)
        results = [
            assemble(
                scenario.replace(coin=name),
                plan=plan_for(scenario, coin=DealerCoin(4, 1, seed=9)),
            ).run().result()
            for name in ("local", "dealer")
        ]
        assert results[0].steps == results[1].steps
        assert results[0].decisions == results[1].decisions

    def test_ablation_stack_installs_the_permissive_validator(self):
        scenario = Scenario(n=4, faults={3: "silent"}, seed=0)
        handle = assemble(
            scenario, plan=plan_for(scenario, stack=ablation_stack(validate=False))
        )
        assert sorted(handle.stacks) == [0, 1, 2]
        assert all(
            isinstance(consensus.validator, PermissiveValidator)
            for (consensus,) in handle.stacks.values()
        )
        default = assemble(scenario)
        assert not any(
            isinstance(consensus.validator, PermissiveValidator)
            for (consensus,) in default.stacks.values()
        )

    def test_coin_object_with_several_instances_is_rejected(self):
        scenario = Scenario(instances=2, **SPLIT)
        with pytest.raises(ConfigError, match="coin \\*name\\*"):
            plan_for(scenario, coin=DealerCoin(4, 1, seed=1))
        with pytest.raises(ConfigError, match="coin \\*name\\*"):
            plan_for(Scenario(protocol="acs"), coin=DealerCoin(4, 1, seed=1))

    def test_stack_factory_needs_a_single_instance_protocol(self):
        with pytest.raises(ConfigError, match="single-instance stack"):
            plan_for(Scenario(instances=2, **SPLIT), stack=ablation_stack())
        with pytest.raises(ConfigError, match="single-instance stack"):
            plan_for(Scenario(protocol="acs"), stack=ablation_stack())
