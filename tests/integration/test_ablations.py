"""Ablation stacks end-to-end (the switches behind experiments A1/A2)."""

import pytest

from repro.errors import EventBudgetExceeded
from repro.scenario import Scenario, assemble, run
from repro.stacks import ProtocolPlan, ablation_stack

STUBBORN = {3: {"kind": "stubborn", "bit": 0, "horizon": 16}}


def ablated(scenario, **switches):
    """The scenario assembled on an ablated Bracha stack."""
    plan = ProtocolPlan.for_scenario(scenario, stack=ablation_stack(**switches))
    return assemble(scenario, plan=plan)


class TestValidationAblation:
    def test_no_validation_still_fine_without_byzantine(self):
        """With only correct processes, validation never fires anyway."""
        result = ablated(
            Scenario(n=4, proposals=[0, 1, 0, 1], seed=1), validate=False
        ).run().result()
        assert len(result.decided_values) == 1

    def test_stubborn_bidder_beats_no_validation(self):
        """At least one seed in a handful must show the validity break."""
        broken = 0
        for seed in range(8):
            scenario = Scenario(
                n=4, proposals=[1, 1, 1, 0], faults=STUBBORN,
                seed=seed, max_steps=1_200_000,
            )
            result = ablated(scenario, validate=False).run().result(check=False)
            if 0 in result.decided_values:
                broken += 1
        assert broken >= 1

    def test_stubborn_bidder_loses_to_validation(self):
        for seed in range(8):
            result = run(Scenario(
                n=4, proposals=[1, 1, 1, 0], faults=STUBBORN, seed=seed,
            ))
            assert result.decided_values == {1}


class TestHaltingAblation:
    def test_textbook_protocol_decides_but_never_quiesces(self):
        handle = ablated(
            Scenario(n=4, proposals=[0, 1, 0, 1], seed=3), amplify_decides=False
        ).run()
        assert handle.until()  # every correct process decided
        assert not all(
            handle.plan.halted(stack) for stack in handle.stacks.values()
        )
        # the tail never drains
        with pytest.raises(EventBudgetExceeded):
            handle.sim.run(max_steps=20_000)

    def test_no_decide_messages_without_amplification(self):
        handle = ablated(
            Scenario(n=4, proposals=[0, 1, 0, 1], seed=5), amplify_decides=False
        ).run()
        assert handle.until()
        assert all(
            "bracha/DecideMsg" not in kinds
            for kinds in handle.sim.network.sent_by_kind.values()
        )

    def test_safety_unaffected_by_either_switch(self):
        # unanimous: safe even without validation
        scenario = Scenario(n=4, proposals=1, seed=7)
        for validate in (True, False):
            for amplify in (True, False):
                result = ablated(
                    scenario, validate=validate, amplify_decides=amplify
                ).run().result()
                assert result.decided_values == {1}
