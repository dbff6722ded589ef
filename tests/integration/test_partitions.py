"""Network partitions: no progress without quorum, no harm either."""

import pytest

from repro.adversary import PartitionScheduler
from repro.scenario import Scenario, assemble, run


def partition(group_a, heal_after=10**9):
    """Scenario fields declaring a split of ``group_a`` from the rest."""
    return {
        "scheduler": "partition",
        "scheduler_args": {"group_a": group_a, "heal_after": heal_after},
    }


class TestPartitionThenHeal:
    @pytest.mark.parametrize("seed", range(5))
    def test_decisions_only_after_heal(self, seed):
        """A 2-2 split of n=4 leaves no side with a quorum (3): the run
        must stall until the merge, then decide normally."""
        handle = assemble(Scenario(
            n=4, proposals=[0, 1, 0, 1], seed=seed, **partition([0, 1])
        ))
        sim, scheduler = handle.sim, handle.sim.scheduler
        handle.start()

        # Drive the simulation manually and watch for early decisions.
        while not handle.until():
            decided_now = any(
                c.decided for stack in handle.stacks.values() for c in stack
            )
            if decided_now:
                assert scheduler.healed, "a decision happened inside the split"
            if not sim.step():
                break
        assert handle.until()
        assert scheduler.healed

    def test_majority_side_can_decide_during_partition(self):
        """A 3-1 split keeps a full quorum on one side: the majority side
        may decide while the minority waits for the merge."""
        result = run(Scenario(
            n=4, proposals=[1, 1, 1, 0], seed=2, **partition([0, 1, 2])
        ))
        assert result.decided_values == {1}

    def test_agreement_across_the_merge(self):
        """Decisions made by the majority side bind the minority side."""
        for seed in range(5):
            result = run(Scenario(
                n=4, proposals=[0, 1, 0, 1], seed=seed, **partition([0, 1, 2])
            ))
            assert len(result.decided_values) == 1

    def test_timed_heal(self):
        handle = assemble(Scenario(
            n=4, proposals=[0, 1, 0, 1], seed=7, **partition([0, 1], heal_after=50)
        ))
        result = handle.run().result()
        scheduler = handle.sim.scheduler
        assert scheduler.heal_step is not None
        assert scheduler.heal_step <= 50
        assert len(result.decided_values) == 1

    def test_partition_with_byzantine_member(self):
        """The faulty process sits in the minority partition; the
        majority side must still be safe and live."""
        result = run(Scenario(
            n=4, proposals=[1, 1, 1, 0], faults={3: "two_faced"},
            seed=4, **partition([0, 1, 2]),
        ))
        assert result.decided_values == {1}


class TestPartitionSchedulerUnit:
    def test_rejects_negative_heal(self):
        with pytest.raises(ValueError):
            PartitionScheduler([0], heal_after=-1)

    def test_cross_detection(self):
        scheduler = PartitionScheduler([0, 1])
        from repro.types import Envelope

        intra = Envelope(uid=1, source=0, dest=1, payload="m", send_time=0.0)
        cross = Envelope(uid=2, source=0, dest=2, payload="m", send_time=0.0)
        assert not scheduler._crosses(intra)
        assert scheduler._crosses(cross)
