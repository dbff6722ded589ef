"""Reliable broadcast end-to-end: correctness under faults and schedules."""

import pytest

from repro import run_broadcast
from repro.adversary import DelayVictimScheduler, SplitBrainScheduler
from repro.sim.scheduler import FifoScheduler, RandomDelayScheduler


class TestHonestSender:
    @pytest.mark.parametrize("n", [4, 7, 10, 13])
    def test_everyone_accepts(self, n):
        report = run_broadcast(n=n, sender=0, value="v", seed=n)
        assert report["accepted_values"] == {"v"}
        assert all(v == "v" for v in report["outcomes"].values())

    def test_message_cost_is_n_plus_2n_squared(self):
        for n in (4, 7, 10):
            report = run_broadcast(n=n, sender=0, seed=1)
            assert report["messages"] == n + 2 * n * n

    @pytest.mark.parametrize("seed", range(8))
    def test_many_seeds(self, seed):
        report = run_broadcast(n=7, sender=3, value=("blob", seed), seed=seed)
        assert report["accepted_values"] == {("blob", seed)}

    def test_non_zero_sender(self):
        report = run_broadcast(n=4, sender=2, value="x", seed=5)
        assert report["accepted_values"] == {"x"}


class TestFaultySender:
    @pytest.mark.parametrize("seed", range(10))
    def test_equivocation_never_splits(self, seed):
        """Consistency: whatever happens, at most one value is accepted."""
        report = run_broadcast(n=4, equivocate=("A", "B"), seed=seed)
        assert len(report["accepted_values"]) <= 1
        assert report["violations"] == []

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_equivocation_scales(self, n):
        report = run_broadcast(n=n, equivocate=(0, 1), seed=n * 7)
        assert len(report["accepted_values"]) <= 1

    def test_totality_enforced_when_any_accepts(self, subtests=None):
        """If the report says someone accepted, everyone did (checked
        internally by run_broadcast; this just confirms no exception)."""
        for seed in range(6):
            report = run_broadcast(n=7, equivocate=("A", "B"), seed=seed)
            if report["accepted_values"]:
                assert all(v is not None for v in report["outcomes"].values())


class TestCrashFaults:
    def test_silent_receivers_do_not_block(self):
        report = run_broadcast(n=7, sender=0, silent=[5, 6], seed=2)
        assert report["accepted_values"] == {"payload"}
        assert len(report["outcomes"]) == 5  # the correct processes

    def test_max_silent_faults(self):
        report = run_broadcast(n=10, sender=0, silent=[7, 8, 9], seed=3)
        assert report["accepted_values"] == {"payload"}

    def test_too_many_faults_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_broadcast(n=4, sender=0, silent=[1, 2], seed=0)

    def test_pids_outside_the_system_rejected(self):
        # At the parent both ran a broadcast nobody starts and returned
        # four ``None`` outcomes.
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match=r"\[9\] are outside 0\.\.3"):
            run_broadcast(n=4, sender=9)
        with pytest.raises(ConfigError, match=r"\[-1, 9\]"):
            run_broadcast(n=4, sender=0, silent=[9, -1])


class TestSchedulers:
    @pytest.mark.parametrize(
        "scheduler_factory",
        [
            lambda: FifoScheduler(),
            lambda: RandomDelayScheduler(mean_delay=2.0),
            lambda: DelayVictimScheduler([1], holdback=50),
            lambda: SplitBrainScheduler([0, 1], holdback=50),
        ],
        ids=["fifo", "delay", "victim", "split"],
    )
    def test_broadcast_survives_any_scheduler(self, scheduler_factory):
        report = run_broadcast(n=4, sender=0, scheduler=scheduler_factory(), seed=11)
        assert report["accepted_values"] == {"payload"}

    def test_adversarial_schedule_with_equivocation(self):
        for seed in range(5):
            report = run_broadcast(
                n=4,
                equivocate=("A", "B"),
                scheduler=SplitBrainScheduler([0, 1], holdback=100),
                seed=seed,
            )
            assert len(report["accepted_values"]) <= 1
